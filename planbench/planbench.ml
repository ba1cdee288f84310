(* planbench: one run of one E-tier planning workload.

     planbench.exe --workload NAME --seed N --seconds S [--trace FILE]

   The run generates the workload's NPD text from Table 3's E parameters,
   then drives the public pipeline the way [klotski plan --plan-out]
   does: Npd_parser.parse -> Npd_convert.to_scenario -> Blocks.organize
   -> Task.of_scenario ~blocks -> Klotski.plan -> Plan.validate ->
   Npd_export.plan_to_npd, printed and parsed back.  The replan workload
   then calls Klotski.replan after each executed prefix of its plan.
   The seed drives the demand matrix (Task.of_scenario ~seed) and the
   replan forecast; the pipeline itself receives only the NPD text.

   Without --trace the run repeats the pipeline for about S seconds and
   reports medians of host-adjusted times (see "Host speed").  With
   --trace it runs one untraced pass, then one pass with a span around
   every call into a library, replays the plan's states through fresh
   checkers, writes the spans as Chrome trace-event JSON to FILE and
   reports per-layer figures.  Spans are recorded here, around the
   calls, so the libraries carry no instrumentation.

   The last stdout line is one JSON object: attempted and failed plans,
   the failure reasons, the metrics, and (traced runs) the counts that
   must repeat exactly between runs. *)

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = {
  id : int;
  name : string;  (** "<layer>.<what>", e.g. "topology.gen". *)
  parent : int;  (** -1 for the root. *)
  start : float;
  mutable stop : float;
  alloc_start : float;
  mutable alloc_words : float;
}

let tracing = ref false
let spans : span list ref = ref []
let current = ref (-1)

(* Words allocated by this domain so far: exact minor words plus direct
   major allocations. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let with_span name f =
  if not !tracing then f ()
  else begin
    let sp =
      {
        id = List.length !spans;
        name;
        parent = !current;
        start = Kutil.Timer.now ();
        stop = 0.0;
        alloc_start = allocated_words ();
        alloc_words = 0.0;
      }
    in
    spans := sp :: !spans;
    let saved = !current in
    current := sp.id;
    Fun.protect
      ~finally:(fun () ->
        sp.alloc_words <- allocated_words () -. sp.alloc_start;
        sp.stop <- Kutil.Timer.now ();
        current := saved)
      f
  end

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let duration sp = sp.stop -. sp.start

(* Sum of one field over the spans named [name]. *)
let span_total name field =
  List.fold_left
    (fun acc sp -> if String.equal sp.name name then acc +. field sp else acc)
    0.0 !spans

(* Self time per layer: a span's duration minus what its children cover,
   summed over the spans of each layer. *)
let self_by_layer () =
  let add tbl key x =
    let prev = Option.value (Hashtbl.find_opt tbl key) ~default:0.0 in
    Hashtbl.replace tbl key (prev +. x)
  in
  let children = Hashtbl.create 64 in
  List.iter (fun sp -> add children sp.parent (duration sp)) !spans;
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let covered =
        Option.value (Hashtbl.find_opt children sp.id) ~default:0.0
      in
      add by_layer (layer_of sp.name) (duration sp -. covered))
    !spans;
  fun layer -> Option.value (Hashtbl.find_opt by_layer layer) ~default:0.0

(* ------------------------------------------------------------------ *)
(* Host speed *)

(* On a shared host the same work can take twice as long in one phase
   of tens of seconds as in the next, far more than the program's own
   run-to-run variation: the host's other tenants contend for its memory
   and shared cache.  A fixed reference kernel, run in a lap between
   every two timed segments of a pass, measures that speed as it drifts.
   A timed run reports its medians scaled by [kernel_ref_s] over the
   median lap of the run: the seconds they would take on a host where
   one kernel run takes [kernel_ref_s].  The kernel reads random bytes
   of a 32 MB buffer, so it waits on the shared cache and memory as the
   planner does; it calls nothing in lib/, so no change to the program
   can change its time.  Lap time is kept out of every segment.  Only
   timed runs take laps. *)

let laps_on = ref false
let kernel_bytes = 32 lsl 20
let kernel_steps = 1_200_000
let kernel_ref_s = 0.015

(* Outside the OCaml heap, so that it changes neither the GC's pacing
   nor its work. *)
let kernel_buf =
  lazy
    (let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout kernel_bytes in
     for i = 0 to kernel_bytes - 1 do
       Bigarray.Array1.unsafe_set b i (Char.unsafe_chr ((i * 7919) land 0xff))
     done;
     b)

let kernel () =
  let buf = Lazy.force kernel_buf in
  let x = ref 1 and acc = ref 0 in
  for _ = 1 to kernel_steps do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc :=
      !acc + Char.code (Bigarray.Array1.unsafe_get buf (!x land (kernel_bytes - 1)))
  done;
  ignore (Sys.opaque_identity !acc)

(* Every lap's kernel time, for the run's median. *)
let kernel_samples = ref []

(* A lap runs the kernel once; returns when it started and ended. *)
let lap () =
  let start = Kutil.Timer.now () in
  if not !laps_on then (start, start)
  else begin
    kernel ();
    let stop = Kutil.Timer.now () in
    kernel_samples := (stop -. start) :: !kernel_samples;
    (start, stop)
  end

(* [tick ()] ends the current segment with a lap and returns its
   wall-clock seconds, lap time excluded; the next segment starts. *)
let segment_clock () =
  let last_stop = ref (snd (lap ())) in
  fun () ->
    let start, stop = lap () in
    let seconds = start -. !last_stop in
    last_stop := stop;
    seconds

(* ------------------------------------------------------------------ *)
(* JSON output *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_list xs = "[" ^ String.concat ", " xs ^ "]"

let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let json_numbers fields =
  json_object (List.map (fun (k, v) -> (k, json_number v)) fields)

let print_result ~attempted ~errors ~metrics ~counts ~extra =
  print_endline
    (json_object
       ([
          ("attempted", string_of_int attempted);
          ("failed", string_of_int (List.length errors));
          ("errors", json_list (List.map json_string errors));
          ("metrics", json_numbers metrics);
          ("counts", json_numbers counts);
        ]
       @ extra))

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write_trace path ~meta =
  let spans = List.rev !spans in
  let t0 = match spans with sp :: _ -> sp.start | [] -> 0.0 in
  let event sp =
    json_object
      [
        ("name", json_string sp.name);
        ("cat", json_string (layer_of sp.name));
        ("ph", json_string "X");
        ("pid", "1");
        ("tid", "1");
        ("ts", Printf.sprintf "%.3f" ((sp.start -. t0) *. 1e6));
        ("dur", Printf.sprintf "%.3f" (duration sp *. 1e6));
        ( "args",
          json_object
            [
              ("id", string_of_int sp.id);
              ("parent", string_of_int sp.parent);
              ("alloc_words", Printf.sprintf "%.0f" sp.alloc_words);
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc
    (json_object
       [
         ( "otherData",
           json_object (List.map (fun (k, v) -> (k, json_string v)) meta) );
         ("traceEvents", json_list (List.map event spans));
       ]);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = {
  name : string;
  kind : Gen.kind;
  jobs : int;
  reference_cost : float;  (** A*-optimal cost of the (initial) plan. *)
  replans : int;  (** Executed prefixes to replan after; 0 = none. *)
}

let workloads =
  [
    {
      name = "plan-hgrid-e";
      kind = Gen.Hgrid_v1_to_v2;
      jobs = 1;
      reference_cost = 5.0;
      replans = 0;
    };
    {
      name = "plan-ssw-e-j2";
      kind = Gen.Ssw_forklift;
      jobs = 2;
      reference_cost = 10.0;
      replans = 0;
    };
    {
      name = "replan-dmag-e";
      kind = Gen.Dmag;
      jobs = 1;
      reference_cost = 3.0;
      replans = 15;
    };
  ]

(* The CLI's defaults: a 120 s budget, cache and incremental checks on. *)
let config jobs = Planner.with_jobs jobs (Planner.with_budget (Some 120.0))

let npd_text w =
  Npd_printer.to_string (Npd_convert.of_params w.kind (Gen.params_e ()))

(* NPD text to a ready task, one span per layer call. *)
let setup ~seed text =
  let doc = with_span "npd.parse" (fun () -> Npd_parser.parse text) in
  let scenario =
    with_span "topology.gen" (fun () ->
        match Npd_convert.to_scenario doc with
        | Ok sc -> sc
        | Error e -> failwith ("Npd_convert.to_scenario: " ^ e))
  in
  let blocks =
    with_span "migration.blocks" (fun () -> Blocks.organize scenario)
  in
  with_span "migration.task" (fun () ->
      Task.of_scenario ~seed ~blocks scenario)

(* A plan counts only when it is found, passes Plan.validate and costs
   what the reference says. *)
let judge task (result : Planner.result) ~expect =
  match result.Planner.outcome with
  | Planner.Found p -> (
      match with_span "planner.validate" (fun () -> Plan.validate task p) with
      | Error e -> Error ("validate: " ^ e)
      | Ok () when Float.equal p.Plan.cost expect -> Ok p
      | Ok () ->
          Error (Printf.sprintf "cost %g, reference %g" p.Plan.cost expect))
  | Planner.Infeasible -> Error "infeasible"
  | Planner.Timeout _ -> Error "timeout"
  | Planner.Unsupported m -> Error ("unsupported: " ^ m)

(* Export the plan as NPD text, parse it back and compare phases and
   block labels with the plan. *)
let export task (plan : Plan.t) =
  let text =
    with_span "core.export" (fun () ->
        Npd_printer.to_string (Npd_export.plan_to_npd task plan))
  in
  match
    with_span "npd.reparse" (fun () ->
        Result.bind (Npd_parser.parse_result text) Npd_export.phases_of_npd)
  with
  | Error e -> Error ("export re-parse: " ^ e)
  | Ok phases ->
      let labels =
        List.concat_map
          (fun (ph : Npd_export.phase_summary) -> ph.blocks)
          phases
      in
      let expected =
        List.map (fun b -> task.Task.blocks.(b).Blocks.label) plan.Plan.blocks
      in
      if
        List.length phases = List.length plan.Plan.runs
        && List.equal String.equal labels expected
      then Ok ()
      else Error "exported phases differ from the plan"

(* The replan schedule: after executing the first [k] blocks of [plan],
   class volumes stand at the forecast's week [k].  The reference cost is
   the Eq. 9 lower bound of the remaining blocks (one run per remaining
   action type at α = 0): a replan that attains it is optimal, and on
   this workload every replan must.  Spikes add 25 %, not the default
   50 %: at 50 %, 2 of about 100 forecasts tried (seeds 706 and
   2000707) left a prefix with no safe replan, and a workload must be
   one on which every plan can succeed.  At 25 %, those two and 40 more
   all replan. *)
type prefix = {
  executed : int list;
  demand_scales : float array;
  expect : float;
}

let prefixes w ~seed task (plan : Plan.t) =
  let forecast =
    Forecast.create ~spike_magnitude:0.25 ~prng:(Kutil.Prng.create ~seed) ()
  in
  let n = min w.replans (Plan.length plan - 1) in
  List.init n (fun i ->
      let k = i + 1 in
      let remaining = Array.make (Array.length task.Task.counts) 0 in
      List.iteri
        (fun j a -> if j >= k then remaining.(a) <- remaining.(a) + 1)
        plan.Plan.types;
      {
        executed = List.filteri (fun j _ -> j < k) plan.Plan.blocks;
        demand_scales =
          Array.of_list
            (List.map
               (fun (d : Demand.t) ->
                 Forecast.scale_at forecast ~week:k ~class_name:d.Demand.name)
               task.Task.demands);
        expect = Cost.heuristic ~alpha:task.Task.alpha remaining;
      })

(* ------------------------------------------------------------------ *)
(* One pass of the workload *)

type timing = {
  setup_s : float;
  plan_s : float;
      (** Klotski.plan; on the replan workload, the mean Klotski.replan
          over the prefixes. *)
  time_to_plan_s : float;
      (** The whole pass: NPD text to a validated plan, exported and
          parsed back, plus every replan and its validation. *)
  attempted : int;
  errors : string list;
}

(* A timed run keeps only the [timing] of each pass, so that no pass
   carries the previous passes' tasks in its heap. *)
type pass = {
  timing : timing;
  task : Task.t;
  result : Planner.result;  (** The initial plan. *)
  replan_results : Planner.result list;
}

(* Klotski.replan, split at its two calls when tracing. *)
let replan w task pre =
  if !tracing then begin
    let task' =
      with_span "core.remainder" (fun () ->
          fst
            (Klotski.remainder_task
               (Task.scale_demands task pre.demand_scales)
               ~executed:pre.executed))
    in
    ( with_span "planner.replan" (fun () ->
          Klotski.plan ~config:(config w.jobs) task'),
      task' )
  end
  else
    let r, task', _ =
      Klotski.replan ~config:(config w.jobs) task ~executed:pre.executed
        ~demand_scales:pre.demand_scales
    in
    (r, task')

let run_pass w ~seed text =
  let tick = segment_clock () in
  let task = setup ~seed text in
  let setup_s = tick () in
  let result =
    with_span "planner.astar" (fun () ->
        Klotski.plan ~config:(config w.jobs) task)
  in
  let plan_s_once = tick () in
  let errors = ref [] in
  let fail what e = errors := (what ^ ": " ^ e) :: !errors in
  let checked =
    match judge task result ~expect:w.reference_cost with
    | Error e ->
        fail "plan" e;
        None
    | Ok plan ->
        (match export task plan with Ok () -> () | Error e -> fail "plan" e);
        Some (prefixes w ~seed task plan)
  in
  let check_s = tick () in
  (* Per prefix: the replan's segment, then its validation's. *)
  let replans =
    List.mapi
      (fun i pre ->
        let r, task' = replan w task pre in
        let replan_s = tick () in
        (match judge task' r ~expect:pre.expect with
        | Ok _ -> ()
        | Error e -> fail (Printf.sprintf "replan %d" (i + 1)) e);
        (r, replan_s, tick ()))
      (Option.value checked ~default:[])
  in
  let replan_s = List.map (fun (_, s, _) -> s) replans in
  let plan_s =
    if w.replans = 0 then plan_s_once
    else if replan_s = [] then nan
    else
      List.fold_left ( +. ) 0.0 replan_s /. float_of_int (List.length replan_s)
  in
  let time_to_plan_s =
    List.fold_left ( +. ) 0.0
      (setup_s :: plan_s_once :: check_s
      :: List.concat_map (fun (_, s, v) -> [ s; v ]) replans)
  in
  {
    timing =
      {
        setup_s;
        plan_s;
        time_to_plan_s;
        attempted = 1 + List.length replans;
        errors = List.rev !errors;
      };
    task;
    result;
    replan_results = List.map (fun (r, _, _) -> r) replans;
  }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let peak_rss_mb () =
  match Kutil.Meminfo.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> nan

(* ------------------------------------------------------------------ *)
(* Timed run: medians over repeated passes *)

let min_setup_samples = 5

(* Pass [i] of a timed run plans the inputs of [pass_seed seed i].  A
   run thus samples several demand matrices and forecasts from its seed,
   and one that needs a longer search moves the run's medians less. *)
let pass_seed seed i = seed + (i * 1_000_003)

let measure w ~seed ~seconds text =
  laps_on := true;
  ignore (Lazy.force kernel_buf);
  let start = Kutil.Timer.now () in
  let peak_rss = ref nan in
  let rec loop acc n =
    Gc.compact ();
    let t = Kutil.Timer.now () in
    let p = (run_pass w ~seed:(pass_seed seed n) text).timing in
    let pass_s = Kutil.Timer.now () -. t in
    (* What one [klotski plan] costs in memory: later passes only add
       heap fragmentation.  The kernel's buffer, resident since the
       pass's first lap, is not the program's. *)
    if n = 0 then
      peak_rss := peak_rss_mb () -. (float_of_int kernel_bytes /. 1048576.0);
    let acc = p :: acc and n = n + 1 in
    (* Start another pass only when it, and the set-ups still owed to
       [min_setup_samples] (each with its two laps), are expected to end
       in time. *)
    let owed = float_of_int (max 0 (min_setup_samples - n - 1)) in
    let setup_cost = p.setup_s +. (pass_s -. p.time_to_plan_s) in
    if Kutil.Timer.now () -. start +. pass_s +. (owed *. setup_cost) <= seconds
    then loop acc n
    else List.rev acc
  in
  let passes = loop [] 0 in
  let extra_setups =
    List.init
      (max 0 (min_setup_samples - List.length passes))
      (fun i ->
        Gc.compact ();
        let tick = segment_clock () in
        ignore (setup ~seed:(pass_seed seed (List.length passes + i)) text);
        tick ())
  in
  let setups = List.map (fun p -> p.setup_s) passes @ extra_setups in
  let plans = List.map (fun p -> p.plan_s) passes in
  let ttps = List.map (fun p -> p.time_to_plan_s) passes in
  let kernel_s = median !kernel_samples in
  let host = kernel_ref_s /. kernel_s in
  let samples xs = json_list (List.map json_number xs) in
  print_result
    ~attempted:(List.fold_left (fun acc p -> acc + p.attempted) 0 passes)
    ~errors:(List.concat_map (fun p -> p.errors) passes)
    ~metrics:
      [
        ("setup_s", median setups *. host);
        ("plan_s", median plans *. host);
        ("time_to_plan_s", median ttps *. host);
        ("peak_rss_mb", !peak_rss);
      ]
    ~counts:[]
    ~extra:
      [
        ("passes", string_of_int (List.length passes));
        ( "wall_s",
          json_numbers
            [
              ("setup_s", median setups);
              ("plan_s", median plans);
              ("time_to_plan_s", median ttps);
            ] );
        ("laps", string_of_int (List.length !kernel_samples));
        ("kernel_s", json_number kernel_s);
        ("setup_samples", samples setups);
        ("plan_samples", samples plans);
        ("time_to_plan_samples", samples ttps);
        ("kernel_samples", samples (List.rev !kernel_samples));
        ("run_s", json_number (Kutil.Timer.now () -. start));
      ]

(* ------------------------------------------------------------------ *)
(* Traced run *)

(* Replay every state of [plan] through [checker]; per-check seconds in
   state order. *)
let replay checker task plan =
  List.map
    (fun v ->
      snd (Kutil.Timer.time (fun () -> ignore (Constraint.check checker v))))
    (Plan.states task plan)

let trace w ~seed ~trace_out ~meta text =
  (* An untraced pass first: the tracing overhead is the traced pass's
     wall-clock minus this one's. *)
  let untraced = run_pass w ~seed text in
  Gc.compact ();
  tracing := true;
  let pass, replays, j1 =
    with_span "bench.run" (fun () ->
        let pass = run_pass w ~seed text in
        let replays =
          match pass.result.Planner.outcome with
          | Planner.Found plan ->
              let run name checker =
                with_span name (fun () -> replay checker pass.task plan)
              in
              let full =
                run "migration.replay_full"
                  (Constraint.create ~incremental:false pass.task)
              in
              let default =
                run "migration.replay_default" (Constraint.create pass.task)
              in
              Some (full, default)
          | _ -> None
        in
        (* Speculative waste: the same task planned sequentially. *)
        let j1 =
          if w.jobs = 1 then None
          else
            Some
              (with_span "planner.astar_j1" (fun () ->
                   Klotski.plan ~config:(config 1) pass.task))
        in
        (pass, replays, j1))
  in
  let root = List.nth !spans (List.length !spans - 1) in
  (* The planners promise identical plans at every job count. *)
  let j1_errors =
    match (j1, pass.result.Planner.outcome) with
    | Some { Planner.outcome = Planner.Found p1; _ }, Planner.Found p
      when List.equal Int.equal p1.Plan.blocks p.Plan.blocks ->
        []
    | Some _, _ -> [ "the jobs=1 plan differs from the jobs=2 plan" ]
    | None, _ -> []
  in
  let results = pass.result :: pass.replan_results @ Option.to_list j1 in
  let check_s =
    List.fold_left
      (fun acc (r : Planner.result) ->
        acc +. r.Planner.stats.Planner.check_seconds)
      0.0 results
  in
  let n_replans = List.length pass.replan_results in
  let per_replan x =
    if n_replans > 0 then x /. float_of_int n_replans else 0.0
  in
  let replan_checks =
    List.fold_left
      (fun acc (r : Planner.result) -> acc + r.Planner.stats.Planner.sat_checks)
      0 pass.replan_results
  in
  let task = pass.task in
  let st = pass.result.Planner.stats in
  let hits = float_of_int st.Planner.cache_hits in
  let checks = float_of_int st.Planner.sat_checks in
  let sum_array f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  let mb bytes = float_of_int bytes /. 1048576.0 in
  let full_ms, default_ms, first_ms =
    match replays with
    | Some (full, default) ->
        (median full *. 1e3, median default *. 1e3, List.hd default *. 1e3)
    | None -> (nan, nan, nan)
  in
  let alloc_mw name = span_total name (fun sp -> sp.alloc_words) /. 1e6 in
  let counts =
    [
      ("migration.checks", checks);
      ("migration.cache_hits", hits);
      ("planner.expanded", float_of_int st.Planner.expanded);
      ("planner.generated", float_of_int st.Planner.generated);
      ("topology.gen_alloc_mw", alloc_mw "topology.gen");
      ("migration.task_alloc_mw", alloc_mw "migration.task");
      ("planner.alloc_mw", alloc_mw "planner.astar");
      ( "traffic.stage_circuits",
        float_of_int
          (sum_array
             (fun (c, _) -> Ecmp.stage_circuit_count c)
             task.Task.compiled) );
      ( "migration.deps_entries",
        float_of_int (sum_array Array.length task.Task.deps) );
      ("core.replan_checks", float_of_int replan_checks);
    ]
  in
  let covered =
    List.fold_left
      (fun acc sp -> if sp.parent = root.id then acc +. duration sp else acc)
      0.0 !spans
  in
  let self = self_by_layer () in
  let metrics =
    counts
    @ [
        ("topology.gen_s", span_total "topology.gen" duration);
        ( "topology.universe_mb",
          mb
            (List.fold_left
               (fun acc (_, b) -> acc + b)
               0
               (Universe.footprint (Task.universe task))) );
        ("migration.blocks_s", span_total "migration.blocks" duration);
        ("migration.task_s", span_total "migration.task" duration);
        ("migration.check_s", st.Planner.check_seconds);
        ( "migration.hit_ratio",
          if hits +. checks > 0.0 then hits /. (hits +. checks) else 0.0 );
        ( "migration.check_ms",
          if checks > 0.0 then st.Planner.check_seconds /. checks *. 1e3
          else 0.0 );
        ("migration.full_check_ms", full_ms);
        ("migration.default_check_ms", default_ms);
        ("migration.first_check_ms", first_ms);
        ( "planner.search_self_s",
          st.Planner.elapsed -. st.Planner.check_seconds );
        ( "planner.extra_checks",
          match j1 with
          | Some r -> checks -. float_of_int r.Planner.stats.Planner.sat_checks
          | None -> 0.0 );
        ("planner.validate_s", span_total "planner.validate" duration);
        ("core.remainder_s", per_replan (span_total "core.remainder" duration));
        ( "core.replan_plan_s",
          per_replan (span_total "planner.replan" duration) );
        ( "gc.top_heap_mb",
          mb ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) );
        (* Self time per layer.  The planners' satisfiability-check
           seconds (Planner.stats) move from the planner spans to the
           migration layer that runs them. *)
        ("npd.self_s", self "npd");
        ("topology.self_s", self "topology");
        ("migration.self_s", self "migration" +. check_s);
        ("planner.self_s", self "planner" -. check_s);
        ("core.self_s", self "core");
        ("trace.coverage", covered /. duration root);
        ( "trace.overhead_s",
          pass.timing.time_to_plan_s -. untraced.timing.time_to_plan_s );
      ]
  in
  write_trace trace_out ~meta;
  print_result
    ~attempted:
      (untraced.timing.attempted + pass.timing.attempted
      + List.length (Option.to_list j1))
    ~errors:(untraced.timing.errors @ pass.timing.errors @ j1_errors)
    ~metrics ~counts ~extra:[]

(* ------------------------------------------------------------------ *)
(* Command line *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 in
  let trace_out = ref "" and meta = ref [] in
  let add_meta kv =
    match String.index_opt kv '=' with
    | Some i ->
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        meta := (String.sub kv 0 i, v) :: !meta
    | None -> raise (Arg.Bad "--meta wants KEY=VALUE")
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N demand and forecast seed");
      ("--seconds", Arg.Set_float seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_string trace_out, "FILE traced run; spans to FILE");
      ("--meta", Arg.String add_meta, "KEY=VALUE recorded in the trace file");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "planbench.exe --workload NAME --seed N --seconds S [--trace FILE]";
  match List.find_opt (fun w -> String.equal w.name !workload) workloads with
  | None ->
      prerr_endline ("planbench: unknown workload " ^ !workload);
      exit 1
  | Some w ->
      let text = npd_text w in
      if String.equal !trace_out "" then
        measure w ~seed:!seed ~seconds:!seconds text
      else trace w ~seed:!seed ~trace_out:!trace_out ~meta:(List.rev !meta) text
