(* Differential tests for the parallel satisfiability engine: planning
   with jobs=1 (the bit-identical sequential path) and jobs=4 must agree
   on outcome and plan cost for every planner that uses the engine, and
   the engine's batch verdicts must match sequential evaluation. *)

let cfg jobs = Planner.with_jobs jobs (Planner.with_budget (Some 60.0))

(* Small randomized HGRID scenarios, as in the planner suite. *)
let random_params seed =
  let g = Kutil.Prng.create ~seed in
  {
    (Gen.params_a ()) with
    Gen.label = Printf.sprintf "par%d" seed;
    dcs = 1 + Kutil.Prng.int g 2;
    rsws_per_pod = 1 + Kutil.Prng.int g 2;
    v1_grids = 1 + Kutil.Prng.int g 3;
    v2_grids = 2 + Kutil.Prng.int g 3;
    mesh_variants = 1 + Kutil.Prng.int g 2;
    ssw_port_headroom = 1 + Kutil.Prng.int g 2;
  }

let random_task seed =
  Task.of_scenario ~seed (Gen.build Gen.Hgrid_v1_to_v2 (random_params seed))

let outcome_fingerprint = function
  | Planner.Found p -> Printf.sprintf "found %.9f" p.Plan.cost
  | Planner.Infeasible -> "infeasible"
  | Planner.Timeout (Some p) -> Printf.sprintf "timeout %.9f" p.Plan.cost
  | Planner.Timeout None -> "timeout"
  | Planner.Unsupported why -> "unsupported: " ^ why

let planners : (string * (Planner.config -> Task.t -> Planner.result)) list =
  [
    ("astar", fun config task -> Astar.plan ~config task);
    ("dp", fun config task -> Dp.plan ~config task);
    ("exhaustive", fun config task -> Exhaustive.plan ~config task);
    ("greedy", fun config task -> Greedy.plan ~config task);
  ]

let test_differential_planning () =
  for seed = 1 to 6 do
    let task = random_task seed in
    List.iter
      (fun (name, plan) ->
        let seq = plan (cfg 1) task in
        let par = plan (cfg 4) task in
        Alcotest.(check string)
          (Printf.sprintf "seed %d: %s jobs=1 vs jobs=4" seed name)
          (outcome_fingerprint seq.Planner.outcome)
          (outcome_fingerprint par.Planner.outcome);
        (* Parallel plans must survive the independent audit too. *)
        match par.Planner.outcome with
        | Planner.Found p -> (
            match Plan.validate task p with
            | Ok () -> ()
            | Error e ->
                Alcotest.fail
                  (Printf.sprintf "seed %d: %s parallel plan invalid: %s" seed
                     name e))
        | _ -> ())
      planners
  done

let test_differential_label_a () =
  let task = Task.of_scenario (Gen.scenario_of_label "A") in
  List.iter
    (fun (name, plan) ->
      let seq = plan (cfg 1) task in
      let par = plan (cfg 3) task in
      Alcotest.(check string)
        (Printf.sprintf "topology A: %s" name)
        (outcome_fingerprint seq.Planner.outcome)
        (outcome_fingerprint par.Planner.outcome))
    planners

let test_differential_jobs8 () =
  (* jobs=8 drives A*'s speculative rounds at width 16 and the widest
     pool fan-out; outcomes, costs and plan validity must still match the
     sequential path exactly for every engine-backed planner. *)
  for seed = 7 to 9 do
    let task = random_task seed in
    List.iter
      (fun (name, plan) ->
        let seq = plan (cfg 1) task in
        let par = plan (cfg 8) task in
        Alcotest.(check string)
          (Printf.sprintf "seed %d: %s jobs=1 vs jobs=8" seed name)
          (outcome_fingerprint seq.Planner.outcome)
          (outcome_fingerprint par.Planner.outcome);
        Alcotest.(check int)
          (Printf.sprintf "seed %d: %s expanded states agree" seed name)
          seq.Planner.stats.Planner.expanded par.Planner.stats.Planner.expanded;
        Alcotest.(check int)
          (Printf.sprintf "seed %d: %s generated states agree" seed name)
          seq.Planner.stats.Planner.generated
          par.Planner.stats.Planner.generated;
        match par.Planner.outcome with
        | Planner.Found p -> (
            match Plan.validate task p with
            | Ok () -> ()
            | Error e ->
                Alcotest.fail
                  (Printf.sprintf "seed %d: %s parallel plan invalid: %s" seed
                     name e))
        | _ -> ())
      planners
  done

let test_forced_speculation_differential () =
  (* The default speculative width collapses to 1 without real hardware
     parallelism, so force wide rounds explicitly: every width must
     replay the sequential expansion order bit-identically (plans, costs,
     expanded/generated), at any job count. *)
  for seed = 1 to 6 do
    let task = random_task seed in
    let seq = Astar.plan ~config:(cfg 1) task in
    List.iter
      (fun (jobs, width) ->
        let spec =
          Astar.plan ~config:(cfg jobs) ~spec_width:width task
        in
        let what =
          Printf.sprintf "seed %d: jobs=%d width=%d" seed jobs width
        in
        Alcotest.(check string)
          (what ^ " outcome")
          (outcome_fingerprint seq.Planner.outcome)
          (outcome_fingerprint spec.Planner.outcome);
        Alcotest.(check int)
          (what ^ " expanded")
          seq.Planner.stats.Planner.expanded spec.Planner.stats.Planner.expanded;
        Alcotest.(check int)
          (what ^ " generated")
          seq.Planner.stats.Planner.generated
          spec.Planner.stats.Planner.generated;
        match (seq.Planner.outcome, spec.Planner.outcome) with
        | Planner.Found a, Planner.Found b ->
            Alcotest.(check (list int))
              (what ^ " identical block sequence")
              a.Plan.blocks b.Plan.blocks
        | _ -> ())
      [ (1, 2); (1, 16); (4, 8); (8, 16) ]
  done

let test_jobs_one_matches_legacy_stats () =
  (* jobs=1 is the sequential path: same outcome, and the same number of
     full checks and cache hits as planning used to perform. *)
  let task = random_task 2 in
  let a = Astar.plan ~config:(cfg 1) task in
  let b = Astar.plan ~config:(cfg 1) task in
  Alcotest.(check int) "deterministic sat_checks"
    a.Planner.stats.Planner.sat_checks b.Planner.stats.Planner.sat_checks;
  Alcotest.(check int) "deterministic cache_hits"
    a.Planner.stats.Planner.cache_hits b.Planner.stats.Planner.cache_hits;
  Alcotest.(check bool) "check time metered" true
    (a.Planner.stats.Planner.check_seconds >= 0.0
    && a.Planner.stats.Planner.check_seconds
       <= a.Planner.stats.Planner.elapsed +. 1e-3)

let test_engine_batch_matches_sequential () =
  let task = random_task 5 in
  let n_types = Action.Set.cardinal task.Task.actions in
  let counts = task.Task.counts in
  (* Walk a random monotone path through the lattice, batch-checking every
     successor frontier with both engines. *)
  let seq_engine = Sat_engine.create ~jobs:1 task in
  let par_engine = Sat_engine.create ~jobs:3 task in
  let g = Kutil.Prng.create ~seed:99 in
  let v = Compact.origin task.Task.actions in
  let steps = Array.fold_left ( + ) 0 counts in
  for _ = 1 to steps do
    let cands = ref [] in
    for a = n_types - 1 downto 0 do
      if v.(a) < counts.(a) then
        cands :=
          {
            Sat_engine.last_type = Some a;
            last_block = Some task.Task.blocks_by_type.(a).(v.(a));
            v =
              (let v' = Kutil.Vec_key.copy v in
               v'.(a) <- v'.(a) + 1;
               v');
          }
          :: !cands
    done;
    let cands = Array.of_list !cands in
    let seq_ok = Sat_engine.check_batch seq_engine cands in
    let par_ok = Sat_engine.check_batch par_engine cands in
    Alcotest.(check (array bool)) "batch verdicts agree" seq_ok par_ok;
    (* Advance along a random open successor. *)
    let open_types =
      Array.of_list
        (List.filter (fun a -> v.(a) < counts.(a))
           (List.init n_types Fun.id))
    in
    let a = open_types.(Kutil.Prng.int g (Array.length open_types)) in
    v.(a) <- v.(a) + 1
  done;
  Alcotest.(check int) "same full-check count"
    (Sat_engine.checks_performed seq_engine)
    (Sat_engine.checks_performed par_engine);
  Sat_engine.shutdown seq_engine;
  Sat_engine.shutdown par_engine

(* The shared cache under concurrent duplicates: every distinct state
   appears three times per batch, shuffled, so jobs=4 workers race on the
   same fresh keys (and later hit them).  Verdicts must match jobs=1, no
   lookup may go uncounted, and the table must hold each state once. *)
let test_engine_concurrent_duplicates () =
  let task = random_task 1 in
  let n_types = Action.Set.cardinal task.Task.actions in
  let counts = task.Task.counts in
  (* Up to 48 lattice states in breadth-first order (36 for this task). *)
  let seen = Kutil.Vec_key.Table.create 64 in
  let states = ref [] in
  let queue = Queue.create () in
  Queue.add (Compact.origin task.Task.actions) queue;
  while (not (Queue.is_empty queue)) && List.length !states < 48 do
    let v = Queue.pop queue in
    if not (Kutil.Vec_key.Table.mem seen v) then begin
      Kutil.Vec_key.Table.add seen v ();
      states := v :: !states;
      for a = 0 to n_types - 1 do
        if v.(a) < counts.(a) then begin
          let v' = Kutil.Vec_key.copy v in
          v'.(a) <- v'.(a) + 1;
          Queue.add v' queue
        end
      done
    end
  done;
  let states = Array.of_list (List.rev !states) in
  let groups = 4 in
  let group g =
    List.filteri (fun i _ -> i mod groups = g) (Array.to_list states)
  in
  let seq_engine = Sat_engine.create ~jobs:1 task in
  let par_engine = Sat_engine.create ~jobs:4 task in
  let rng = Kutil.Prng.create ~seed:31 in
  let lookups = ref 0 in
  for round = 0 to groups - 1 do
    (* This round's fresh states plus the previous round's cached ones,
       each three times, in a shuffled order. *)
    let distinct =
      group round @ if round > 0 then group (round - 1) else []
    in
    let batch =
      Array.of_list (List.concat_map (fun v -> [ v; v; v ]) distinct)
    in
    for i = Array.length batch - 1 downto 1 do
      let j = Kutil.Prng.int rng (i + 1) in
      let t = batch.(i) in
      batch.(i) <- batch.(j);
      batch.(j) <- t
    done;
    let cands =
      Array.map
        (fun v -> { Sat_engine.last_type = None; last_block = None; v })
        batch
    in
    lookups := !lookups + Array.length cands;
    let seq_ok = Sat_engine.check_batch seq_engine cands in
    let par_ok = Sat_engine.check_batch par_engine cands in
    Alcotest.(check (array bool))
      (Printf.sprintf "round %d verdicts agree" round)
      seq_ok par_ok
  done;
  List.iter
    (fun (name, e) ->
      Alcotest.(check int)
        (name ^ ": every lookup is a hit or a check")
        !lookups
        (Sat_engine.cache_hits e + Sat_engine.checks_performed e);
      Alcotest.(check int)
        (name ^ ": one entry per distinct state")
        (Array.length states) (Sat_engine.cache_size e))
    [ ("jobs=1", seq_engine); ("jobs=4", par_engine) ];
  Sat_engine.shutdown seq_engine;
  Sat_engine.shutdown par_engine

let suite =
  ( "parallel",
    [
      Alcotest.test_case "jobs=1 vs jobs=4 differential" `Slow
        test_differential_planning;
      Alcotest.test_case "topology A differential" `Quick
        test_differential_label_a;
      Alcotest.test_case "jobs=1 vs jobs=8 differential (speculation)" `Slow
        test_differential_jobs8;
      Alcotest.test_case "forced speculation widths are bit-identical" `Slow
        test_forced_speculation_differential;
      Alcotest.test_case "jobs=1 legacy stats" `Quick
        test_jobs_one_matches_legacy_stats;
      Alcotest.test_case "engine batch = sequential" `Quick
        test_engine_batch_matches_sequential;
      Alcotest.test_case "cache under concurrent duplicates" `Quick
        test_engine_concurrent_duplicates;
    ] )
