(* Tests for Kutil.Domain_pool: deterministic result order, exception
   propagation, and pool reuse across batches. *)

module Pool = Kutil.Domain_pool

exception Boom of int

let test_map_ordering () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let items = Array.init 100 (fun i -> i) in
      let out = Pool.map pool ~worker:(fun _wid x -> x * x) items in
      Alcotest.(check (array int))
        "squares in item order"
        (Array.map (fun x -> x * x) items)
        out)

let test_sequential_pool_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "size" 1 (Pool.size pool);
      let out =
        Pool.map pool
          ~worker:(fun wid x ->
            Alcotest.(check int) "caller is worker 0" 0 wid;
            x + 1)
          [| 1; 2; 3 |]
      in
      Alcotest.(check (array int)) "inline map" [| 2; 3; 4 |] out)

let test_worker_ids_in_range () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let wids =
        Pool.map pool ~worker:(fun wid _ -> wid) (Array.make 50 ())
      in
      Array.iter
        (fun w ->
          Alcotest.(check bool) "wid in range" true (w >= 0 && w < 3))
        wids)

let test_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let items = Array.init 32 (fun i -> i) in
      (match
         Pool.map pool
           ~worker:(fun _ x -> if x = 13 then raise (Boom x) else x)
           items
       with
      | _ -> Alcotest.fail "expected the worker exception to propagate"
      | exception Boom 13 -> ());
      (* The pool survives a failed batch. *)
      let out = Pool.map pool ~worker:(fun _ x -> x * 2) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "usable after failure" [| 2; 4; 6 |] out)

let test_reuse_across_batches () =
  Pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 5 do
        let n = 10 * round in
        let out =
          Pool.map pool ~worker:(fun _ x -> x + round) (Array.init n Fun.id)
        in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init n (fun i -> i + round))
          out
      done)

let test_empty_and_singleton () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||]
        (Pool.map pool ~worker:(fun _ x -> x) [||]);
      Alcotest.(check (array int)) "singleton" [| 7 |]
        (Pool.map pool ~worker:(fun _ x -> x) [| 7 |]))

let test_map_after_shutdown_raises () =
  (* Both dispatch paths must refuse a dead pool: the trivial inline path
     (tiny batch) used to silently run on the caller. *)
  let pool = Pool.create ~jobs:3 in
  Pool.shutdown pool;
  Alcotest.check_raises "small batch raises"
    (Invalid_argument "Domain_pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool ~worker:(fun _ x -> x) [| 1 |]));
  Alcotest.check_raises "large batch raises"
    (Invalid_argument "Domain_pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool ~worker:(fun _ x -> x) (Array.init 500 Fun.id)));
  let seq = Pool.create ~jobs:1 in
  Pool.shutdown seq;
  Alcotest.check_raises "jobs=1 pool raises too"
    (Invalid_argument "Domain_pool.map: pool is shut down") (fun () ->
      ignore (Pool.map seq ~worker:(fun _ x -> x) [| 1; 2 |]))

let test_shutdown_before_dispatch () =
  (* Domains are spawned lazily on the first dispatched batch, so these
     pools have no worker domain yet: shutdown has nothing to wake or
     join and must return at once. *)
  for _ = 1 to 10 do
    let pool = Pool.create ~jobs:4 in
    Pool.shutdown pool
  done;
  Alcotest.(check pass) "no hang" () ()

let test_shutdown_with_parked_workers () =
  (* One multi-item batch spawns the worker domains (on a host with two
     or more cores); after it the workers park on the condition
     variable, and shutdown must wake and join them. *)
  for _ = 1 to 10 do
    let pool = Pool.create ~jobs:4 in
    let out =
      Pool.map pool ~worker:(fun _ x -> x + 1) (Array.init 64 Fun.id)
    in
    Alcotest.(check int) "batch ran" 64 out.(63);
    (* Give the workers time to return to the condition variable. *)
    Unix.sleepf 0.005;
    Pool.shutdown pool
  done;
  Alcotest.(check pass) "no hang" () ()

let test_forced_dispatch_chunked () =
  (* Every multi-item batch goes through the worker epoch on a multicore
     host, covering the chunked cursor on batches much larger (and much
     smaller) than the chunk size. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun n ->
          let items = Array.init n (fun i -> i) in
          let out = Pool.map pool ~worker:(fun _ x -> x * 3) items in
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d in order" n)
            (Array.map (fun x -> x * 3) items)
            out)
        [ 2; 3; 7; 64; 1000; 10_000 ])

let test_exception_mid_batch_forced () =
  (* An item exception on the dispatched path: one failure surfaces, the
     remaining chunks drain, and the pool survives. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let items = Array.init 1000 (fun i -> i) in
      (match
         Pool.map pool
           ~worker:(fun _ x -> if x = 500 then raise (Boom x) else x)
           items
       with
      | _ -> Alcotest.fail "expected the worker exception to propagate"
      | exception Boom 500 -> ());
      let out = Pool.map pool ~worker:(fun _ x -> x + 1) items in
      Alcotest.(check int) "usable after mid-batch failure" 1000
        (Array.fold_left (fun acc x -> acc + (x land 1)) 500 out))

let test_create_validation () =
  Alcotest.check_raises "jobs 0 rejected"
    (Invalid_argument "Domain_pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0))

let test_shutdown_idempotent () =
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check pass) "double shutdown" () ()

let suite =
  ( "domain_pool",
    [
      Alcotest.test_case "result ordering" `Quick test_map_ordering;
      Alcotest.test_case "jobs=1 runs inline" `Quick
        test_sequential_pool_inline;
      Alcotest.test_case "worker ids in range" `Quick test_worker_ids_in_range;
      Alcotest.test_case "exceptions propagate" `Quick
        test_exception_propagates;
      Alcotest.test_case "reuse across batches" `Quick
        test_reuse_across_batches;
      Alcotest.test_case "empty and singleton batches" `Quick
        test_empty_and_singleton;
      Alcotest.test_case "creation validation" `Quick test_create_validation;
      Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
      Alcotest.test_case "map after shutdown raises (both paths)" `Quick
        test_map_after_shutdown_raises;
      Alcotest.test_case "shutdown before any dispatch" `Quick
        test_shutdown_before_dispatch;
      Alcotest.test_case "shutdown with parked workers" `Quick
        test_shutdown_with_parked_workers;
      Alcotest.test_case "forced dispatch, chunked cursor" `Quick
        test_forced_dispatch_chunked;
      Alcotest.test_case "exception mid-batch (dispatched)" `Quick
        test_exception_mid_batch_forced;
    ] )
