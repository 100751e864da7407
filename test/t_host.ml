(* Tests for the host runtime: throughput arithmetic, the channel
   scheduler (N_B blocks behind one arbiter), and the domain pool that
   realizes N_K parallelism for real. *)
module Throughput = Dphls_host.Throughput
module Scheduler = Dphls_host.Scheduler
module Pool = Dphls_host.Pool

let test_throughput_arithmetic () =
  (* 1000 cycles at 250 MHz with 4 parallel units: 1e6 aligns/s *)
  Alcotest.(check (float 1.0)) "alignments/s" 1.0e6
    (Throughput.alignments_per_sec ~cycles_per_alignment:1000.0 ~freq_mhz:250.0
       ~n_b:2 ~n_k:2);
  Alcotest.(check (float 1.0)) "cells/s" 6.5536e10
    (Throughput.cells_per_sec ~cycles_per_alignment:1000.0 ~freq_mhz:250.0 ~n_b:2
       ~n_k:2 ~cells:65536)

let test_iso_cost () =
  (* a $3.06/h instance scaled to the $1.65/h reference loses ~46% *)
  let scaled =
    Throughput.iso_cost ~throughput:100.0 ~cost_per_hour:3.06
      ~reference_cost_per_hour:1.65
  in
  Alcotest.(check (float 0.1)) "iso-cost" 53.9 scaled

let test_job_for_rounding () =
  let j = Scheduler.job_for ~qry_len:10 ~ref_len:10 ~compute:100 ~path_len:5 ~bytes_per_cycle:8 in
  Alcotest.(check int) "transfer in" 3 j.Scheduler.transfer_in;
  Alcotest.(check int) "transfer out" 2 j.Scheduler.transfer_out;
  Alcotest.(check int) "compute" 100 j.Scheduler.compute

let job ~t_in ~comp ~t_out =
  { Scheduler.transfer_in = t_in; compute = comp; transfer_out = t_out }

let test_single_job () =
  let r = Scheduler.run_channel ~n_b:1 [ job ~t_in:10 ~comp:100 ~t_out:5 ] in
  Alcotest.(check int) "makespan" 115 r.Scheduler.makespan;
  Alcotest.(check int) "arbiter busy" 15 r.Scheduler.arbiter_busy;
  Alcotest.(check int) "block busy" 100 r.Scheduler.block_busy

let test_one_block_serializes () =
  let jobs = List.init 4 (fun _ -> job ~t_in:10 ~comp:100 ~t_out:5) in
  let r = Scheduler.run_channel ~n_b:1 jobs in
  (* with one block, jobs can't overlap compute *)
  Alcotest.(check bool) "makespan at least serial compute" true
    (r.Scheduler.makespan >= 4 * 100)

let test_blocks_overlap_compute () =
  let jobs = List.init 4 (fun _ -> job ~t_in:10 ~comp:100 ~t_out:5) in
  let serial = Scheduler.run_channel ~n_b:1 jobs in
  let parallel = Scheduler.run_channel ~n_b:4 jobs in
  Alcotest.(check bool) "4 blocks beat 1" true
    (parallel.Scheduler.makespan < serial.Scheduler.makespan);
  (* dominated by the pipeline of transfers + one compute *)
  Alcotest.(check bool) "near-ideal overlap" true
    (parallel.Scheduler.makespan <= (4 * 15) + 100 + 5)

let test_bandwidth_bound_flag () =
  (* transfers dominate: arbiter saturates *)
  let jobs = List.init 20 (fun _ -> job ~t_in:100 ~comp:10 ~t_out:100) in
  let r = Scheduler.run_channel ~n_b:8 jobs in
  Alcotest.(check bool) "bandwidth bound" true r.Scheduler.bandwidth_bound;
  (* compute dominates: arbiter mostly idle *)
  let jobs2 = List.init 20 (fun _ -> job ~t_in:1 ~comp:1000 ~t_out:1) in
  let r2 = Scheduler.run_channel ~n_b:2 jobs2 in
  Alcotest.(check bool) "compute bound" false r2.Scheduler.bandwidth_bound

let test_nb_scaling_near_linear () =
  (* the Fig 3 claim: throughput scales almost perfectly with N_B while
     the arbiter is under-utilized *)
  let mk n = List.init (n * 8) (fun _ -> job ~t_in:4 ~comp:400 ~t_out:2) in
  let t n_b =
    Scheduler.device_throughput ~n_k:1 ~n_b ~freq_mhz:250.0 (mk n_b)
  in
  let t1 = t 1 and t4 = t 4 and t8 = t 8 in
  Alcotest.(check bool) "4x within 15%" true (t4 /. t1 > 3.4);
  Alcotest.(check bool) "8x within 20%" true (t8 /. t1 > 6.4)

let test_utilizations_bounded () =
  let jobs = List.init 10 (fun _ -> job ~t_in:5 ~comp:50 ~t_out:5) in
  let r = Scheduler.run_channel ~n_b:3 jobs in
  Alcotest.(check bool) "arbiter util in [0,1]" true
    (r.Scheduler.arbiter_utilization >= 0.0 && r.Scheduler.arbiter_utilization <= 1.0);
  Alcotest.(check bool) "block util in [0,1]" true
    (r.Scheduler.block_utilization >= 0.0 && r.Scheduler.block_utilization <= 1.0)

let test_invalid_args () =
  Alcotest.(check bool) "n_b 0 rejected" true
    (try
       ignore (Scheduler.run_channel ~n_b:0 []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-positive cycles rejected" true
    (try
       ignore
         (Throughput.alignments_per_sec ~cycles_per_alignment:0.0 ~freq_mhz:250.0
            ~n_b:1 ~n_k:1);
       false
     with Invalid_argument _ -> true)

(* ---- Pool ---- *)

let test_pool_empty_batch () =
  Pool.with_pool ~workers:3 (fun p ->
      let results, stats = Pool.run p (fun _ -> assert false) 0 in
      Alcotest.(check int) "no results" 0 (Array.length results);
      Alcotest.(check int) "no jobs" 0
        stats.Pool.report.Scheduler.jobs;
      Alcotest.(check int) "zero makespan" 0
        stats.Pool.report.Scheduler.makespan)

let test_pool_batch_smaller_than_workers () =
  Pool.with_pool ~workers:8 (fun p ->
      let results = Pool.map p (fun i -> i * i) 3 in
      Alcotest.(check (array int)) "squares" [| 0; 1; 4 |] results)

let test_pool_exception_propagates () =
  let p = Pool.create ~workers:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      Alcotest.(check bool) "exception re-raised, no deadlock" true
        (try
           ignore (Pool.map ~chunk:1 p (fun i -> if i = 5 then failwith "boom" else i) 10);
           false
         with Failure msg -> msg = "boom");
      (* the pool must survive a failing batch *)
      let again = Pool.map p (fun i -> i + 1) 6 in
      Alcotest.(check (array int)) "pool usable after failure"
        [| 1; 2; 3; 4; 5; 6 |] again)

let test_pool_report_invariants () =
  Pool.with_pool ~workers:4 (fun p ->
      (* enough work per task for the timers to register *)
      let busy_work i =
        let acc = ref i in
        for k = 1 to 20_000 do
          acc := (!acc * 31 + k) land 0xFFFF
        done;
        !acc
      in
      let n = 50 in
      let results, stats = Pool.run ~chunk:3 p busy_work n in
      Alcotest.(check int) "all results" n (Array.length results);
      let r = stats.Pool.report in
      Alcotest.(check int) "jobs" n r.Scheduler.jobs;
      Alcotest.(check int) "one busy slot per worker" 4
        (Array.length stats.Pool.worker_busy_ns);
      Alcotest.(check bool) "block_busy <= workers * makespan" true
        (r.Scheduler.block_busy <= 4 * r.Scheduler.makespan);
      Array.iter
        (fun busy ->
          Alcotest.(check bool) "worker busy <= makespan" true
            (busy <= r.Scheduler.makespan))
        stats.Pool.worker_busy_ns;
      Alcotest.(check int) "block_busy is the per-worker sum"
        (Array.fold_left ( + ) 0 stats.Pool.worker_busy_ns)
        r.Scheduler.block_busy;
      Alcotest.(check bool) "utilizations in [0,1]" true
        (r.Scheduler.arbiter_utilization >= 0.0
        && r.Scheduler.arbiter_utilization <= 1.0
        && r.Scheduler.block_utilization >= 0.0
        && r.Scheduler.block_utilization <= 1.0))

let test_pool_map_seeded_deterministic () =
  let draw rng _i = Dphls_util.Rng.int rng 1_000_000 in
  let a =
    Pool.with_pool ~workers:1 (fun p -> Pool.map_seeded p ~seed:7 draw 40)
  in
  let b =
    Pool.with_pool ~workers:5 (fun p ->
        Pool.map_seeded ~chunk:1 p ~seed:7 draw 40)
  in
  let c =
    Pool.with_pool ~workers:3 (fun p ->
        Pool.map_seeded ~chunk:16 p ~seed:7 draw 40)
  in
  Alcotest.(check (array int)) "1 worker == 5 workers chunk 1" a b;
  Alcotest.(check (array int)) "1 worker == 3 workers chunk 16" a c;
  let other =
    Pool.with_pool ~workers:1 (fun p -> Pool.map_seeded p ~seed:8 draw 40)
  in
  Alcotest.(check bool) "different seed differs" true (a <> other)

let test_pool_invalid_args () =
  Alcotest.(check bool) "workers 0 rejected" true
    (try
       ignore (Pool.create ~workers:0 ());
       false
     with Invalid_argument _ -> true);
  let p = Pool.create ~workers:2 () in
  Pool.shutdown p;
  Pool.shutdown p;  (* idempotent *)
  Alcotest.(check bool) "run after shutdown rejected" true
    (try
       ignore (Pool.map p (fun i -> i) 3);
       false
     with Invalid_argument _ -> true)

let test_pool_large_batch_ordering () =
  Pool.with_pool ~workers:6 (fun p ->
      let n = 500 in
      let results = Pool.map ~chunk:7 p (fun i -> 3 * i) n in
      Alcotest.(check bool) "all slots in input order" true
        (Array.for_all (fun x -> x >= 0) results
        && Array.to_list results = List.init n (fun i -> 3 * i)))

(* Pool.slices: contiguous, in order, [min k (max 1 n)] slices whose
   sizes differ by at most one *)
let prop_slices =
  QCheck.Test.make ~count:500 ~name:"pool slices partition the input"
    QCheck.(pair (int_range 1 12) (small_list small_nat))
    (fun (k, xs) ->
      let arr = Array.of_list xs in
      let slices = Pool.slices k arr in
      let sizes = Array.map Array.length slices in
      Array.to_list (Array.concat (Array.to_list slices)) = xs
      && Array.length slices = min k (max 1 (Array.length arr))
      && Array.fold_left max 0 sizes - Array.fold_left min max_int sizes <= 1)

(* The caller is worker 0: a 1-worker pool runs every task on the
   calling domain, and a 3-worker pool on at most three domains. *)
let test_pool_caller_is_worker_0 () =
  let self () = (Domain.self () :> int) in
  let caller = self () in
  let on_1 = Pool.with_pool ~workers:1 (fun p -> Pool.map ~chunk:1 p (fun _ -> self ()) 40) in
  Alcotest.(check bool) "1 worker: every task on the caller's domain" true
    (Array.for_all (( = ) caller) on_1);
  let on_3 =
    Pool.with_pool ~workers:3 (fun p ->
        Pool.map ~chunk:1 p
          (fun _ ->
            (* long enough for the spawned workers to take some chunks *)
            let acc = ref 0 in
            for j = 0 to 20_000 do acc := !acc + (j mod 7) done;
            ignore (Sys.opaque_identity !acc);
            self ())
          200)
  in
  let domains = List.sort_uniq compare (Array.to_list on_3) in
  Alcotest.(check bool)
    (Printf.sprintf "3 workers: tasks on %d distinct domains" (List.length domains))
    true
    (List.length domains <= 3)

let suite =
  [
    Alcotest.test_case "throughput arithmetic" `Quick test_throughput_arithmetic;
    Alcotest.test_case "pool empty batch" `Quick test_pool_empty_batch;
    Alcotest.test_case "pool small batch" `Quick
      test_pool_batch_smaller_than_workers;
    Alcotest.test_case "pool exception propagates" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool report invariants" `Quick
      test_pool_report_invariants;
    Alcotest.test_case "pool seeded determinism" `Quick
      test_pool_map_seeded_deterministic;
    Alcotest.test_case "pool invalid args" `Quick test_pool_invalid_args;
    Alcotest.test_case "pool large batch ordering" `Quick
      test_pool_large_batch_ordering;
    Alcotest.test_case "iso cost" `Quick test_iso_cost;
    Alcotest.test_case "job rounding" `Quick test_job_for_rounding;
    Alcotest.test_case "single job" `Quick test_single_job;
    Alcotest.test_case "one block serializes" `Quick test_one_block_serializes;
    Alcotest.test_case "blocks overlap" `Quick test_blocks_overlap_compute;
    Alcotest.test_case "bandwidth bound flag" `Quick test_bandwidth_bound_flag;
    Alcotest.test_case "N_B scaling near linear" `Quick test_nb_scaling_near_linear;
    Alcotest.test_case "utilizations bounded" `Quick test_utilizations_bounded;
    Alcotest.test_case "invalid args" `Quick test_invalid_args;
    QCheck_alcotest.to_alcotest prop_slices;
    Alcotest.test_case "pool caller is worker 0" `Quick test_pool_caller_is_worker_0;
  ]
