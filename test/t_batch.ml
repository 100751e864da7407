(* Tests for the multicore batch runtime: worker-count determinism,
   result ordering, and differential equality against the single-call
   Align API on both engines. *)
module Align = Dphls.Align
module Batch = Dphls.Batch
module Rng = Dphls_util.Rng

let qtest = QCheck_alcotest.to_alcotest

let dna_gen len_lo len_hi =
  QCheck.Gen.(
    string_size
      ~gen:(oneofl [ 'A'; 'C'; 'G'; 'T' ])
      (int_range len_lo len_hi))

let pairs_arbitrary n =
  QCheck.make
    ~print:(fun pairs ->
      String.concat ";"
        (Array.to_list (Array.map (fun (q, r) -> q ^ "/" ^ r) pairs)))
    QCheck.Gen.(array_size (return n) (pair (dna_gen 1 40) (dna_gen 1 40)))

let digest results = Digest.string (Marshal.to_string results [])

(* Determinism: the same 200-pair batch must come back byte-identical
   at 1, 4, and 8 workers. *)
let prop_worker_count_invariance =
  QCheck.Test.make ~name:"align_all workers 1/4/8 byte-identical" ~count:2
    (pairs_arbitrary 200)
    (fun pairs ->
      let r1 = Batch.align_all ~workers:1 pairs in
      let r4 = Batch.align_all ~workers:4 pairs in
      let r8 = Batch.align_all ~workers:8 pairs in
      digest r1 = digest r4 && digest r4 = digest r8)

(* Ordering: self-alignments of shuffled lengths finish in arbitrary
   order across workers, but result [i] must still belong to input [i]
   (global self-alignment score is exactly 2 * length). *)
let test_ordering_shuffled_costs () =
  let rng = Rng.create 99 in
  let lengths = Array.init 60 (fun i -> 1 + i) in
  Rng.shuffle rng lengths;
  let pairs =
    Array.map (fun len -> (String.make len 'A', String.make len 'A')) lengths
  in
  let results, stats, _ = Batch.align_all_overlap_report ~workers:6 pairs in
  Alcotest.(check int) "jobs reported" 60
    stats.Dphls_host.Pool.report.Dphls_host.Scheduler.jobs;
  Array.iteri
    (fun i (a : Align.alignment) ->
      Alcotest.(check int)
        (Printf.sprintf "pair %d (len %d)" i lengths.(i))
        (2 * lengths.(i)) a.Align.score)
    results

(* Differential: every batched result equals the corresponding
   single-call Align result, for the golden engine and Systolic 16. *)
let test_differential_vs_single_call () =
  let rng = Rng.create 2026 in
  let pairs =
    Array.init 30 (fun _ ->
        ( Dphls_alphabet.Dna.to_string
            (Dphls_alphabet.Dna.random rng (1 + Rng.int rng 40)),
          Dphls_alphabet.Dna.to_string
            (Dphls_alphabet.Dna.random rng (1 + Rng.int rng 40)) ))
  in
  List.iter
    (fun (engine, engine_name) ->
      List.iter
        (fun (kind, kind_name) ->
          let batched = Batch.align_all ~engine ~kind ~workers:4 pairs in
          Array.iteri
            (fun i ((query, reference) as _p) ->
              let solo = fst (Align.run ~engine kind ~query ~reference) in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s pair %d" engine_name kind_name i)
                true
                (batched.(i) = solo))
            pairs)
        [
          (Batch.Global, "global");
          (Batch.Global_affine, "global-affine");
          (Batch.Local, "local");
          (Batch.Semi_global, "semi-global");
        ])
    [ (Align.Golden, "golden"); (Align.Systolic 16, "systolic16") ]

(* Protein kind routes to kernel #15. *)
let test_protein_kind () =
  let pairs = [| ("WWWW", "WWWW"); ("MKV", "MKV") |] in
  let results = Batch.align_all ~kind:Batch.Protein_local ~workers:2 pairs in
  let solo = Align.protein_local ~query:"WWWW" ~reference:"WWWW" () in
  Alcotest.(check int) "blosum score via batch" solo.Align.score
    results.(0).Align.score

(* FASTA pair file end-to-end through the streaming reader: every pair
   visited once, in order, with the single-call answer, also when the
   chunk size forces several pool dispatches. *)
let test_iter_fasta_file () =
  let path = "data/batch_pairs.fa" in
  let records = Dphls_io.Fasta.read_file path in
  Alcotest.(check int) "bundled file has 8 records" 8 (List.length records);
  let count = ref 0 in
  ignore @@ Batch.iter_fasta_file ~workers:2 ~chunk:2 ~path
    ~f:(fun idx q r a ->
      Alcotest.(check string)
        "query id lines up"
        (Printf.sprintf "q%d" idx)
        q.Dphls_io.Fasta.id;
      Alcotest.(check string)
        "reference id lines up"
        (Printf.sprintf "r%d" idx)
        r.Dphls_io.Fasta.id;
      let solo =
        fst
          (Align.run Batch.Global ~query:q.Dphls_io.Fasta.sequence
             ~reference:r.Dphls_io.Fasta.sequence)
      in
      Alcotest.(check bool) "matches single call" true (a = solo);
      incr count)
    ();
  Alcotest.(check int) "four pairs" 4 !count

let test_odd_fasta_rejected () =
  let path = Filename.temp_file "dphls_odd" ".fa" in
  Dphls_io.Fasta.write_file path
    [ { Dphls_io.Fasta.id = "only"; description = ""; sequence = "ACGT" } ];
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.(check bool) "odd record count rejected" true
        (try
           ignore (Batch.iter_fasta_file ~workers:1 ~path ~f:(fun _ _ _ _ -> ()) ());
           false
         with Failure _ -> true))

(* A fault is raised only after every complete pair read before it has
   reached [f], whatever the chunk size: an unpaired last record, and a
   letter the kind cannot align in the second pair's reference. *)
let test_pairs_before_fault_answered () =
  List.iter
    (fun (what, records) ->
      let path = Filename.temp_file "dphls_fault" ".fa" in
      Dphls_io.Fasta.write_file path
        (List.map
           (fun (id, sequence) -> { Dphls_io.Fasta.id; description = ""; sequence })
           records);
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          List.iter
            (fun chunk ->
              let seen = ref [] in
              let raised =
                try
                  ignore
                    (Batch.iter_fasta_file ~workers:1 ~chunk ~path
                       ~f:(fun idx q _ _ -> seen := (idx, q.Dphls_io.Fasta.id) :: !seen)
                       ());
                  false
                with Failure _ -> true
              in
              let what = Printf.sprintf "%s, chunk %d" what chunk in
              Alcotest.(check bool) (what ^ ": raises") true raised;
              Alcotest.(check (list (pair int string)))
                (what ^ ": pair 0 answered first") [ (0, "q0") ] (List.rev !seen))
            [ 1; 256 ]))
    [
      ("unpaired last record", [ ("q0", "ACGT"); ("r0", "ACGA"); ("q1", "ACGT") ]);
      ( "letter outside the alphabet",
        [ ("q0", "ACGT"); ("r0", "ACGA"); ("q1", "ACGT"); ("r1", "ACGX") ] );
    ]

(* Measured-vs-modeled scaling points over the pool stats of the same
   batch at 1, 2 and 4 workers are well-formed (on a 1-core CI box the
   measured speedup can be anything positive; the modeled side must be
   the linear N_K law). *)
let test_scaling_points () =
  let pairs =
    Array.init 12 (fun i -> (String.make (8 + i) 'C', String.make 12 'C'))
  in
  let report workers =
    let _, stats, _ = Batch.align_all_overlap_report ~workers pairs in
    stats.Dphls_host.Pool.report
  in
  let points =
    Dphls_host.Throughput.scaling ~baseline:(report 1)
      (List.map (fun w -> (w, report w)) [ 2; 4 ])
  in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter2
    (fun w (p : Dphls_host.Throughput.scaling_point) ->
      Alcotest.(check int) "workers echoed" w p.Dphls_host.Throughput.workers;
      Alcotest.(check (float 1e-9))
        "modeled speedup is linear N_K"
        (float_of_int w) p.Dphls_host.Throughput.modeled_speedup;
      Alcotest.(check bool) "measured speedup positive" true
        (p.Dphls_host.Throughput.measured_speedup > 0.0);
      Alcotest.(check (float 1e-9))
        "efficiency = measured / modeled"
        (p.Dphls_host.Throughput.measured_speedup /. float_of_int w)
        p.Dphls_host.Throughput.efficiency)
    [ 2; 4 ] points

(* The call the batch benchmark times: align_all_overlap_report
   answers exactly what align_all answers, at one worker and at three,
   and its overlap accounting is Engine.batch_stats_of ~overlap:true
   over the cycles the dispatch answers with: at one worker (one slice)
   over all the workloads, zero on the golden engine, which has none;
   at three workers the sum over the Pool.slices slices. *)
let test_overlap_report () =
  let module K02 = Dphls_kernels.K02_global_affine in
  let module Engines = Dphls_engines.Engines in
  let module Sim = Dphls_systolic.Engine in
  let rng = Rng.create 77 in
  let pairs =
    Array.init 14 (fun i ->
        let n = 20 + (3 * i) in
        ( Dphls_alphabet.Dna.to_string (Dphls_alphabet.Dna.random rng n),
          Dphls_alphabet.Dna.to_string (Dphls_alphabet.Dna.random rng (n + 5 - i)) ))
  in
  let ws =
    Array.map
      (fun (q, r) ->
        Dphls_core.Workload.of_bases ~query:(Dphls_alphabet.Dna.of_string q)
          ~reference:(Dphls_alphabet.Dna.of_string r))
      pairs
  in
  let kind = Batch.Global_affine in
  List.iter
    (fun (engine : Align.engine) ->
      let name = Engines.choice_name engine in
      let expected = Batch.align_all ~engine ~kind ~workers:1 pairs in
      List.iter
        (fun workers ->
          let results, _, _ = Batch.align_all_overlap_report ~engine ~kind ~workers pairs in
          Alcotest.(check bool)
            (Printf.sprintf "%s, %d workers: results == align_all" name workers)
            true (digest results = digest expected))
        [ 1; 3 ];
      let cycles =
        Array.of_list
          (List.filter_map
             (fun (r : Engines.ran) -> r.Engines.cycles)
             (Array.to_list (Engines.run_batch engine K02.kernel K02.default ws)))
      in
      let _, _, stats = Batch.align_all_overlap_report ~engine ~kind ~workers:1 pairs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: batch stats == batch_stats_of ~overlap:true" name)
        true
        (stats = Sim.batch_stats_of ~overlap:true cycles);
      Alcotest.(check bool)
        (Printf.sprintf "%s: hidden cycles only with a cycle model" name)
        (engine <> Align.Golden) (stats.Sim.hidden_cycles > 0);
      let _, _, stats = Batch.align_all_overlap_report ~engine ~kind ~workers:3 pairs in
      let per_slice =
        Array.fold_left
          (fun (acc : Sim.batch_stats) slice ->
            let b = Sim.batch_stats_of ~overlap:true slice in
            {
              alignments = acc.alignments + b.alignments;
              seq_cycles = acc.seq_cycles + b.seq_cycles;
              overlapped_cycles = acc.overlapped_cycles + b.overlapped_cycles;
              hidden_cycles = acc.hidden_cycles + b.hidden_cycles;
            })
          { alignments = 0; seq_cycles = 0; overlapped_cycles = 0; hidden_cycles = 0 }
          (Dphls_host.Pool.slices 3 cycles)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s, 3 workers: batch stats == per-slice sums" name)
        true (stats = per_slice))
    [ Align.Golden; Align.Systolic 16; Align.Auto 16 ]

(* A 1-worker batch runs on the calling domain, so the golden engine's
   per-domain ring and traceback plane outlive the call: a fresh domain
   retains them after one call, and a second identical call allocates
   less than one 64 x 64 plane (8 KiB). *)
let test_one_worker_keeps_buffers () =
  let rng = Rng.create 64 in
  let dna () = Dphls_alphabet.Dna.to_string (Dphls_alphabet.Dna.random rng 64) in
  let pairs = [| (dna (), dna ()) |] in
  let plane_words = 2 * 64 * 64 / (Sys.word_size / 8) in
  Domain.join
    (Domain.spawn (fun () ->
         let first = Batch.align_all ~workers:1 pairs in
         Alcotest.(check bool) "buffers retained on the calling domain" true
           (Dphls_reference.Ref_engine.retained_bytes () > 0);
         Gc.full_major ();
         let minor0, promoted0, major0 = Gc.counters () in
         let second = Batch.align_all ~workers:1 pairs in
         let minor1, promoted1, major1 = Gc.counters () in
         let words =
           int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
         in
         Alcotest.(check bool) "same answers" true (first = second);
         Alcotest.(check bool)
           (Printf.sprintf "second call allocates %d words < one plane (%d)" words plane_words)
           true (words < plane_words)))

let suite =
  [
    qtest prop_worker_count_invariance;
    Alcotest.test_case "ordering under shuffled costs" `Quick
      test_ordering_shuffled_costs;
    Alcotest.test_case "differential vs single call" `Quick
      test_differential_vs_single_call;
    Alcotest.test_case "protein kind" `Quick test_protein_kind;
    Alcotest.test_case "iter fasta file" `Quick test_iter_fasta_file;
    Alcotest.test_case "odd fasta rejected" `Quick test_odd_fasta_rejected;
    Alcotest.test_case "pairs before a fault are answered" `Quick
      test_pairs_before_fault_answered;
    Alcotest.test_case "scaling points" `Quick test_scaling_points;
    Alcotest.test_case "overlap report: slices == align_all" `Quick
      test_overlap_report;
    Alcotest.test_case "1 worker keeps the golden buffers" `Quick
      test_one_worker_keeps_buffers;
  ]
