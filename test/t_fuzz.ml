(* Deeper fuzzing: known-answer vectors, random scoring parameters (not
   just the defaults) driven through both engines and the independent
   baselines, and degenerate input shapes. *)
open Dphls_core
module Score = Dphls_util.Score
module B = Dphls_baselines

let qtest = QCheck_alcotest.to_alcotest

(* SplitMix64 reference vectors (Steele et al.; seed 0 is the canonical
   published sequence). Pins the generator: every workload in the
   repository depends on this stream. *)
let test_splitmix64_vectors () =
  let rng = Dphls_util.Rng.create 0 in
  List.iter
    (fun expect -> Alcotest.(check int64) "seed 0 stream" expect (Dphls_util.Rng.int64 rng))
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL; 0xf88bb8a8724c81ecL ];
  let rng2 = Dphls_util.Rng.create 12345 in
  List.iter
    (fun expect -> Alcotest.(check int64) "seed 12345 stream" expect (Dphls_util.Rng.int64 rng2))
    [ 0x22118258a9d111a0L; 0x346edce5f713f8edL; 0x1e9a57bc80e6721dL; 0x2d160e7e5c3f42caL ]

let random_pair rng =
  let q = Dphls_alphabet.Dna.random rng (1 + Dphls_util.Rng.int rng 36) in
  let r = Dphls_alphabet.Dna.random rng (1 + Dphls_util.Rng.int rng 36) in
  (q, r)

(* Random linear parameters: engines and the independent baseline must
   agree for ANY (sane) scoring, not just the defaults. *)
let prop_k01_random_params =
  QCheck.Test.make ~name:"#1 random params: engines == baseline" ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Dphls_util.Rng.create seed in
      let match_ = Dphls_util.Rng.int_in rng 1 5 in
      let mismatch = -Dphls_util.Rng.int_in rng 1 5 in
      let gap = -Dphls_util.Rng.int_in rng 1 5 in
      let p = { Dphls_kernels.K01_global_linear.match_; mismatch; gap } in
      let q, r = random_pair rng in
      let w = Workload.of_bases ~query:q ~reference:r in
      let k = Dphls_kernels.K01_global_linear.kernel in
      let gold = Dphls_reference.Ref_engine.run k p w in
      let sys, _ =
        Dphls_systolic.Engine.run
          (Dphls_systolic.Config.create ~n_pe:(1 + Dphls_util.Rng.int rng 12))
          k p w
      in
      let base =
        B.Seqan_like.score
          (B.Seqan_like.dna_scoring ~match_ ~mismatch ~gap:(B.Seqan_like.Linear gap)
             ~mode:B.Seqan_like.Global)
          ~query:q ~reference:r
      in
      Result.equal_alignment gold sys && gold.Result.score = base)

let prop_k02_random_params =
  QCheck.Test.make ~name:"#2 random affine params: engines == baseline" ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Dphls_util.Rng.create (seed + 7) in
      let match_ = Dphls_util.Rng.int_in rng 1 4 in
      let mismatch = -Dphls_util.Rng.int_in rng 1 6 in
      let gap_open = -Dphls_util.Rng.int_in rng 0 8 in
      let gap_extend = -Dphls_util.Rng.int_in rng 1 4 in
      let p = { Dphls_kernels.K02_global_affine.match_; mismatch; gap_open; gap_extend } in
      let q, r = random_pair rng in
      let w = Workload.of_bases ~query:q ~reference:r in
      let k = Dphls_kernels.K02_global_affine.kernel in
      let gold = Dphls_reference.Ref_engine.run k p w in
      let sys, _ =
        Dphls_systolic.Engine.run (Dphls_systolic.Config.create ~n_pe:8) k p w
      in
      let base =
        B.Seqan_like.score
          (B.Seqan_like.dna_scoring ~match_ ~mismatch
             ~gap:(B.Seqan_like.Affine { open_ = gap_open; extend = gap_extend })
             ~mode:B.Seqan_like.Global)
          ~query:q ~reference:r
      in
      Result.equal_alignment gold sys && gold.Result.score = base)

let prop_k05_random_params =
  QCheck.Test.make ~name:"#5 random two-piece params: engines == baseline" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Dphls_util.Rng.create (seed + 13) in
      let match_ = 2 and mismatch = -Dphls_util.Rng.int_in rng 2 6 in
      let open1 = -Dphls_util.Rng.int_in rng 2 8 in
      let extend1 = -Dphls_util.Rng.int_in rng 2 4 in
      let open2 = -Dphls_util.Rng.int_in rng 10 30 in
      let extend2 = -1 in
      let p =
        {
          Dphls_kernels.K05_global_two_piece.match_;
          mismatch;
          gaps = { Dphls_kernels.Two_piece_rec.open1; extend1; open2; extend2 };
        }
      in
      let q, r = random_pair rng in
      let w = Workload.of_bases ~query:q ~reference:r in
      let k = Dphls_kernels.K05_global_two_piece.kernel in
      let gold = Dphls_reference.Ref_engine.run k p w in
      let sys, _ =
        Dphls_systolic.Engine.run (Dphls_systolic.Config.create ~n_pe:8) k p w
      in
      let base =
        B.Minimap2_like.score
          { B.Minimap2_like.match_; mismatch; open1; extend1; open2; extend2 }
          ~query:q ~reference:r
      in
      Result.equal_alignment gold sys && gold.Result.score = base)

(* Degenerate shapes: single characters and extreme aspect ratios. *)
let test_degenerate_shapes () =
  List.iter
    (fun id ->
      let e = Dphls_kernels.Catalog.find id in
      let (Registry.Packed (k, p)) = e.packed in
      List.iter
        (fun (qlen, rlen) ->
          let rng = Dphls_util.Rng.create (id + qlen + rlen) in
          let w =
            Workload.of_bases
              ~query:(Dphls_alphabet.Dna.random rng qlen)
              ~reference:(Dphls_alphabet.Dna.random rng rlen)
          in
          let gold = Dphls_reference.Ref_engine.run k p w in
          let sys, _ =
            Dphls_systolic.Engine.run (Dphls_systolic.Config.create ~n_pe:4) k p w
          in
          Alcotest.(check bool)
            (Printf.sprintf "#%d %dx%d" id qlen rlen)
            true
            (Result.equal_alignment gold sys))
        [ (1, 1); (1, 30); (30, 1); (2, 29); (64, 3) ])
    [ 1; 2; 3; 4; 5; 6; 7 ]

(* All-identical and fully-disjoint sequences have closed-form optima. *)
let test_closed_form_extremes () =
  let k = Dphls_kernels.K01_global_linear.kernel in
  let p = Dphls_kernels.K01_global_linear.default in
  let same = Array.make 20 0 in
  let w = Workload.of_bases ~query:same ~reference:same in
  Alcotest.(check int) "identical: n*match" (20 * 2)
    (Dphls_reference.Ref_engine.run k p w).Result.score;
  let a = Array.make 15 0 and c = Array.make 15 1 in
  let w2 = Workload.of_bases ~query:a ~reference:c in
  (* mismatch (-2) == 2 gaps; mismatching straight through is optimal *)
  Alcotest.(check int) "disjoint: n*mismatch" (15 * -2)
    (Dphls_reference.Ref_engine.run k p w2).Result.score

(* Affine FSM transition table, exhaustively over all 16 pointers. *)
let test_affine_fsm_table () =
  let fsm = Dphls_kernels.Kdefs.Affine.fsm in
  (* state H: source bits decide *)
  for ext_bits = 0 to 3 do
    let base = ext_bits lsl 2 in
    Alcotest.(check bool) "H + diag" true
      (fsm.Traceback.transition 0 ~ptr:(base lor 0) = (0, Traceback.Diag));
    Alcotest.(check bool) "H + del -> Stay into D" true
      (fsm.Traceback.transition 0 ~ptr:(base lor 1) = (1, Traceback.Stay));
    Alcotest.(check bool) "H + ins -> Stay into I" true
      (fsm.Traceback.transition 0 ~ptr:(base lor 2) = (2, Traceback.Stay));
    Alcotest.(check bool) "H + end -> Stop" true
      (snd (fsm.Traceback.transition 0 ~ptr:(base lor 3)) = Traceback.Stop)
  done;
  (* state D: extension bit decides; always moves Up *)
  for ptr = 0 to 15 do
    let st, mv = fsm.Traceback.transition 1 ~ptr in
    Alcotest.(check bool) "D moves up" true (mv = Traceback.Up);
    Alcotest.(check int) "D next state" (if ptr land 4 <> 0 then 1 else 0) st;
    let st_i, mv_i = fsm.Traceback.transition 2 ~ptr in
    Alcotest.(check bool) "I moves left" true (mv_i = Traceback.Left);
    Alcotest.(check int) "I next state" (if ptr land 8 <> 0 then 2 else 0) st_i
  done

(* Two-piece FSM: all five states behave per the encoding. *)
let test_two_piece_fsm_table () =
  let fsm = Dphls_kernels.Kdefs.Two_piece.fsm in
  List.iter
    (fun (src, expect_state, expect_move) ->
      let st, mv = fsm.Traceback.transition 0 ~ptr:src in
      Alcotest.(check int) "H source state" expect_state st;
      Alcotest.(check bool) "H source move" true (mv = expect_move))
    [
      (0, 0, Traceback.Diag); (1, 1, Traceback.Stay); (2, 2, Traceback.Stay);
      (3, 3, Traceback.Stay); (4, 4, Traceback.Stay);
    ];
  List.iter
    (fun (state, ext_bit, move) ->
      let extending = fsm.Traceback.transition state ~ptr:(1 lsl ext_bit) in
      let opening = fsm.Traceback.transition state ~ptr:0 in
      Alcotest.(check bool) "extension keeps state" true (extending = (state, move));
      Alcotest.(check bool) "open returns to H" true (opening = (0, move)))
    [
      (1, 3, Traceback.Up); (2, 4, Traceback.Left); (3, 5, Traceback.Up);
      (4, 6, Traceback.Left);
    ]

(* Random-parameter differential fuzzing routed through the batch API:
   the parallel path must inherit every oracle the single-call path
   already satisfies — batched results equal per-pair single calls on a
   random engine/kind/worker-count, and for the global kind the score
   also equals the independent SeqAn-like baseline at the kernel #1
   default parameters. *)
let prop_batch_differential =
  QCheck.Test.make ~name:"batch API: parallel path == single-call oracle"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Dphls_util.Rng.create (seed + 31) in
      let n = 1 + Dphls_util.Rng.int rng 12 in
      let raw = Array.init n (fun _ -> random_pair rng) in
      let pairs =
        Array.map
          (fun (q, r) ->
            (Dphls_alphabet.Dna.to_string q, Dphls_alphabet.Dna.to_string r))
          raw
      in
      let workers = 1 + Dphls_util.Rng.int rng 5 in
      let kind =
        Dphls_util.Rng.choice rng
          [|
            Dphls.Batch.Global; Dphls.Batch.Global_affine; Dphls.Batch.Local;
            Dphls.Batch.Semi_global;
          |]
      in
      let engine =
        if Dphls_util.Rng.bool rng then Dphls.Align.Golden
        else Dphls.Align.Systolic (1 + Dphls_util.Rng.int rng 12)
      in
      let batched = Dphls.Batch.align_all ~engine ~kind ~workers pairs in
      let solo_ok =
        Array.for_all
          (fun i ->
            let query, reference = pairs.(i) in
            batched.(i) = fst (Dphls.Align.run ~engine kind ~query ~reference))
          (Array.init n (fun i -> i))
      in
      let baseline_ok =
        kind <> Dphls.Batch.Global
        || Array.for_all
             (fun i ->
               let q, r = raw.(i) in
               let d = Dphls_kernels.K01_global_linear.default in
               batched.(i).Dphls.Align.score
               = B.Seqan_like.score
                   (B.Seqan_like.dna_scoring
                      ~match_:d.Dphls_kernels.K01_global_linear.match_
                      ~mismatch:d.Dphls_kernels.K01_global_linear.mismatch
                      ~gap:(B.Seqan_like.Linear d.Dphls_kernels.K01_global_linear.gap)
                      ~mode:B.Seqan_like.Global)
                   ~query:q ~reference:r)
             (Array.init n (fun i -> i))
      in
      solo_ok && baseline_ok)

(* Adaptive banding (kernels #16-#18): the band window is decided per
   wavefront from run-time scores, so the differential oracle is the
   strongest check we have — the golden engine replaying the systolic
   engine's N_PE-row chunking must prune the IDENTICAL cell set and
   produce the identical alignment. *)
let prop_adaptive_differential id =
  QCheck.Test.make
    ~name:(Printf.sprintf "adaptive kernel #%d systolic == golden (chunk-exact)" id)
    ~count:60
    QCheck.(pair (int_range 8 72) (int_range 1 16))
    (fun (len, n_pe) ->
      let e = Dphls_kernels.Catalog.find id in
      let (Registry.Packed (k, p)) = e.packed in
      let rng = Dphls_util.Rng.create ((id * 4099) + (len * 17) + n_pe) in
      let w = e.Dphls_kernels.Catalog.gen rng ~len in
      let gold = Dphls_reference.Ref_engine.run ~band_pe:n_pe k p w in
      let sys, _ =
        Dphls_systolic.Engine.run (Dphls_systolic.Config.create ~n_pe) k p w
      in
      Result.equal_alignment gold sys)

(* Fixed vs adaptive score loss on a drifting long-read workload, with
   X-Drop as the accuracy yardstick (same role as in the ablation).
   Margins are calibrated against the default-threshold behavior: the
   adaptive band recovers >= 85% of the unbanded optimum while computing
   strictly fewer cells than the fixed band of the same width. *)
let test_adaptive_score_loss () =
  let module K11 = Dphls_kernels.K11_banded_global_linear in
  let len = 256 and n_pe = 32 and bandwidth = 32 in
  let rng = Dphls_util.Rng.create 2026 in
  let w = K11.gen_drift rng ~len in
  let p = K11.default in
  let cfg = Dphls_systolic.Config.create ~n_pe in
  let unbanded, _ =
    Dphls_systolic.Engine.run cfg { K11.kernel with Kernel.banding = None } p w
  in
  let fixed, f_stats = Dphls_systolic.Engine.run cfg (K11.kernel_with ~bandwidth) p w in
  let adaptive, a_stats =
    Dphls_systolic.Engine.run cfg
      (K11.adaptive_with ~bandwidth ~threshold:Banding.default_threshold)
      p w
  in
  let query = Types.bases_of_seq w.Workload.query
  and reference = Types.bases_of_seq w.Workload.reference in
  let xdrop =
    B.Xdrop.align ~match_:p.K11.match_ ~mismatch:p.mismatch ~gap_open:0
      ~gap_extend:p.gap ~x:Banding.default_threshold ~query ~reference
  in
  let frac a b = float_of_int a /. float_of_int (max 1 (abs b)) in
  Alcotest.(check bool) "fixed recovers the optimum here" true
    (fixed.Result.score = unbanded.Result.score);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive >= 85%% of unbanded (%d vs %d)"
       adaptive.Result.score unbanded.Result.score)
    true
    (frac adaptive.Result.score unbanded.Result.score >= 0.85);
  Alcotest.(check bool) "adaptive within x-drop's reach" true
    (frac adaptive.Result.score xdrop.B.Xdrop.score >= 0.85);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive computes fewer cells (%d vs %d)"
       a_stats.Dphls_systolic.Engine.pe_fires f_stats.Dphls_systolic.Engine.pe_fires)
    true
    (a_stats.Dphls_systolic.Engine.pe_fires < f_stats.Dphls_systolic.Engine.pe_fires)

(* Scheduler lower bounds as properties. *)
let prop_scheduler_bounds =
  QCheck.Test.make ~name:"scheduler makespan respects lower bounds" ~count:100
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.int_range 1 20)
           (triple (int_range 0 20) (int_range 1 200) (int_range 0 20))))
    (fun (n_b, jobs) ->
      let jobs =
        List.map
          (fun (i, c, o) ->
            { Dphls_host.Scheduler.transfer_in = i; compute = c; transfer_out = o })
          jobs
      in
      let r = Dphls_host.Scheduler.run_channel ~n_b jobs in
      let total_compute =
        List.fold_left (fun a j -> a + j.Dphls_host.Scheduler.compute) 0 jobs
      in
      let total_transfer =
        List.fold_left
          (fun a j ->
            a + j.Dphls_host.Scheduler.transfer_in + j.Dphls_host.Scheduler.transfer_out)
          0 jobs
      in
      (* arbiter serialization and per-block compute are both hard floors *)
      r.Dphls_host.Scheduler.makespan >= total_transfer
      && r.Dphls_host.Scheduler.makespan >= (total_compute + n_b - 1) / n_b
      && r.Dphls_host.Scheduler.arbiter_busy = total_transfer
      && r.Dphls_host.Scheduler.block_busy = total_compute)

let suite =
  [
    Alcotest.test_case "splitmix64 reference vectors" `Quick test_splitmix64_vectors;
    qtest prop_k01_random_params;
    qtest prop_k02_random_params;
    qtest prop_k05_random_params;
    Alcotest.test_case "degenerate shapes" `Quick test_degenerate_shapes;
    Alcotest.test_case "closed-form extremes" `Quick test_closed_form_extremes;
    Alcotest.test_case "affine FSM table" `Quick test_affine_fsm_table;
    Alcotest.test_case "two-piece FSM table" `Quick test_two_piece_fsm_table;
    qtest prop_scheduler_bounds;
    qtest prop_batch_differential;
    qtest (prop_adaptive_differential 16);
    qtest (prop_adaptive_differential 17);
    qtest (prop_adaptive_differential 18);
    Alcotest.test_case "adaptive vs fixed score loss" `Quick test_adaptive_score_loss;
  ]
