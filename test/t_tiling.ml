(* Tests for GACT-style tiling. *)
open Dphls_core
module Tiling = Dphls_tiling.Tiling
module K2 = Dphls_kernels.K02_global_affine

let run_tile =
  Dphls_systolic.Engine.tile_runner (Dphls_systolic.Config.create ~n_pe:8)
    K2.kernel K2.default

let exact_score qb rb =
  let p = K2.default in
  Dphls_baselines.Gact_rtl.score ~match_:p.K2.match_ ~mismatch:p.K2.mismatch
    ~gap_open:p.K2.gap_open ~gap_extend:p.K2.gap_extend ~query:qb ~reference:rb

let tiled_score cfg qb rb =
  let query = Types.seq_of_bases qb and reference = Types.seq_of_bases rb in
  let outcome = Tiling.align cfg ~run:run_tile ~query ~reference in
  let p = K2.default in
  let score =
    Rescore.affine
      ~sub:(fun q r -> if q.(0) = r.(0) then p.K2.match_ else p.K2.mismatch)
      ~gap_open:p.K2.gap_open ~gap_extend:p.K2.gap_extend ~query ~reference
      ~start_row:0 ~start_col:0 outcome.Tiling.path
  in
  (score, outcome)

let test_config_validation () =
  Alcotest.(check bool) "overlap >= tile rejected" true
    (try
       ignore
         (Tiling.align { Tiling.tile = 16; overlap = 16 } ~run:run_tile
            ~query:(Types.seq_of_bases [| 0 |])
            ~reference:(Types.seq_of_bases [| 0 |]));
       false
     with Invalid_argument _ -> true)

let test_single_tile_is_exact () =
  let rng = Dphls_util.Rng.create 201 in
  let rb = Dphls_alphabet.Dna.random rng 48 in
  let qb = Dphls_seqgen.Dna_gen.mutate_point rng rb ~rate:0.1 in
  let score, outcome = tiled_score { Tiling.tile = 64; overlap = 8 } qb rb in
  Alcotest.(check int) "one tile" 1 outcome.Tiling.tiles;
  Alcotest.(check int) "exact" (exact_score qb rb) score

let test_multi_tile_recovers_exact_score () =
  (* low-error reads: tiling with decent overlap recovers the optimum *)
  for seed = 1 to 8 do
    let rng = Dphls_util.Rng.create (300 + seed) in
    let genome = Dphls_seqgen.Dna_gen.genome rng 1024 in
    let read =
      List.hd
        (Dphls_seqgen.Read_sim.simulate rng ~genome
           ~profile:(Dphls_seqgen.Read_sim.scaled Dphls_seqgen.Read_sim.pacbio_30 0.08)
           ~read_length:400 ~count:1)
    in
    let qb, rb = Dphls_seqgen.Read_sim.pair_for_alignment read in
    let score, outcome = tiled_score { Tiling.tile = 128; overlap = 24 } qb rb in
    let exact = exact_score qb rb in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: multiple tiles" seed)
      true
      (outcome.Tiling.tiles >= 3);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: recovery >= 98%%" seed)
      true
      (float_of_int score >= 0.98 *. float_of_int exact)
  done

let test_path_consumes_everything () =
  let rng = Dphls_util.Rng.create 401 in
  let rb = Dphls_alphabet.Dna.random rng 300 in
  let qb = Dphls_seqgen.Dna_gen.mutate_point rng rb ~rate:0.1 in
  let _, outcome = tiled_score { Tiling.tile = 100; overlap = 20 } qb rb in
  let q, r =
    List.fold_left
      (fun (q, r) (op : Traceback.op) ->
        match op with Mmi -> (q + 1, r + 1) | Ins -> (q, r + 1) | Del -> (q + 1, r))
      (0, 0) outcome.Tiling.path
  in
  Alcotest.(check int) "query consumed" 300 q;
  Alcotest.(check int) "reference consumed" 300 r

let test_unequal_lengths () =
  let rng = Dphls_util.Rng.create 402 in
  let rb = Dphls_alphabet.Dna.random rng 220 in
  let qb = Dphls_alphabet.Dna.random rng 100 in
  let _, outcome = tiled_score { Tiling.tile = 64; overlap = 8 } qb rb in
  let q, r =
    List.fold_left
      (fun (q, r) (op : Traceback.op) ->
        match op with Mmi -> (q + 1, r + 1) | Ins -> (q, r + 1) | Del -> (q + 1, r))
      (0, 0) outcome.Tiling.path
  in
  Alcotest.(check bool) "full consumption despite skew" true (q = 100 && r = 220)

let test_tile_stats_recorded () =
  let rng = Dphls_util.Rng.create 403 in
  let rb = Dphls_alphabet.Dna.random rng 256 in
  let qb = Dphls_seqgen.Dna_gen.mutate_point rng rb ~rate:0.05 in
  let _, outcome = tiled_score { Tiling.tile = 100; overlap = 16 } qb rb in
  Alcotest.(check int) "one stat per tile" outcome.Tiling.tiles
    (List.length outcome.Tiling.tile_stats);
  List.iter
    (fun (tq, tr, cycles) ->
      Alcotest.(check bool) "dims bounded" true (tq <= 100 && tr <= 100);
      Alcotest.(check bool) "cycles positive" true (cycles > 0))
    outcome.Tiling.tile_stats

let suite =
  [
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "single tile exact" `Quick test_single_tile_is_exact;
    Alcotest.test_case "multi-tile recovery" `Slow test_multi_tile_recovers_exact_score;
    Alcotest.test_case "path consumes everything" `Quick test_path_consumes_everything;
    Alcotest.test_case "unequal lengths" `Quick test_unequal_lengths;
    Alcotest.test_case "tile stats" `Quick test_tile_stats_recorded;
  ]
