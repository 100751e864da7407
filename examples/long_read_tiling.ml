(* Long-read alignment with GACT-style tiling (paper contribution 5).

   A simulated 2 kb PacBio read is aligned globally against its genome
   window with kernel #2, even though the FPGA kernel only supports
   256-base tiles: the host stitches tile tracebacks, and we verify the
   stitched score against the exact full-matrix score.

   Run with:  dune exec examples/long_read_tiling.exe *)

open Dphls_core
module K2 = Dphls_kernels.K02_global_affine

let read_length = 2048

let () =
  let rng = Dphls_util.Rng.create 11 in
  let genome = Dphls_seqgen.Dna_gen.genome rng (read_length * 2) in
  let reads =
    Dphls_seqgen.Read_sim.simulate rng ~genome
      ~profile:(Dphls_seqgen.Read_sim.scaled Dphls_seqgen.Read_sim.pacbio_30 0.15)
      ~read_length ~count:1
  in
  let read = List.hd reads in
  let query_b, reference_b = Dphls_seqgen.Read_sim.pair_for_alignment read in
  Printf.printf "read: %d bases vs window of %d bases (15%% error)\n"
    (Array.length query_b) (Array.length reference_b);

  let p = K2.default in
  let run_tile =
    Dphls_systolic.Engine.tile_runner
      (Dphls_systolic.Config.create ~n_pe:32)
      K2.kernel p
  in
  let query = Types.seq_of_bases query_b in
  let reference = Types.seq_of_bases reference_b in
  let outcome =
    Dphls_tiling.Tiling.align Dphls_tiling.Tiling.default ~run:run_tile ~query
      ~reference
  in
  let tiled_score =
    Rescore.affine
      ~sub:(fun q r -> if q.(0) = r.(0) then p.K2.match_ else p.K2.mismatch)
      ~gap_open:p.K2.gap_open ~gap_extend:p.K2.gap_extend ~query ~reference
      ~start_row:0 ~start_col:0 outcome.Dphls_tiling.Tiling.path
  in
  let exact =
    Dphls_baselines.Gact_rtl.score ~match_:p.K2.match_ ~mismatch:p.K2.mismatch
      ~gap_open:p.K2.gap_open ~gap_extend:p.K2.gap_extend ~query:query_b
      ~reference:reference_b
  in
  let cycles =
    List.fold_left (fun acc (_, _, c) -> acc + c) 0 outcome.Dphls_tiling.Tiling.tile_stats
  in
  Printf.printf "tiles       : %d (tile=256, overlap=32)\n"
    outcome.Dphls_tiling.Tiling.tiles;
  Printf.printf "tiled score : %d\n" tiled_score;
  Printf.printf "exact score : %d\n" exact;
  Printf.printf "recovery    : %.4f\n"
    (float_of_int tiled_score /. float_of_int exact);
  Printf.printf "device work : %d cycles over all tiles (%.1f us at 250 MHz)\n"
    cycles
    (float_of_int cycles /. 250.0)
