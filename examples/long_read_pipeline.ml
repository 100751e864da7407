(* The §6.1 evaluation protocol end-to-end, scaled for a quick run:
   simulate PacBio-like reads from a synthetic genome, align each one
   globally against its source window through GACT-style tiling on
   kernel #2, and report alignment quality plus the aggregate device
   throughput estimate at the Table 2 configuration.

   (The paper uses 1,000 reads x 10,000 bases at 30 % error; this demo
   runs 20 reads x 1,500 bases at 15 % so it finishes in seconds — pass
   the same machinery larger numbers for the full protocol.)

   Run with:  dune exec examples/long_read_pipeline.exe *)

open Dphls_core
module K2 = Dphls_kernels.K02_global_affine

let n_reads = 20
let read_length = 1500

let () =
  let rng = Dphls_util.Rng.create 2026 in
  let genome = Dphls_seqgen.Dna_gen.genome rng (read_length * 8) in
  let reads =
    Dphls_seqgen.Read_sim.simulate rng ~genome
      ~profile:(Dphls_seqgen.Read_sim.scaled Dphls_seqgen.Read_sim.pacbio_30 0.15)
      ~read_length ~count:n_reads
  in
  Printf.printf "simulated %d reads of ~%d bases (15%% error)\n%!" n_reads read_length;

  let p = K2.default in
  let run_tile =
    Dphls_systolic.Engine.tile_runner
      (Dphls_systolic.Config.create ~n_pe:32)
      K2.kernel p
  in
  let total_cycles = ref 0 in
  let total_tiles = ref 0 in
  let exact_recovered = ref 0 in
  let identities = ref [] in
  List.iter
    (fun (r : Dphls_seqgen.Read_sim.read) ->
      let qb, rb = Dphls_seqgen.Read_sim.pair_for_alignment r in
      let query = Types.seq_of_bases qb and reference = Types.seq_of_bases rb in
      let outcome =
        Dphls_tiling.Tiling.align Dphls_tiling.Tiling.default ~run:run_tile ~query
          ~reference
      in
      total_tiles := !total_tiles + outcome.Dphls_tiling.Tiling.tiles;
      total_cycles :=
        !total_cycles
        + List.fold_left (fun a (_, _, c) -> a + c) 0 outcome.Dphls_tiling.Tiling.tile_stats;
      let tiled_score =
        Rescore.affine
          ~sub:(fun q c -> if q.(0) = c.(0) then p.K2.match_ else p.K2.mismatch)
          ~gap_open:p.K2.gap_open ~gap_extend:p.K2.gap_extend ~query ~reference
          ~start_row:0 ~start_col:0 outcome.Dphls_tiling.Tiling.path
      in
      let exact =
        Dphls_baselines.Gact_rtl.score ~match_:p.K2.match_ ~mismatch:p.K2.mismatch
          ~gap_open:p.K2.gap_open ~gap_extend:p.K2.gap_extend ~query:qb ~reference:rb
      in
      if tiled_score = exact then incr exact_recovered;
      let s =
        Alignment_view.stats ~query ~reference ~start_row:0 ~start_col:0
          outcome.Dphls_tiling.Tiling.path
      in
      identities := s.Alignment_view.identity :: !identities)
    reads;

  Printf.printf "tiles executed        : %d (%d per read avg)\n" !total_tiles
    (!total_tiles / n_reads);
  Printf.printf "optimal score exactly recovered on %d/%d reads\n" !exact_recovered
    n_reads;
  Printf.printf "mean alignment identity: %.1f%%\n"
    (100.0 *. Dphls_util.Stats.mean (Array.of_list !identities));
  let per_alignment = float_of_int !total_cycles /. float_of_int n_reads in
  Printf.printf "device work           : %.0f cycles/read\n" per_alignment;
  let throughput =
    Dphls_host.Throughput.alignments_per_sec ~cycles_per_alignment:per_alignment
      ~freq_mhz:250.0 ~n_b:16 ~n_k:4
  in
  Printf.printf "device estimate at (32,16,4), 250 MHz: %s long-read alignments/s\n"
    (Dphls_util.Pretty.sci throughput)
