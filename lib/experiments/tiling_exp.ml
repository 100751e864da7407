open Dphls_core
module B = Dphls_baselines
module K2 = Dphls_kernels.K02_global_affine

type result = {
  read_length : int;
  tiles : int;
  exact_score : int;
  tiled_score : int;
  score_recovery : float;
  dphls_cycles : int;
  gact_cycles : int;
  relative_throughput : float;
}

let compute ?(read_length = 2048) ?(seed = Common.default_seed) () =
  let rng = Dphls_util.Rng.create seed in
  let genome = Dphls_seqgen.Dna_gen.genome rng (read_length * 2) in
  let reads =
    Dphls_seqgen.Read_sim.simulate rng ~genome
      ~profile:(Dphls_seqgen.Read_sim.scaled Dphls_seqgen.Read_sim.pacbio_30 0.15)
      ~read_length ~count:1
  in
  let read = List.hd reads in
  let query_b, reference_b = Dphls_seqgen.Read_sim.pair_for_alignment read in
  let p = K2.default in
  let exact_score =
    B.Gact_rtl.score ~match_:p.K2.match_ ~mismatch:p.K2.mismatch
      ~gap_open:p.K2.gap_open ~gap_extend:p.K2.gap_extend ~query:query_b
      ~reference:reference_b
  in
  let query = Types.seq_of_bases query_b and reference = Types.seq_of_bases reference_b in
  let run_tile =
    Dphls_systolic.Engine.tile_runner
      (Dphls_systolic.Config.create ~n_pe:32)
      K2.kernel p
  in
  let outcome = Dphls_tiling.Tiling.align Dphls_tiling.Tiling.default ~run:run_tile
      ~query ~reference
  in
  let tiled_score =
    Rescore.affine
      ~sub:(fun q r -> if q.(0) = r.(0) then p.K2.match_ else p.K2.mismatch)
      ~gap_open:p.K2.gap_open ~gap_extend:p.K2.gap_extend ~query ~reference
      ~start_row:0 ~start_col:0 outcome.Dphls_tiling.Tiling.path
  in
  let dphls_cycles =
    List.fold_left (fun acc (_, _, c) -> acc + c) 0 outcome.Dphls_tiling.Tiling.tile_stats
  in
  (* GACT runs the same tiles with the overlapped-RTL cycle model; its
     per-tile traceback length is about one tile edge. *)
  let gact_cycles =
    List.fold_left
      (fun acc (tq, tr, _) ->
        let m = B.Gact_rtl.cycles ~n_pe:32 ~qry_len:tq ~ref_len:tr ~tb_steps:(max tq tr) in
        acc + m.B.Rtl_model.total)
      0 outcome.Dphls_tiling.Tiling.tile_stats
  in
  {
    read_length;
    tiles = outcome.Dphls_tiling.Tiling.tiles;
    exact_score;
    tiled_score;
    score_recovery = float_of_int tiled_score /. float_of_int (max 1 exact_score);
    dphls_cycles;
    gact_cycles;
    relative_throughput = float_of_int gact_cycles /. float_of_int dphls_cycles;
  }

let run ?read_length () =
  let r = compute ?read_length () in
  Dphls_util.Pretty.print_table
    ~title:"Tiling — long-read global affine alignment via GACT-style tiles (kernel #2)"
    ~header:
      [ "read len"; "tiles"; "exact score"; "tiled score"; "recovery";
        "dphls cyc"; "gact cyc"; "rel tp" ]
    [
      [
        string_of_int r.read_length;
        string_of_int r.tiles;
        string_of_int r.exact_score;
        string_of_int r.tiled_score;
        Printf.sprintf "%.4f" r.score_recovery;
        string_of_int r.dphls_cycles;
        string_of_int r.gact_cycles;
        Dphls_util.Pretty.ratio r.relative_throughput;
      ];
    ]
