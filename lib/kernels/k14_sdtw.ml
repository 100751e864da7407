open Dphls_core
module Score = Dphls_util.Score

type params = unit

let default = ()

let bindings () = { Datapath.params = []; tables = [] }

let kernel =
  {
    Kernel.id = 14;
    name = "sdtw";
    description = "Semi-global DTW over integer squiggle samples (score only)";
    objective = Score.Minimize;
    n_layers = 1;
    score_bits = 24;
    tb_bits = 0;
    (* Free start anywhere along the reference; query consumed fully. *)
    init_row = (fun () ~ref_len:_ ~layer:_ ~col:_ -> 0);
    init_col = (fun () ~qry_len:_ ~layer:_ ~row:_ -> Score.pos_inf);
    origin = (fun () ~layer:_ -> 0);
    datapath = (fun p -> (Cells.sdtw_cell, bindings p));
    score_site = Traceback.Last_row_best;
    traceback = (fun () -> None);
    banding = None;
    traits =
      {
        Traits.adds_per_pe = 2;
        muls_per_pe = 0;
        cmps_per_pe = 4;
        ii = 1;
        logic_depth = 4;
        char_bits = 8;
        param_bits = 0;
      };
  }

let squiggle_pair rng ~len ~dna =
  let reference = Dphls_seqgen.Signal_gen.reference_levels dna in
  let fragment_start = Dphls_util.Rng.int rng (max 1 (Array.length dna / 2)) in
  let fragment_len = max 8 (len / 2) in
  let fragment =
    Array.init fragment_len (fun i -> dna.((fragment_start + i) mod Array.length dna))
  in
  let squiggle = Dphls_seqgen.Signal_gen.squiggle rng ~dna:fragment ~noise:4.0 in
  let query =
    if Array.length squiggle > len then Array.sub squiggle 0 len else squiggle
  in
  Workload.of_seqs ~query ~reference

let gen rng ~len =
  let dna = Dphls_alphabet.Dna.random rng len in
  squiggle_pair rng ~len ~dna

let gen_negative rng ~len =
  let target = Dphls_alphabet.Dna.random rng len in
  let other = Dphls_alphabet.Dna.random rng len in
  let w = squiggle_pair rng ~len ~dna:other in
  let reference = Dphls_seqgen.Signal_gen.reference_levels target in
  Workload.of_seqs ~query:w.Workload.query ~reference
