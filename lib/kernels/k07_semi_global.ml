open Dphls_core
module Score = Dphls_util.Score

type params = { match_ : int; mismatch : int; gap : int }

let default = { match_ = 2; mismatch = -2; gap = -2 }

let bindings p =
  {
    Datapath.params =
      [ ("match", p.match_); ("mismatch", p.mismatch); ("gap", p.gap) ];
    tables = [];
  }

let kernel =
  {
    Kernel.id = 7;
    name = "semi-global";
    description = "Semi-global alignment (query end-to-end)";
    objective = Score.Maximize;
    n_layers = 1;
    score_bits = 16;
    tb_bits = 2;
    init_row = (fun _ ~ref_len:_ ~layer:_ ~col:_ -> 0);
    init_col = (fun p ~qry_len:_ ~layer:_ ~row -> p.gap * (row + 1));
    origin = (fun _ ~layer:_ -> 0);
    datapath = (fun p -> (Cells.linear_global_cell, bindings p));
    score_site = Traceback.Last_row_best;
    traceback =
      (fun _ -> Some { Traceback.fsm = Kdefs.Linear.fsm; stop = Traceback.At_top_row });
    banding = None;
    traits =
      {
        Traits.adds_per_pe = 3;
        muls_per_pe = 0;
        cmps_per_pe = 4;
        ii = 1;
        logic_depth = 4;
        char_bits = Kdefs.dna_char_bits;
        param_bits = 48;
      };
  }

let gen rng ~len =
  let module Rng = Dphls_util.Rng in
  let reference = Dphls_alphabet.Dna.random rng len in
  let qlen = max 1 (len / 2) in
  let origin = Rng.int rng (len - qlen + 1) in
  let window = Array.sub reference origin qlen in
  let profile = Dphls_seqgen.Read_sim.scaled Dphls_seqgen.Read_sim.pacbio_30 0.1 in
  let reads =
    Dphls_seqgen.Read_sim.simulate rng ~genome:window ~profile ~read_length:qlen
      ~count:1
  in
  match reads with
  | [ r ] -> Workload.of_bases ~query:r.Dphls_seqgen.Read_sim.sequence ~reference
  | _ -> assert false
