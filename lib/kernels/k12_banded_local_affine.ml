open Dphls_core
module Score = Dphls_util.Score

type params = { match_ : int; mismatch : int; gap_open : int; gap_extend : int }

let default = { match_ = 2; mismatch = -2; gap_open = -3; gap_extend = -1 }
let default_bandwidth = 32

let bindings p =
  {
    Datapath.params =
      [
        ("match", p.match_);
        ("mismatch", p.mismatch);
        ("gap_oe", Score.add p.gap_open p.gap_extend);
        ("gap_extend", p.gap_extend);
      ];
    tables = [];
  }

(* Score only: same datapath as the local affine cell, no pointer store. *)
let cell = { (Cells.affine_cell ~local:true) with Datapath.tb_fields = [] }

let kernel_with ~bandwidth =
  {
    Kernel.id = 12;
    name = "banded-local-affine";
    description = "Banded local affine alignment, score only";
    objective = Score.Maximize;
    n_layers = 3;
    score_bits = 16;
    tb_bits = 0;
    init_row = (fun _ ~ref_len:_ ~layer ~col:_ -> Affine_rec.init_zero ~layer);
    init_col = (fun _ ~qry_len:_ ~layer ~row:_ -> Affine_rec.init_zero ~layer);
    origin = (fun _ ~layer -> Affine_rec.init_zero ~layer);
    datapath = (fun p -> (cell, bindings p));
    score_site = Traceback.Global_best;
    traceback = (fun _ -> None);
    banding = Some (Banding.fixed bandwidth);
    traits =
      {
        Traits.adds_per_pe = 6;
        muls_per_pe = 0;
        cmps_per_pe = 8;
        ii = 1;
        logic_depth = 7;
        char_bits = Kdefs.dna_char_bits;
        param_bits = 64;
      };
  }

let kernel = kernel_with ~bandwidth:default_bandwidth

let adaptive_with ~bandwidth ~threshold =
  {
    (kernel_with ~bandwidth) with
    Kernel.id = 17;
    name = "adaptive-local-affine";
    description = "Adaptive-banded local affine alignment, score only";
    banding = Some (Banding.adaptive ~threshold bandwidth);
  }

let kernel_adaptive =
  adaptive_with ~bandwidth:default_bandwidth ~threshold:Banding.default_threshold

let gen = K11_banded_global_linear.gen
