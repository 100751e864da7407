open Dphls_core

type parallelism = { n_pe : int; n_b : int; n_k : int }

type entry = {
  packed : Registry.packed;
  alphabet : string;
  tools : string;
  application : string;
  modifications : string;
  optimal : parallelism;
  default_len : int;
  max_len : int;
  gen : Dphls_util.Rng.t -> len:int -> Workload.t;
}

let entry packed ~alphabet ~tools ~application ~modifications ~optimal ~default_len
    ~max_len ~gen =
  {
    packed;
    alphabet;
    tools;
    application;
    modifications;
    optimal;
    default_len;
    max_len;
    gen;
  }

let all =
  [
    entry
      (Registry.Packed (K01_global_linear.kernel, K01_global_linear.default))
      ~alphabet:"DNA" ~tools:"BLAST, EMBOSS Stretcher" ~application:"Similarity Search"
      ~modifications:"N/A"
      ~optimal:{ n_pe = 64; n_b = 16; n_k = 4 }
      ~default_len:256 ~max_len:1024 ~gen:K01_global_linear.gen;
    entry
      (Registry.Packed (K02_global_affine.kernel, K02_global_affine.default))
      ~alphabet:"DNA" ~tools:"BLAST, EMBOSS Needle"
      ~application:"Accurate Similarity Search" ~modifications:"Scoring"
      ~optimal:{ n_pe = 32; n_b = 16; n_k = 4 }
      ~default_len:256 ~max_len:1024 ~gen:K02_global_affine.gen;
    entry
      (Registry.Packed (K03_local_linear.kernel, K03_local_linear.default))
      ~alphabet:"DNA" ~tools:"BLAST, FASTA, BLAT" ~application:"Homology Search"
      ~modifications:"Initialization and Traceback"
      ~optimal:{ n_pe = 32; n_b = 16; n_k = 5 }
      ~default_len:256 ~max_len:1024 ~gen:K03_local_linear.gen;
    entry
      (Registry.Packed (K04_local_affine.kernel, K04_local_affine.default))
      ~alphabet:"DNA" ~tools:"BLAST, LASTZ" ~application:"Whole Genome Alignment"
      ~modifications:"Scoring, Initialization and Traceback"
      ~optimal:{ n_pe = 32; n_b = 16; n_k = 4 }
      ~default_len:256 ~max_len:1024 ~gen:K04_local_affine.gen;
    entry
      (Registry.Packed (K05_global_two_piece.kernel, K05_global_two_piece.default))
      ~alphabet:"DNA" ~tools:"Minimap2" ~application:"Long Read Alignment"
      ~modifications:"Scoring"
      ~optimal:{ n_pe = 32; n_b = 8; n_k = 5 }
      ~default_len:256 ~max_len:1024 ~gen:K05_global_two_piece.gen;
    entry
      (Registry.Packed (K06_overlap.kernel, K06_overlap.default))
      ~alphabet:"DNA" ~tools:"CANU, Flye" ~application:"Genome Assembly"
      ~modifications:"Initialization and Traceback"
      ~optimal:{ n_pe = 32; n_b = 16; n_k = 4 }
      ~default_len:256 ~max_len:1024 ~gen:K06_overlap.gen;
    entry
      (Registry.Packed (K07_semi_global.kernel, K07_semi_global.default))
      ~alphabet:"DNA" ~tools:"BWA-MEM" ~application:"Short Read Alignment"
      ~modifications:"Initialization and Traceback"
      ~optimal:{ n_pe = 32; n_b = 16; n_k = 4 }
      ~default_len:256 ~max_len:1024 ~gen:K07_semi_global.gen;
    entry
      (Registry.Packed (K08_profile.kernel, K08_profile.default))
      ~alphabet:"Seq. Profiles" ~tools:"CLUSTALW, MUSCLE"
      ~application:"Multiple Sequence Alignment"
      ~modifications:"Sequence Alphabet and Scoring"
      ~optimal:{ n_pe = 16; n_b = 1; n_k = 5 }
      ~default_len:256 ~max_len:1024 ~gen:K08_profile.gen;
    entry
      (Registry.Packed (K09_dtw.kernel, K09_dtw.default))
      ~alphabet:"Complex Nos." ~tools:"SquiggleKit" ~application:"Basecalling"
      ~modifications:"Sequence Alphabet and Scoring"
      ~optimal:{ n_pe = 64; n_b = 4; n_k = 3 }
      ~default_len:256 ~max_len:1024 ~gen:K09_dtw.gen;
    entry
      (Registry.Packed (K10_viterbi.kernel, K10_viterbi.default))
      ~alphabet:"DNA" ~tools:"HMMER, AUGUSTUS"
      ~application:"Remote Homology Search, Gene Prediction"
      ~modifications:"Scoring (no Traceback)"
      ~optimal:{ n_pe = 16; n_b = 4; n_k = 7 }
      ~default_len:256 ~max_len:1024 ~gen:K10_viterbi.gen;
    entry
      (Registry.Packed
         (K11_banded_global_linear.kernel, K11_banded_global_linear.default))
      ~alphabet:"DNA" ~tools:"BLAST, Bowtie" ~application:"Fast Similarity Search"
      ~modifications:"Scoring and Initialization"
      ~optimal:{ n_pe = 64; n_b = 8; n_k = 7 }
      ~default_len:256 ~max_len:1024 ~gen:K11_banded_global_linear.gen;
    entry
      (Registry.Packed (K12_banded_local_affine.kernel, K12_banded_local_affine.default))
      ~alphabet:"DNA" ~tools:"Minimap2" ~application:"Long Read Assembly"
      ~modifications:"Initialization, Scoring (no Traceback)"
      ~optimal:{ n_pe = 16; n_b = 16; n_k = 7 }
      ~default_len:256 ~max_len:1024 ~gen:K12_banded_local_affine.gen;
    entry
      (Registry.Packed
         (K13_banded_global_two_piece.kernel, K13_banded_global_two_piece.default))
      ~alphabet:"DNA" ~tools:"Minimap2" ~application:"Long Read Assembly"
      ~modifications:"Scoring, Initialization and Traceback"
      ~optimal:{ n_pe = 16; n_b = 8; n_k = 7 }
      ~default_len:256 ~max_len:1024 ~gen:K13_banded_global_two_piece.gen;
    entry
      (Registry.Packed (K14_sdtw.kernel, K14_sdtw.default))
      ~alphabet:"Integers" ~tools:"SquiggleFilter, RawHash" ~application:"Basecalling"
      ~modifications:"Sequence Alphabet and Scoring"
      ~optimal:{ n_pe = 32; n_b = 16; n_k = 5 }
      ~default_len:256 ~max_len:1024 ~gen:K14_sdtw.gen;
    entry
      (Registry.Packed (K15_protein_local.kernel, K15_protein_local.default))
      ~alphabet:"Amino acids" ~tools:"EMBOSS Water, BLASTp, DIAMOND"
      ~application:"Protein Sequence Alignment"
      ~modifications:"Sequence Alphabet and Scoring"
      ~optimal:{ n_pe = 32; n_b = 8; n_k = 5 }
      ~default_len:256 ~max_len:1024 ~gen:K15_protein_local.gen;
    (* Adaptive-band variants of #11-#13 (§2.2.4's second band shape):
       the same PEs under the wavefront-best-cell band. *)
    entry
      (Registry.Packed
         (K11_banded_global_linear.kernel_adaptive, K11_banded_global_linear.default))
      ~alphabet:"DNA" ~tools:"BLAST, Bowtie" ~application:"Fast Similarity Search"
      ~modifications:"Scoring, Initialization and Adaptive Banding"
      ~optimal:{ n_pe = 64; n_b = 8; n_k = 7 }
      ~default_len:256 ~max_len:1024 ~gen:K11_banded_global_linear.gen_drift;
    entry
      (Registry.Packed
         (K12_banded_local_affine.kernel_adaptive, K12_banded_local_affine.default))
      ~alphabet:"DNA" ~tools:"Minimap2" ~application:"Long Read Assembly"
      ~modifications:"Initialization, Adaptive Banding (no Traceback)"
      ~optimal:{ n_pe = 16; n_b = 16; n_k = 7 }
      ~default_len:256 ~max_len:1024 ~gen:K11_banded_global_linear.gen_drift;
    entry
      (Registry.Packed
         ( K13_banded_global_two_piece.kernel_adaptive,
           K13_banded_global_two_piece.default ))
      ~alphabet:"DNA" ~tools:"Minimap2" ~application:"Long Read Assembly"
      ~modifications:"Scoring, Initialization, Traceback and Adaptive Banding"
      ~optimal:{ n_pe = 16; n_b = 8; n_k = 7 }
      ~default_len:256 ~max_len:1024 ~gen:K11_banded_global_linear.gen_drift;
    (* #19 is not in Table 1: unit-cost Levenshtein, the bit-parallel
       fast-path positive case (ROADMAP item 2; see docs/analysis.md). *)
    entry
      (Registry.Packed (K19_global_edit.kernel, K19_global_edit.default))
      ~alphabet:"DNA" ~tools:"Edlib, Myers's bit-vector"
      ~application:"Read-error Estimation, Filtering"
      ~modifications:"Scoring (unit-cost, no Traceback)"
      ~optimal:{ n_pe = 64; n_b = 16; n_k = 4 }
      ~default_len:256 ~max_len:1024 ~gen:K19_global_edit.gen;
  ]

let text_encoder e =
  match e.alphabet with
  | "DNA" -> Some Dphls_alphabet.Dna.of_string
  | "Amino acids" -> Some Dphls_alphabet.Protein.of_string
  | _ -> None

let find id =
  match List.find_opt (fun e -> Registry.id e.packed = id) all with
  | Some e -> e
  | None -> raise Not_found

let lookup spec =
  match int_of_string_opt spec with
  | Some id -> List.find_opt (fun e -> Registry.id e.packed = id) all
  | None -> List.find_opt (fun e -> Registry.name e.packed = spec) all

let ids = List.map (fun e -> Registry.id e.packed) all
