(* Hand-written PE closures, one per catalog kernel: each recurrence
   restated directly over [Pe.input], independent of the [Cells]
   datapaths the engines compile. t_datapath replays golden-engine runs
   through them. Candidates are listed in preference order and the
   first best wins ties, as in the paper's PE listings. *)
open Dphls_core
module Score = Dphls_util.Score
module Kdefs = Dphls_kernels.Kdefs

let best2 objective (s1, t1) (s2, t2) =
  if Score.better objective s2 s1 then (s2, t2) else (s1, t1)

let best_of objective = function
  | [] -> invalid_arg "Pe_oracles.best_of: empty"
  | first :: rest -> List.fold_left (best2 objective) first rest

let dna_sub ~match_ ~mismatch (q : Types.ch) (r : Types.ch) =
  if q.(0) = r.(0) then match_ else mismatch

(* One-layer linear-gap recurrence; a local kernel floors at 0 with an
   END pointer (paper Listing 6). *)
let linear ~local ~sub ~up_gap ~left_gap (i : Pe.input) =
  let best, ptr =
    best_of Score.Maximize
      [
        (Score.add i.Pe.diag.(0) sub, Kdefs.Linear.ptr_diag);
        (Score.add i.Pe.up.(0) up_gap, Kdefs.Linear.ptr_up);
        (Score.add i.Pe.left.(0) left_gap, Kdefs.Linear.ptr_left);
      ]
  in
  if local && best <= 0 then { Pe.scores = [| 0 |]; tb = Kdefs.Linear.ptr_end }
  else { Pe.scores = [| best |]; tb = ptr }

let dna_linear ~local ~match_ ~mismatch ~gap (i : Pe.input) =
  let sub = dna_sub ~match_ ~mismatch i.Pe.qry i.Pe.rf in
  linear ~local ~sub ~up_gap:gap ~left_gap:gap i

(* Gotoh: layers H=0, D=1 (up), I=2 (left); 4-bit pointer of H's source
   plus one extension bit per gap layer. *)
let affine ~local ~match_ ~mismatch ~gap_open ~gap_extend (i : Pe.input) =
  let sub = dna_sub ~match_ ~mismatch i.Pe.qry i.Pe.rf in
  let open_cost = Score.add gap_open gap_extend in
  let d, d_ext =
    best2 Score.Maximize
      (Score.add i.Pe.up.(0) open_cost, 0)
      (Score.add i.Pe.up.(1) gap_extend, 1)
  in
  let ins, i_ext =
    best2 Score.Maximize
      (Score.add i.Pe.left.(0) open_cost, 0)
      (Score.add i.Pe.left.(2) gap_extend, 1)
  in
  let h, h_src =
    best_of Score.Maximize
      [
        (Score.add i.Pe.diag.(0) sub, Kdefs.Affine.src_diag);
        (d, Kdefs.Affine.src_del);
        (ins, Kdefs.Affine.src_ins);
      ]
  in
  let h, h_src = if local && h <= 0 then (0, Kdefs.Affine.src_end) else (h, h_src) in
  { Pe.scores = [| h; d; ins |]; tb = h_src lor (d_ext lsl 2) lor (i_ext lsl 3) }

(* Minimap2's two-piece gaps: layers H=0, D1=1, I1=2, D2=3, I2=4; 7-bit
   pointer of H's source plus one extension bit per gap layer. *)
let two_piece ~match_ ~mismatch (g : Dphls_kernels.Two_piece_rec.gaps) (i : Pe.input) =
  let sub = dna_sub ~match_ ~mismatch i.Pe.qry i.Pe.rf in
  let gap ~prev_h ~prev_layer ~open_ ~extend =
    best2 Score.Maximize
      (Score.add prev_h (Score.add open_ extend), 0)
      (Score.add prev_layer extend, 1)
  in
  let open Dphls_kernels.Two_piece_rec in
  let d1, d1_ext =
    gap ~prev_h:i.Pe.up.(0) ~prev_layer:i.Pe.up.(1) ~open_:g.open1 ~extend:g.extend1
  in
  let i1, i1_ext =
    gap ~prev_h:i.Pe.left.(0) ~prev_layer:i.Pe.left.(2) ~open_:g.open1 ~extend:g.extend1
  in
  let d2, d2_ext =
    gap ~prev_h:i.Pe.up.(0) ~prev_layer:i.Pe.up.(3) ~open_:g.open2 ~extend:g.extend2
  in
  let i2, i2_ext =
    gap ~prev_h:i.Pe.left.(0) ~prev_layer:i.Pe.left.(4) ~open_:g.open2 ~extend:g.extend2
  in
  let h, h_src =
    best_of Score.Maximize
      [
        (Score.add i.Pe.diag.(0) sub, Kdefs.Two_piece.src_diag);
        (d1, Kdefs.Two_piece.src_d1);
        (i1, Kdefs.Two_piece.src_i1);
        (d2, Kdefs.Two_piece.src_d2);
        (i2, Kdefs.Two_piece.src_i2);
      ]
  in
  {
    Pe.scores = [| h; d1; i1; d2; i2 |];
    tb =
      h_src lor (d1_ext lsl 3) lor (i1_ext lsl 4) lor (d2_ext lsl 5) lor (i2_ext lsl 6);
  }

(* #8: sum-of-pairs substitution between profile columns; a column
   gapped against the other profile costs [gap_column] per residue pair. *)
let profile (p : Dphls_kernels.K08_profile.params) =
  let module Profile = Dphls_alphabet.Profile in
  let sigma =
    Profile.sum_of_pairs_matrix ~match_:p.match_ ~mismatch:p.mismatch ~gap:p.gap_symbol
  in
  let gap_cost col other_depth =
    let residues = Profile.depth col - col.(Profile.gap_index) in
    p.gap_column * residues * other_depth
  in
  fun (i : Pe.input) ->
    let sub = Profile.sum_of_pairs_score sigma i.Pe.qry i.Pe.rf in
    linear ~local:false ~sub
      ~up_gap:(gap_cost i.Pe.qry (Profile.depth i.Pe.rf))
      ~left_gap:(gap_cost i.Pe.rf (Profile.depth i.Pe.qry))
      i

(* DTW (#9, #14): the cheapest predecessor plus the local distance. *)
let dtw ~cost (i : Pe.input) =
  let best, ptr =
    best_of Score.Minimize
      [
        (i.Pe.diag.(0), Kdefs.Linear.ptr_diag);
        (i.Pe.up.(0), Kdefs.Linear.ptr_up);
        (i.Pe.left.(0), Kdefs.Linear.ptr_left);
      ]
  in
  { Pe.scores = [| Score.add best (cost i.Pe.qry i.Pe.rf) |]; tb = ptr }

(* #10, log-space pair-HMM Viterbi, layers M=0, I=1, D=2:
     M(i,j) = e(q,r) + max(M(i-1,j-1)+tMM, I(i-1,j-1)+tGC, D(i-1,j-1)+tGC)
     I(i,j) = eg + max(M(i-1,j)+tGO, I(i-1,j)+tGE)
     D(i,j) = eg + max(M(i,j-1)+tGO, D(i,j-1)+tGE) *)
let viterbi (p : Dphls_kernels.K10_viterbi.params) (i : Pe.input) =
  let emit = p.emission.(i.Pe.qry.(0)).(i.Pe.rf.(0)) in
  let m_best, _ =
    best_of Score.Maximize
      [
        (Score.add i.Pe.diag.(0) p.trans_mm, 0);
        (Score.add i.Pe.diag.(1) p.trans_gap_close, 1);
        (Score.add i.Pe.diag.(2) p.trans_gap_close, 2);
      ]
  in
  let ins_best, _ =
    best2 Score.Maximize
      (Score.add i.Pe.up.(0) p.trans_gap_open, 0)
      (Score.add i.Pe.up.(1) p.trans_gap_extend, 1)
  in
  let del_best, _ =
    best2 Score.Maximize
      (Score.add i.Pe.left.(0) p.trans_gap_open, 0)
      (Score.add i.Pe.left.(2) p.trans_gap_extend, 1)
  in
  {
    Pe.scores =
      [|
        Score.add m_best emit;
        Score.add ins_best p.gap_emission;
        Score.add del_best p.gap_emission;
      |];
    tb = 0;
  }

(* #19, unit-cost Levenshtein distance. *)
let edit (p : Dphls_kernels.K19_global_edit.params) (i : Pe.input) =
  let s = if i.Pe.qry.(0) = i.Pe.rf.(0) then 0 else p.sub in
  let d = Score.add i.Pe.diag.(0) s in
  let u = Score.add i.Pe.up.(0) p.indel in
  let l = Score.add i.Pe.left.(0) p.indel in
  { Pe.scores = [| Score.min2 (Score.min2 d u) l |]; tb = 0 }

(* The closure of catalog kernel [id] at its catalog parameters (the
   adaptive #16-#18 share the PEs of #11-#13). *)
let for_id id : Pe.f =
  let open Dphls_kernels in
  match id with
  | 1 ->
    let { K01_global_linear.match_; mismatch; gap } = K01_global_linear.default in
    dna_linear ~local:false ~match_ ~mismatch ~gap
  | 2 ->
    let { K02_global_affine.match_; mismatch; gap_open; gap_extend } =
      K02_global_affine.default
    in
    affine ~local:false ~match_ ~mismatch ~gap_open ~gap_extend
  | 3 ->
    let { K03_local_linear.match_; mismatch; gap } = K03_local_linear.default in
    dna_linear ~local:true ~match_ ~mismatch ~gap
  | 4 ->
    let { K04_local_affine.match_; mismatch; gap_open; gap_extend } =
      K04_local_affine.default
    in
    affine ~local:true ~match_ ~mismatch ~gap_open ~gap_extend
  | 5 ->
    let { K05_global_two_piece.match_; mismatch; gaps } = K05_global_two_piece.default in
    two_piece ~match_ ~mismatch gaps
  | 6 ->
    let { K06_overlap.match_; mismatch; gap } = K06_overlap.default in
    dna_linear ~local:false ~match_ ~mismatch ~gap
  | 7 ->
    let { K07_semi_global.match_; mismatch; gap } = K07_semi_global.default in
    dna_linear ~local:false ~match_ ~mismatch ~gap
  | 8 -> profile K08_profile.default
  | 9 -> dtw ~cost:Dphls_alphabet.Signal.manhattan_complex
  | 10 -> viterbi K10_viterbi.default
  | 11 | 16 ->
    let { K11_banded_global_linear.match_; mismatch; gap } =
      K11_banded_global_linear.default
    in
    dna_linear ~local:false ~match_ ~mismatch ~gap
  | 12 | 17 ->
    let { K12_banded_local_affine.match_; mismatch; gap_open; gap_extend } =
      K12_banded_local_affine.default
    in
    affine ~local:true ~match_ ~mismatch ~gap_open ~gap_extend
  | 13 | 18 ->
    let { K13_banded_global_two_piece.match_; mismatch; gaps } =
      K13_banded_global_two_piece.default
    in
    two_piece ~match_ ~mismatch gaps
  | 14 -> dtw ~cost:(fun q r -> abs (q.(0) - r.(0)))
  | 15 ->
    let { K15_protein_local.matrix; gap } = K15_protein_local.default in
    fun i -> linear ~local:true ~sub:matrix.(i.Pe.qry.(0)).(i.Pe.rf.(0)) ~up_gap:gap ~left_gap:gap i
  | 19 -> edit K19_global_edit.default
  | _ -> invalid_arg (Printf.sprintf "Pe_oracles.for_id: no closure for kernel #%d" id)
