open Dphls_core.Datapath
module Score = Dphls_util.Score

(* Tag of the first candidate attaining the optimum: the incumbent is
   kept unless a later candidate is strictly better, so the winner is
   the first argbest. *)
let rec select_first_best ~objective cands =
  match cands with
  | [] -> invalid_arg "Cells.select_first_best: empty"
  | [ (_, tag) ] -> Const tag
  | (c1, tag1) :: rest ->
    let rest_best = Max (List.map fst rest) in
    let rest_best =
      match objective with Score.Maximize -> rest_best | Score.Minimize -> Min (List.map fst rest)
    in
    let loses =
      match objective with
      | Score.Maximize -> Lt (c1, rest_best)
      | Score.Minimize -> Lt (rest_best, c1)
    in
    Ite (loses, select_first_best ~objective rest, Const tag1)

(* ---------- linear DNA family (#1, #3, #6, #7, #11) ---------- *)

let dna_sub = Ite (Eq (Qry 0, Ref 0), Param "match", Param "mismatch")

let linear_candidates =
  [
    (Add (Diag 0, dna_sub), Kdefs.Linear.ptr_diag);
    (Add (Up 0, Param "gap"), Kdefs.Linear.ptr_up);
    (Add (Left 0, Param "gap"), Kdefs.Linear.ptr_left);
  ]

let linear_global_cell =
  {
    layers = [| Max (List.map fst linear_candidates) |];
    tb_fields =
      [ { bits = 2; value = select_first_best ~objective:Score.Maximize linear_candidates } ];
  }

(* Paper Listing 6: candidates are compared and the result floors at 0
   with an END pointer marking the traceback stop. *)
let linear_local_cell =
  let h = Max (List.map fst linear_candidates) in
  {
    layers = [| Ite (Le (h, Const 0), Const 0, h) |];
    tb_fields =
      [
        {
          bits = 2;
          value =
            Ite
              ( Le (h, Const 0),
                Const Kdefs.Linear.ptr_end,
                select_first_best ~objective:Score.Maximize linear_candidates );
        };
      ];
  }

(* ---------- affine family (#2, #4, #12) ---------- *)

let affine_d = Max [ Add (Up 0, Param "gap_oe"); Add (Up 1, Param "gap_extend") ]
let affine_i = Max [ Add (Left 0, Param "gap_oe"); Add (Left 2, Param "gap_extend") ]

let affine_h_cands =
  [
    (Add (Diag 0, dna_sub), Kdefs.Affine.src_diag);
    (Cur 1, Kdefs.Affine.src_del);
    (Cur 2, Kdefs.Affine.src_ins);
  ]

let affine_ext ~h_layer ~gap_layer =
  (* extension bit set only when extending strictly beats re-opening *)
  Ite
    (Lt (Add (h_layer, Param "gap_oe"), Add (gap_layer, Param "gap_extend")), Const 1, Const 0)

let affine_cell ~local =
  let h = Max (List.map fst affine_h_cands) in
  let h_src = select_first_best ~objective:Score.Maximize affine_h_cands in
  let layer0, src =
    if local then
      ( Ite (Le (h, Const 0), Const 0, h),
        Ite (Le (h, Const 0), Const Kdefs.Affine.src_end, h_src) )
    else (h, h_src)
  in
  {
    layers = [| layer0; affine_d; affine_i |];
    tb_fields =
      [
        { bits = 2; value = src };
        { bits = 1; value = affine_ext ~h_layer:(Up 0) ~gap_layer:(Up 1) };
        { bits = 1; value = affine_ext ~h_layer:(Left 0) ~gap_layer:(Left 2) };
      ];
  }

(* ---------- two-piece family (#5, #13) ---------- *)

let tp_gap ~h_neighbor ~layer_neighbor ~oe ~extend =
  Max [ Add (h_neighbor, Param oe); Add (layer_neighbor, Param extend) ]

let two_piece_cell =
  let d1 = tp_gap ~h_neighbor:(Up 0) ~layer_neighbor:(Up 1) ~oe:"oe1" ~extend:"e1" in
  let i1 = tp_gap ~h_neighbor:(Left 0) ~layer_neighbor:(Left 2) ~oe:"oe1" ~extend:"e1" in
  let d2 = tp_gap ~h_neighbor:(Up 0) ~layer_neighbor:(Up 3) ~oe:"oe2" ~extend:"e2" in
  let i2 = tp_gap ~h_neighbor:(Left 0) ~layer_neighbor:(Left 4) ~oe:"oe2" ~extend:"e2" in
  let cands =
    [
      (Add (Diag 0, dna_sub), Kdefs.Two_piece.src_diag);
      (Cur 1, Kdefs.Two_piece.src_d1);
      (Cur 2, Kdefs.Two_piece.src_i1);
      (Cur 3, Kdefs.Two_piece.src_d2);
      (Cur 4, Kdefs.Two_piece.src_i2);
    ]
  in
  let ext ~h_neighbor ~layer_neighbor ~oe ~extend =
    Ite
      ( Lt (Add (h_neighbor, Param oe), Add (layer_neighbor, Param extend)),
        Const 1, Const 0 )
  in
  {
    layers = [| Max (List.map fst cands); d1; i1; d2; i2 |];
    tb_fields =
      [
        { bits = 3; value = select_first_best ~objective:Score.Maximize cands };
        { bits = 1; value = ext ~h_neighbor:(Up 0) ~layer_neighbor:(Up 1) ~oe:"oe1" ~extend:"e1" };
        { bits = 1; value = ext ~h_neighbor:(Left 0) ~layer_neighbor:(Left 2) ~oe:"oe1" ~extend:"e1" };
        { bits = 1; value = ext ~h_neighbor:(Up 0) ~layer_neighbor:(Up 3) ~oe:"oe2" ~extend:"e2" };
        { bits = 1; value = ext ~h_neighbor:(Left 0) ~layer_neighbor:(Left 4) ~oe:"oe2" ~extend:"e2" };
      ];
  }

(* ---------- profile alignment (#8) ---------- *)

(* Parameterised by the substitution scores because the sum-of-pairs
   matrix is embedded in the expression as constants. *)
let profile_cell ~match_ ~mismatch ~gap_symbol =
  let sigma =
    Dphls_alphabet.Profile.sum_of_pairs_matrix ~match_ ~mismatch ~gap:gap_symbol
  in
  let sum_terms f = List.fold_left (fun acc t -> Add (acc, t)) (f 0) (List.init 4 (fun i -> f (i + 1))) in
  (* sum-of-pairs: the two matrix-vector multiplications per cell *)
  let sub =
    sum_terms (fun a ->
        sum_terms (fun b -> Mul (Mul (Qry a, Ref b), Const sigma.(a).(b))))
  in
  let residues of_elem = List.fold_left (fun acc i -> Add (acc, of_elem i)) (of_elem 0) [ 1; 2; 3 ] in
  let depth of_elem = Add (residues of_elem, of_elem 4) in
  let up_gap = Mul (Param "gap_column", Mul (residues (fun i -> Qry i), depth (fun i -> Ref i))) in
  let left_gap = Mul (Param "gap_column", Mul (residues (fun i -> Ref i), depth (fun i -> Qry i))) in
  let cands =
    [
      (Add (Diag 0, sub), Kdefs.Linear.ptr_diag);
      (Add (Up 0, up_gap), Kdefs.Linear.ptr_up);
      (Add (Left 0, left_gap), Kdefs.Linear.ptr_left);
    ]
  in
  {
    layers = [| Max (List.map fst cands) |];
    tb_fields = [ { bits = 2; value = select_first_best ~objective:Score.Maximize cands } ];
  }

(* ---------- DTW family (#9, #14) ---------- *)

let dtw_neighbors =
  [ (Diag 0, Kdefs.Linear.ptr_diag); (Up 0, Kdefs.Linear.ptr_up); (Left 0, Kdefs.Linear.ptr_left) ]

let dtw_cell =
  let cost = Add (Abs (Sub (Qry 0, Ref 0)), Abs (Sub (Qry 1, Ref 1))) in
  {
    layers = [| Add (Min (List.map fst dtw_neighbors), cost) |];
    tb_fields =
      [ { bits = 2; value = select_first_best ~objective:Score.Minimize dtw_neighbors } ];
  }

let sdtw_cell =
  let cost = Abs (Sub (Qry 0, Ref 0)) in
  { layers = [| Add (Min (List.map fst dtw_neighbors), cost) |]; tb_fields = [] }

(* ---------- Viterbi (#10) ---------- *)

(* Layers: 0 = M (match state), 1 = I (insert: consumes query),
   2 = D (delete: consumes reference). Log-space Viterbi:
     M(i,j) = e(q,r) + max(M(i-1,j-1)+tMM, I(i-1,j-1)+tGC, D(i-1,j-1)+tGC)
     I(i,j) = eg + max(M(i-1,j)+tGO, I(i-1,j)+tGE)
     D(i,j) = eg + max(M(i,j-1)+tGO, D(i,j-1)+tGE) *)

let viterbi_cell =
  let m =
    Add
      ( Max
          [
            Add (Diag 0, Param "trans_mm");
            Add (Diag 1, Param "trans_gap_close");
            Add (Diag 2, Param "trans_gap_close");
          ],
        Lookup2 ("emission", Qry 0, Ref 0) )
  in
  let ins =
    Add
      ( Max [ Add (Up 0, Param "trans_gap_open"); Add (Up 1, Param "trans_gap_extend") ],
        Param "gap_emission" )
  in
  let del =
    Add
      ( Max [ Add (Left 0, Param "trans_gap_open"); Add (Left 2, Param "trans_gap_extend") ],
        Param "gap_emission" )
  in
  { layers = [| m; ins; del |]; tb_fields = [] }

(* ---------- protein local (#15) ---------- *)

let protein_cell =
  let cands =
    [
      (Add (Diag 0, Lookup2 ("matrix", Qry 0, Ref 0)), Kdefs.Linear.ptr_diag);
      (Add (Up 0, Param "gap"), Kdefs.Linear.ptr_up);
      (Add (Left 0, Param "gap"), Kdefs.Linear.ptr_left);
    ]
  in
  let h = Max (List.map fst cands) in
  {
    layers = [| Ite (Le (h, Const 0), Const 0, h) |];
    tb_fields =
      [
        {
          bits = 2;
          value =
            Ite
              ( Le (h, Const 0),
                Const Kdefs.Linear.ptr_end,
                select_first_best ~objective:Score.Maximize cands );
        };
      ];
  }

(* ---------- unit-cost edit distance (#19) ---------- *)

let edit_sub = Ite (Eq (Qry 0, Ref 0), Const 0, Param "sub")

let edit_cell =
  {
    layers =
      [|
        Min
          [
            Add (Diag 0, edit_sub);
            Add (Up 0, Param "indel");
            Add (Left 0, Param "indel");
          ];
      |];
    tb_fields = [];
  }
