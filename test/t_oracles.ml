(* Independent-oracle tests closing the remaining gaps: brute-force
   pair-HMM Viterbi by path enumeration, scalar sum-of-pairs profile DP,
   scalar banded Needleman-Wunsch, and the banded kernels' degeneracy to
   their unbanded counterparts. None of them shares the expression IR. *)
open Dphls_core
module Score = Dphls_util.Score
module Profile = Dphls_alphabet.Profile
module K08 = Dphls_kernels.K08_profile
module K10 = Dphls_kernels.K10_viterbi
module K11 = Dphls_kernels.K11_banded_global_linear

(* Enumerate every monotone alignment path from the virtual origin to
   (qn-1, rn-1) through the three-state pair-HMM, scoring transitions
   and emissions exactly as the kernel's recurrence does, and return the
   best score over paths ending in the M state (the kernel's layer 0 at
   the bottom-right). Exponential — test sizes stay tiny. *)
let brute_force_viterbi (p : K10.params) ~query ~reference =
  let qn = Array.length query and rn = Array.length reference in
  let best = ref Score.neg_inf in
  (* state encoding: 0 = M, 1 = I (consumes query), 2 = D (consumes ref) *)
  let rec go i j state score =
    if Score.is_neg_inf score then ()
    else if i = qn && j = rn then begin
      if state = 0 && score > !best then best := score
    end
    else begin
      (* M move *)
      if i < qn && j < rn then begin
        let trans =
          match state with
          | 0 -> p.K10.trans_mm
          | _ -> p.K10.trans_gap_close
        in
        let emit = p.K10.emission.(query.(i)).(reference.(j)) in
        go (i + 1) (j + 1) 0 (Score.add score (Score.add trans emit))
      end;
      (* I move: consumes a query character *)
      if i < qn then begin
        let trans =
          match state with
          | 0 -> p.K10.trans_gap_open
          | 1 -> p.K10.trans_gap_extend
          | _ -> Score.neg_inf
        in
        go (i + 1) j 1 (Score.add score (Score.add trans p.K10.gap_emission))
      end;
      (* D move: consumes a reference character *)
      if j < rn then begin
        let trans =
          match state with
          | 0 -> p.K10.trans_gap_open
          | 2 -> p.K10.trans_gap_extend
          | _ -> Score.neg_inf
        in
        go i (j + 1) 2 (Score.add score (Score.add trans p.K10.gap_emission))
      end
    end
  in
  go 0 0 0 0;
  !best

let test_viterbi_brute_force () =
  let p = K10.default in
  for seed = 1 to 40 do
    let rng = Dphls_util.Rng.create (seed * 131) in
    let qn = 1 + Dphls_util.Rng.int rng 4 and rn = 1 + Dphls_util.Rng.int rng 4 in
    let query = Dphls_alphabet.Dna.random rng qn in
    let reference = Dphls_alphabet.Dna.random rng rn in
    let dp =
      (Dphls_reference.Ref_engine.run K10.kernel p
         (Workload.of_bases ~query ~reference))
        .Result.score
    in
    let brute = brute_force_viterbi p ~query ~reference in
    Alcotest.(check int)
      (Printf.sprintf "seed %d (%dx%d)" seed qn rn)
      brute dp
  done

let test_k13_wide_band_equals_k5 () =
  let wide = Dphls_kernels.K13_banded_global_two_piece.kernel_with ~bandwidth:128 in
  let p13 = Dphls_kernels.K13_banded_global_two_piece.default in
  let p5 = Dphls_kernels.K05_global_two_piece.default in
  for seed = 1 to 25 do
    let rng = Dphls_util.Rng.create (seed * 211) in
    let q = Dphls_alphabet.Dna.random rng (1 + Dphls_util.Rng.int rng 30) in
    let r = Dphls_alphabet.Dna.random rng (1 + Dphls_util.Rng.int rng 30) in
    let w = Workload.of_bases ~query:q ~reference:r in
    let banded = Dphls_reference.Ref_engine.run wide p13 w in
    let full =
      Dphls_reference.Ref_engine.run Dphls_kernels.K05_global_two_piece.kernel p5 w
    in
    Alcotest.(check int)
      (Printf.sprintf "seed %d" seed)
      full.Result.score banded.Result.score;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d paths" seed)
      true
      (banded.Result.path = full.Result.path)
  done

(* Banded local affine (#12) degenerates to plain SWG under a covering
   band — score-only comparison against the independent SeqAn-like. *)
let test_k12_wide_band_equals_swg () =
  let wide = Dphls_kernels.K12_banded_local_affine.kernel_with ~bandwidth:128 in
  let p = Dphls_kernels.K12_banded_local_affine.default in
  for seed = 1 to 25 do
    let rng = Dphls_util.Rng.create (seed * 223) in
    let q = Dphls_alphabet.Dna.random rng (1 + Dphls_util.Rng.int rng 30) in
    let r = Dphls_alphabet.Dna.random rng (1 + Dphls_util.Rng.int rng 30) in
    let w = Workload.of_bases ~query:q ~reference:r in
    let banded = (Dphls_reference.Ref_engine.run wide p w).Result.score in
    let full =
      Dphls_baselines.Seqan_like.score
        (Dphls_baselines.Seqan_like.dna_scoring ~match_:2 ~mismatch:(-2)
           ~gap:(Dphls_baselines.Seqan_like.Affine { open_ = -3; extend = -1 })
           ~mode:Dphls_baselines.Seqan_like.Local)
        ~query:q ~reference:r
    in
    Alcotest.(check int) (Printf.sprintf "seed %d" seed) full banded
  done

(* Scalar profile-profile DP (#8) straight from the sum-of-pairs
   definition: [Profile.sum_of_pairs_score] on the diagonal move, and a
   gap column costing [gap_column] per residue per member of the other
   profile on the vertical/horizontal moves. Borders assume full-depth
   columns on both sides, as the kernel's do. Plain integer arithmetic. *)
let scalar_profile (p : K08.params) ~query ~reference =
  let sigma =
    Profile.sum_of_pairs_matrix ~match_:p.K08.match_ ~mismatch:p.K08.mismatch
      ~gap:p.K08.gap_symbol
  in
  let gap_column col other =
    p.K08.gap_column * (Profile.depth col - col.(Profile.gap_index)) * Profile.depth other
  in
  let border index = p.K08.gap_column * p.K08.depth * p.K08.depth * (index + 1) in
  let n = Array.length reference in
  let prev = Array.init (n + 1) (fun j -> if j = 0 then 0 else border (j - 1)) in
  let cur = Array.make (n + 1) 0 in
  Array.iteri
    (fun i q ->
      cur.(0) <- border i;
      for j = 1 to n do
        let r = reference.(j - 1) in
        cur.(j) <-
          max
            (prev.(j - 1) + Profile.sum_of_pairs_score sigma q r)
            (max (prev.(j) + gap_column q r) (cur.(j - 1) + gap_column r q))
      done;
      Array.blit cur 0 prev 0 (n + 1))
    query;
  prev.(n)

(* Depth-4 profiles of unequal lengths and high divergence, so gapped
   columns and off-diagonal moves are common. *)
let divergent_profiles rng =
  let profile () =
    fst
      (Dphls_seqgen.Profile_gen.related_pair rng
         ~length:(1 + Dphls_util.Rng.int rng 24)
         ~members:4 ~divergence:0.6)
  in
  let query = profile () in
  Workload.of_seqs ~query ~reference:(profile ())

let test_k08_depth4_scalar () =
  let alt =
    { K08.default with match_ = 3; mismatch = -1; gap_symbol = -3; gap_column = -1 }
  in
  List.iter
    (fun (label, p) ->
      for seed = 1 to 20 do
        let rng = Dphls_util.Rng.create (seed * 227) in
        let w =
          if seed mod 2 = 0 then divergent_profiles rng
          else K08.gen rng ~len:(1 + Dphls_util.Rng.int rng 24)
        in
        let query = w.Workload.query and reference = w.Workload.reference in
        Array.iter
          (fun col -> Alcotest.(check int) "depth 4" 4 (Profile.depth col))
          (Array.append query reference);
        Alcotest.(check int)
          (Printf.sprintf "%s seed %d" label seed)
          (scalar_profile p ~query ~reference)
          (Dphls_reference.Ref_engine.run K08.kernel p w).Result.score
      done)
    [ ("default", K08.default); ("alt", alt) ]

(* Scalar banded Needleman-Wunsch (#11): every coordinate with
   [abs (i - j) > w] — virtual border cells included, as in the engines —
   is -inf; the rest follow the plain linear-gap recurrence. *)
let scalar_banded_nw (p : K11.params) ~width ~query ~reference =
  let m = Array.length query and n = Array.length reference in
  (* d.(i + 1).(j + 1) holds cell (i, j); index 0 is the virtual border *)
  let d = Array.make_matrix (m + 1) (n + 1) Score.neg_inf in
  for i = -1 to m - 1 do
    for j = -1 to n - 1 do
      if abs (i - j) <= width then
        d.(i + 1).(j + 1) <-
          (if i = -1 && j = -1 then 0
           else if i = -1 then p.K11.gap * (j + 1)
           else if j = -1 then p.K11.gap * (i + 1)
           else
             let s = if query.(i) = reference.(j) then p.K11.match_ else p.K11.mismatch in
             max (d.(i).(j) + s)
               (max (d.(i).(j + 1) + p.K11.gap) (d.(i + 1).(j) + p.K11.gap)))
    done
  done;
  d.(m).(n)

let test_k11_narrow_band_scalar () =
  let p = K11.default in
  List.iter
    (fun width ->
      let k = K11.kernel_with ~bandwidth:width in
      for seed = 1 to 15 do
        let rng = Dphls_util.Rng.create ((seed * 229) + width) in
        let m = 1 + Dphls_util.Rng.int rng 30 in
        (* keep the bottom-right corner inside the band *)
        let n = max 1 (m - width + Dphls_util.Rng.int rng ((2 * width) + 1)) in
        let query = Dphls_alphabet.Dna.random rng m in
        let reference =
          Dphls_seqgen.Dna_gen.mutate_point rng
            (Array.init n (fun j -> if j < m then query.(j) else 0))
            ~rate:0.2
        in
        let w = Workload.of_bases ~query ~reference in
        Alcotest.(check int)
          (Printf.sprintf "w=%d seed %d" width seed)
          (scalar_banded_nw p ~width ~query ~reference)
          (Dphls_reference.Ref_engine.run k p w).Result.score
      done)
    [ 1; 2; 3; 5; 8 ]

let suite =
  [
    Alcotest.test_case "#8 depth-4 profiles == scalar sum-of-pairs DP" `Quick
      test_k08_depth4_scalar;
    Alcotest.test_case "#11 narrow bands == scalar banded NW" `Quick
      test_k11_narrow_band_scalar;
    Alcotest.test_case "viterbi == brute-force path enumeration" `Quick
      test_viterbi_brute_force;
    Alcotest.test_case "#13 wide band == #5" `Quick test_k13_wide_band_equals_k5;
    Alcotest.test_case "#12 wide band == SWG" `Quick test_k12_wide_band_equals_swg;
  ]
