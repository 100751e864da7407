open Dphls_core.Datapath

type verdict =
  | Eligible of { scale : int; match_ : int; notes : string list }
  | Ineligible of { property : string }

let resolve (bindings : bindings) e =
  match e with
  | Const c -> Some c
  | Param n -> List.assoc_opt n bindings.params
  | _ -> None

let rec mentions pred e =
  pred e
  ||
  match e with
  | Const _ | Param _ | Up _ | Diag _ | Left _ | Qry _ | Ref _ | Cur _ | Nbr _ ->
    false
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Lookup2 (_, a, b) ->
    mentions pred a || mentions pred b
  | Abs a -> mentions pred a
  | Max es | Min es -> List.exists (mentions pred) es
  | Ite (c, t, f) ->
    (match c with
    | Eq (a, b) | Le (a, b) | Lt (a, b) -> mentions pred a || mentions pred b)
    || mentions pred t || mentions pred f

let has_lookup = mentions (function Lookup2 _ -> true | _ -> false)
let has_mul = mentions (function Mul _ -> true | _ -> false)

(* One move candidate of a Min/Max reduction: the neighbour read plus
   its cost term (either operand order). *)
type move = M_diag of expr | M_up of expr | M_left of expr

let move_of = function
  | Add (Diag 0, c) | Add (c, Diag 0) -> Some (M_diag c)
  | Add (Up 0, c) | Add (c, Up 0) -> Some (M_up c)
  | Add (Left 0, c) | Add (c, Left 0) -> Some (M_left c)
  | _ -> None

let bare_neighbour = function Diag 0 | Up 0 | Left 0 -> true | _ -> false

let classify (cell : cell) (bindings : bindings) =
  let ineligible fmt = Printf.ksprintf (fun property -> Ineligible { property }) fmt in
  let n_layers = Array.length cell.layers in
  if n_layers <> 1 then
    ineligible
      "multi-layer recurrence (%d layers): affine/two-piece/HMM gap state has \
       no bit-vector encoding" n_layers
  else
    let e = cell.layers.(0) in
    match e with
    | Ite (Le (_, z), zarm, _)
      when resolve bindings z = Some 0 && resolve bindings zarm = Some 0 ->
      ineligible
        "local zero-clamp: the alignment may restart at any cell \
         (Smith-Waterman-shaped), so the score is not a global edit distance"
    | Add (Min cands, _) when List.for_all bare_neighbour cands ->
      ineligible
        "move cost applied uniformly to all three moves (DTW shape): \
         bit-parallel edit distance needs cost only on the substitution move"
    | Add (_, Min cands) when List.for_all bare_neighbour cands ->
      ineligible
        "move cost applied uniformly to all three moves (DTW shape): \
         bit-parallel edit distance needs cost only on the substitution move"
    | Min cands | Max cands -> (
      let minimize = match e with Min _ -> true | _ -> false in
      let moves = List.map move_of cands in
      if List.exists (fun m -> m = None) moves then
        if has_lookup e then
          ineligible
            "substitution/emission lookup table: per-pair scores beyond a \
             single match/mismatch constant cannot be bit-parallelised"
        else if has_mul e then
          ineligible "multiplicative datapath (profile sum-of-pairs shape)"
        else
          ineligible "unrecognised move candidate in the %s reduction"
            (if minimize then "min-plus" else "max-plus")
      else
        let moves = List.filter_map Fun.id moves in
        let diag = List.filter_map (function M_diag c -> Some c | _ -> None) moves in
        let up = List.filter_map (function M_up c -> Some c | _ -> None) moves in
        let left = List.filter_map (function M_left c -> Some c | _ -> None) moves in
        match (diag, up, left) with
        | [ sub ], [ gu ], [ gl ] -> (
          let sub_costs =
            match sub with
            | Ite (Eq (Qry 0, Ref 0), m, x) -> (
              match (resolve bindings m, resolve bindings x) with
              | Some m, Some x -> Some (m, x)
              | _ -> None)
            | _ -> None
          in
          match (sub_costs, resolve bindings gu, resolve bindings gl) with
          | None, _, _ ->
            if has_lookup sub then
              ineligible
                "substitution/emission lookup table: per-pair scores beyond a \
                 single match/mismatch constant cannot be bit-parallelised"
            else
              ineligible
                "substitution term is not a resolvable \
                 match/mismatch-on-equal-characters select"
          | _, None, _ | _, _, None ->
            ineligible "indel cost is not a resolvable constant"
          | Some (m, x), Some gu, Some gl ->
            if minimize then
              if m <> 0 then
                ineligible "match cost %d: unit-cost edit distance needs free matches"
                  m
              else if x <> gu || gu <> gl then
                ineligible
                  "substitution cost %d and indel costs %d/%d differ: unit-cost \
                   edit distance needs one uniform move cost" x gu gl
              else if x <= 0 then
                ineligible "uniform move cost %d is not positive" x
              else
                Eligible
                  {
                    scale = x;
                    match_ = m;
                    notes =
                      [
                        "single score layer";
                        "min-plus datapath over the three wavefront moves";
                        "match cost 0";
                        Printf.sprintf
                          "substitution = insertion = deletion = %d \
                           (distance = %d x Levenshtein)" x x;
                      ]
                      @ (if cell.tb_fields = [] then []
                         else
                           [ "score path only: traceback queries still need \
                              the systolic array" ]);
                  }
            else if gu <> gl then
              ineligible "asymmetric insertion/deletion costs %d/%d" gu gl
            else
              (* score = (match/2)(|q|+|r|) - D/2 where D is the weighted
                 edit distance with doubled weights ws2/wi2 below *)
              let ws2 = 2 * (m - x) and wi2 = m - (2 * gu) in
              if ws2 = wi2 && ws2 > 0 then
                Eligible
                  {
                    scale = ws2;
                    match_ = m;
                    notes =
                      [
                        "single score layer";
                        "max-plus linear scoring, score-equivalent to a \
                         weighted edit distance";
                        Printf.sprintf
                          "doubled substitution weight 2(match-mismatch) = %d \
                           equals doubled indel weight match-2*gap = %d" ws2 wi2;
                        Printf.sprintf
                          "score = (match/2)(|q|+|r|) - (%d/2) x Levenshtein" ws2;
                      ]
                      @ (if cell.tb_fields = [] then []
                         else
                           [ "score path only: traceback queries still need \
                              the systolic array" ]);
                  }
              else
                ineligible
                  "maximization scoring maps to a weighted edit distance with \
                   doubled substitution weight 2(match-mismatch) = %d but \
                   doubled indel weight match-2*gap = %d: bit-parallel \
                   algorithms need them equal (unit-cost)" ws2 wi2)
        | _ ->
          ineligible
            "reduction is not over exactly the three wavefront moves \
             (diag/up/left once each)")
    | _ ->
      if has_lookup e then
        ineligible
          "substitution/emission lookup table: per-pair scores beyond a single \
           match/mismatch constant cannot be bit-parallelised"
      else if has_mul e then
        ineligible "multiplicative datapath (profile sum-of-pairs shape)"
      else ineligible "unrecognised datapath shape"

let findings = function
  | Eligible { scale; notes; _ } ->
    [ Report.info ~check:"fastpath-eligible"
        (Printf.sprintf
           "Myers/GeneTEK bit-parallel eligible (scale %d): %s" scale
           (String.concat "; " notes)) ]
  | Ineligible { property } ->
    [ Report.info ~check:"fastpath-ineligible"
        (Printf.sprintf "not bit-parallel eligible: %s" property) ]

let explain ppf v =
  Format.fprintf ppf
    "bit-parallel fast path requires: one score layer; min-plus (or \
     score-equivalent max-plus) over the three wavefront moves; match cost 0; \
     uniform positive substitution/indel cost; no lookup tables, products or \
     local clamps.@\n";
  match v with
  | Eligible { scale; notes; _ } ->
    Format.fprintf ppf "verdict: ELIGIBLE (scale %d)@\n" scale;
    List.iter (fun n -> Format.fprintf ppf "  + %s@\n" n) notes
  | Ineligible { property } ->
    Format.fprintf ppf "verdict: INELIGIBLE@\n  - %s@\n" property
