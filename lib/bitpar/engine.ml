open Dphls_core
module Score = Dphls_util.Score

type mapping =
  | Unit_cost of { cost : int }
  | Doubled of { match_ : int; weight2 : int }

let objective = function
  | Unit_cost _ -> Score.Minimize
  | Doubled _ -> Score.Maximize

(* Eligible recurrence shapes compare exactly one character component
   (the Eligibility proof is over Eq (Qry 0, Ref 0)). *)
let component0 seq = Array.map (fun (c : Types.ch) -> c.(0)) seq

let run ?band ?(metrics = Dphls_obs.Metrics.disabled)
    ?(tracer = Dphls_obs.Tracer.disabled) mapping (w : Workload.t) =
  let query = component0 w.Workload.query
  and reference = component0 w.Workload.reference in
  let m = Array.length query and n = Array.length reference in
  let dist =
    Dphls_obs.Tracer.span tracer ~cat:"engine" "fill" (fun () ->
        match band with
        | None -> Some (Myers.distance ~query ~reference)
        | Some (Banding.Fixed { width }) ->
          Myers.distance_banded ~query ~reference ~width
        | Some (Banding.Adaptive _) ->
          invalid_arg "Bitpar.Engine.run: adaptive bands are unsupported")
  in
  let score =
    match (dist, mapping) with
    | None, m -> Score.worst_value (objective m)
    | Some d, Unit_cost { cost } -> cost * d
    | Some d, Doubled { match_; weight2 } ->
      ((match_ * (m + n)) - (weight2 * d)) / 2
  in
  let cells = Banding.cells_in_band band ~qry_len:m ~ref_len:n in
  Dphls_obs.Metrics.add metrics Dphls_obs.Counter.Cells_evaluated cells;
  Dphls_obs.Metrics.incr metrics Dphls_obs.Counter.Alignments;
  Result.score_only ~score ~cells
