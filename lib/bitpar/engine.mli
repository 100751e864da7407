(** Score-only bit-parallel engine: maps an eligible kernel's objective
    onto the unit-cost distance computed by {!Myers}.

    The two mappings are exactly the ones {!Eligibility.classify}
    proves (reported by [dphls check] as its [fastpath-*] finding):

    - [Unit_cost]: a min-plus kernel with free matches and substitution
      = insertion = deletion = [cost]; the score is [cost x D].
    - [Doubled]: a max-plus linear kernel whose doubled weighted-edit
      weights coincide, [2(match - mismatch) = match - 2 gap = weight2];
      then [2 x score = match x (|q| + |r|) - weight2 x D].

    Both identities require the global borders ([init = indel x (k+1)],
    origin 0, score at the bottom-right cell) — {!Eligibility.supports}
    verifies those before the auto dispatch or the [bitpar] registry
    engine routes here. *)

type mapping =
  | Unit_cost of { cost : int }      (** min-plus: score = cost x D *)
  | Doubled of { match_ : int; weight2 : int }
      (** max-plus: 2 x score = match x (|q|+|r|) - weight2 x D *)

val objective : mapping -> Dphls_util.Score.objective

val run :
  ?band:Dphls_core.Banding.t ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  mapping ->
  Dphls_core.Workload.t ->
  Dphls_core.Result.t
(** Score-only alignment (no traceback, no start/end cells). [band]
    must be [None] or [Fixed]; [Adaptive] raises [Invalid_argument].
    When the bottom-right cell is outside a fixed band the score is the
    objective's worst value, matching both engines' pruned reads.

    [metrics] receives [cells_evaluated] (the closed-form in-band cell
    count — the band cells the word ops cover) and one [alignments];
    [tracer] records one ["fill"] span under ["engine"]. *)
