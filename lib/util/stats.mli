(** Small statistics helpers for the experiment harness. *)

val mean : float array -> float
val stddev : float array -> float
val median : float array -> float
val geomean : float array -> float
(** Geometric mean of positive values. *)

val min_of : float array -> float
val max_of : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100], linear interpolation. *)

val percentile_exact : float array -> float -> float
(** [percentile_exact xs p] is the nearest-rank percentile: the smallest
    value [v] in [xs] such that at least [p]% of the samples are [<= v]
    (rank [ceil (p/100 * n)], 1-based, exact integer arithmetic for
    integral [p]; [p = 0] returns the minimum).
    Unlike {!percentile} it never interpolates, so the result is always
    an observed sample — with one sample every percentile is that
    sample, and p99 on small [n] is the maximum rather than an
    interpolated value below it. This is what gates latency SLOs
    ({!Dphls_obs.Summary}, [dphls serve]): a verdict never flips on
    interpolation rounding. *)
