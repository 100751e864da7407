(** Width/overflow interval analysis — can [score_bits] hold every score
    the kernel can produce on workloads up to a given length?

    The analysis propagates {!Interval.t} abstractions over anti-diagonal
    wavefronts: the interval of wavefront [d] is obtained by probing the
    PE function on corner points of the hull of wavefronts [d-1], [d-2]
    and the border inits revealed so far. DP recurrences are monotone in
    every neighbour score (compositions of saturating [+] and max/min),
    so output extremes are reached at input corners — but character
    dependence and coordinate dependence are only {e sampled} (the
    caller's [chars], one representative cell per wavefront), which makes
    the verdict a high-confidence probe, not a proof; see
    docs/analysis.md for the soundness discussion.

    Growth per wavefront stabilizes for affine/linear recurrences, so
    once the stride-2 growth vector has been constant for several steps
    the remaining wavefronts (and the safe-length projection beyond
    [max_len]) are extrapolated in closed form instead of iterated. *)

open Dphls_core

type kind =
  | Border  (** an [init_row]/[init_col]/[origin] value itself overflows *)
  | Cell    (** a computed cell's score overflows *)

type overflow = {
  layer : int;
  kind : kind;
  wavefront : int;  (** first offending wavefront (or border index) *)
  bound : int;      (** the offending finite bound *)
  max_safe_len : int;
      (** largest square workload length that cannot reach the overflow *)
}

type verdict =
  | Safe of { projected_safe_len : int option }
      (** no overflow up to [max_len]; the projection extends the
          stabilized growth beyond it ([None] = growth never reaches the
          representable bounds) *)
  | Overflow of overflow

type t = {
  verdict : verdict;
  probes : int;            (** PE invocations performed *)
  wavefronts : int;        (** wavefronts actually iterated *)
  extrapolated : bool;     (** verdict used closed-form extrapolation *)
  truncated : bool;
      (** growth never stabilized within the iteration cap and [max_len]
          exceeds it: the verdict only covers the iterated prefix *)
  tb_range : (int * int) option;
      (** observed (min, max) of emitted traceback pointers *)
  gap_magnitude : int option;
      (** probed per-cell skip penalty |gap|, for the banding lint *)
}

val analyze :
  'p Kernel.t -> 'p -> max_len:int -> chars:(Types.ch * Types.ch) array -> t
(** Raises [Invalid_argument] when [max_len < 1], [chars] is empty, or
    the spec is structurally unsound ([score_bits] out of [2,62],
    [n_layers < 1]) — run {!Kernel.structural_findings} first. *)
