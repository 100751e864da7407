(** PE-activity tracing, used to verify that the simulated design behaves
    as a linear systolic array (the paper's §7.2 check: throughput and
    resources must scale like N_B independent 1-D arrays of N_PE PEs).

    The trace records, per executed wavefront, which PEs fired and on
    which cells, so tests can assert the systolic invariants:
    - PE k only ever computes rows congruent to k modulo N_PE;
    - within a chunk, PE k fires at wavefront w iff cell (k, w-k) exists;
    - at most one cell per PE per wavefront.

    A trace created with [~capture:true] additionally records each
    fired cell's layer scores and traceback pointer, plus the adaptive
    band window after every wavefront — the raw material of the
    golden-vector harness ({!Dphls_vectors}), which serializes these
    streams to disk and diffs them across engines and PRs. Capture
    allocates one score-array copy per cell, so it stays off unless a
    vector file is being produced. *)

type event = {
  chunk : int;
  wavefront : int;
  pe : int;
  cell : Dphls_core.Types.cell;
  tb : int;
      (** Traceback pointer the PE emitted (0 for kernels without
          traceback). *)
  scores : Dphls_core.Types.score array;
      (** Layer scores the PE wrote, copied out of the wavefront plane;
          [[||]] unless the trace captures scores. *)
}

type window = {
  w_chunk : int;
  w_wavefront : int;
  w_lo : int;  (** window low edge, diagonal-offset (row - col) space *)
  w_hi : int;
}

type t

val create : enabled:bool -> t
(** Activity-only trace: events carry cells and pointers but no score
    copies, keeping per-cell cost at one list cell. *)

val create_capture : unit -> t
(** Enabled trace that additionally records per-cell scores and
    per-wavefront adaptive band windows (one score-array copy per
    cell). *)

val enabled : t -> bool
(** Callers on allocation-free paths should guard event construction
    with this (building an [event] record for a disabled trace would
    allocate per cell). *)

val capturing : t -> bool
(** Whether score/window capture is on (always false when disabled). *)

val record : t -> event -> unit
val events : t -> event list
(** In execution order; empty when disabled. *)

val record_window : t -> window -> unit
val windows : t -> window list
(** In execution order; empty unless capturing an adaptive-band run. *)
