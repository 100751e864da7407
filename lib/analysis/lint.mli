(** Configuration lint: legal-but-suspect kernel configurations.

    Unlike {!Widths} and {!Fsm_check}, which find specs that misbehave,
    the lint flags configurations that run correctly but waste hardware
    or defeat their own purpose (a band as wide as the matrix, an
    adaptive threshold the X-drop rule can never fire under, idle PEs). *)

open Dphls_core

val structural : 'p Kernel.t -> 'p -> Report.finding list
(** {!Kernel.structural_findings} wrapped as [Error] findings, same
    check names. *)

val banding :
  Banding.t option -> gap_magnitude:int option -> max_len:int -> Report.finding list
(** Band-vs-matrix-size and the docs/banding.md [threshold < 2*|gap|*width]
    adaptive-threshold guidance, using the skip penalty probed by
    {!Widths.analyze}. *)

val parallelism : n_pe:int option -> max_len:int -> Report.finding list
(** PE-array utilization at the given workload bound ([None] = no
    configured parallelism to check). *)
