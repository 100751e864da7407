(** The performance-counter catalog.

    Every counter the engines, the traceback walker, the tiler and the
    domain pool can increment is enumerated here, so a metrics sink is
    one preallocated int array and the summary/export code can iterate
    the whole catalog without stringly-typed keys. The catalog is the
    normative list documented in [docs/observability.md]; adding a
    counter means adding a variant (the compiler then points at every
    [match] to update). *)

type t =
  | Cells_evaluated      (** DP cells actually computed (PE firings) *)
  | Cells_band_skipped   (** in-matrix cells pruned by the band *)
  | Wavefronts           (** systolic wavefront slots executed *)
  | Tb_steps             (** traceback FSM iterations (pointer reads) *)
  | Band_window_moves    (** adaptive-band window edge movements *)
  | Tiles                (** GACT tiles executed by the tiler *)
  | Alignments           (** engine runs completed *)
  | Pool_tasks           (** tasks executed by pool workers *)
  | Pool_steals          (** work chunks grabbed from the shared queue *)
  | Pool_idle_waits      (** times a pool worker went idle (queue empty) *)
  | Engine_fastpath_hits (** auto dispatches routed to the bit-parallel engine *)
  | Engine_fastpath_fallbacks
      (** auto dispatches not routed to the bit-parallel engine: the
          golden engine, or the simulator for adaptive bands *)
  | Serve_requests_admitted  (** requests accepted into a serve queue *)
  | Serve_requests_rejected
      (** requests refused with [overloaded] (bounded queue full) *)
  | Serve_requests_expired
      (** requests whose deadline passed before dequeue (never run) *)
  | Serve_cache_hits
      (** requests answered from the serve result cache, or from an
          identical request's answer in the same flush *)
  | Serve_requests_completed
      (** requests answered [ok], from the cache or computed *)
  | Serve_batches (** coalesced engine batches run by serve flushes *)

val all : t array
(** Every counter, in catalog (display) order. *)

val count : int
(** [Array.length all] — the size a {!Metrics.t} sink preallocates. *)

val index : t -> int
(** Dense index into a sink's count array; a bijection onto
    [0, count). *)

val name : t -> string
(** Stable snake_case identifier, e.g. ["cells_evaluated"] — the key
    used in JSON summaries. *)

val unit_name : t -> string
(** The unit the counter counts, e.g. ["cells"], ["steps"]. *)

val describe : t -> string
(** One-line meaning plus which subsystem increments it. *)

val of_name : string -> t option
(** Inverse of {!name}. *)
