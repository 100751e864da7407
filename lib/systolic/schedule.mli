(** Wavefront schedule arithmetic for the linear systolic array (§5.1).

    Query rows are divided into chunks of [N_PE] consecutive rows; within
    a chunk, PE [k] owns row [chunk*N_PE + k] and computes cell
    (row, col) at wavefront [w = k + col]. Traceback pointers are address-
    coalesced: every PE writes wavefront [w] of chunk [c] to the same
    address [c * wavefronts_per_chunk + w] of its private bank (§5.2).

    {b Schedule-legality contract.} Cell (row, col) on wavefront [w]
    may only read cells on wavefronts [w-1] and [w-2] — exactly the
    {!Dphls_core.Datapath.wavefront_stencil} offsets NW/N/W. The
    engines double-buffer precisely those two score planes, so a PE
    whose datapath read any deeper (expressible via [Datapath.Nbr])
    would consume an already-overwritten plane. The [Depend] pass of
    [dphls check] proves every catalog datapath confined to the stencil
    before the engines ever run it ([depend-out-of-stencil]). *)

type t = {
  n_pe : int;
  qry_len : int;
  ref_len : int;
  n_chunks : int;
  wavefronts_per_chunk : int;  (** ref_len + n_pe - 1 *)
}

val create : n_pe:int -> qry_len:int -> ref_len:int -> t
(** Raises [Invalid_argument] when [n_pe < 1] or either length is
    empty — a non-positive PE count would silently produce nonsense
    chunk counts. *)

val chunk_of_row : t -> int -> int
val pe_of_row : t -> int -> int

val cell_of : t -> chunk:int -> pe:int -> wavefront:int -> Dphls_core.Types.cell option
(** The cell PE [pe] computes at the given wavefront, or [None] when the
    PE is idle (column out of range or row beyond the query). *)

val tb_address : t -> row:int -> col:int -> int * int
(** (bank, address) of a cell's traceback pointer under address
    coalescing: bank = PE index, address = chunk * W + wavefront. *)

val tb_depth : t -> int
(** Words per bank: n_chunks * wavefronts_per_chunk. *)

val active_wavefronts :
  t -> banding:Dphls_core.Banding.t option -> chunk:int -> (int * int) option
(** Inclusive wavefront range during which at least one PE of the chunk
    has an in-band, in-range cell; [None] if the chunk is fully pruned.
    The hardware only sequences these wavefronts, which is how banding
    (#11-#13) reduces latency. [Adaptive] bands are decided per
    wavefront at run time, so the static range is the full unbanded one
    and {!Engine.run} reports the dynamically active count instead. *)

val compute_cycles : t -> banding:Dphls_core.Banding.t option -> ii:int -> int
(** Scoring-stage cycles: sum over chunks of active wavefronts x II.
    For [Adaptive] banding this is the static (unbanded) upper bound. *)

val prologue_cycles : t -> int
(** Sequential query-load plus init-buffer writes (init row/col written
    concurrently; query packed 8 chars/word, ceiling — a trailing
    partial word costs a full cycle). The paper notes DP-HLS performs
    these before compute, unlike hand-written RTL which overlaps them
    (§7.3); {!Engine.run_batch} with [~overlap:true] recovers the
    hideable part. *)

val reduction_cycles : t -> int
(** Tree reduction over per-PE local maxima (§5.2), once per alignment. *)

val pipeline_fill_cycles : t -> int
(** Fixed pipeline fill/drain allowance. *)
