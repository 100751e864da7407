(** The engine registry.

    Every backend implementing {!Engine_intf.S} registers here; hosts,
    the CLI, cosim and the vector harness pick engines by name (or let
    {!select} pick) instead of hard-wiring module calls.

    Auto dispatch routes a request to the bit-parallel Myers engine
    exactly when the whole eligibility chain holds — the
    {!Dphls_analysis.Fastpath} shape proof on the kernel's catalog
    datapath, the live-parameter cost probe, the global init-border
    ramp, an unbanded or fixed band, and no traceback — and otherwise
    falls back to the systolic engine. Either way the decision is
    observable: one [engine_fastpath_hits] or [engine_fastpath_fallbacks]
    bump per dispatch. *)

val systolic : Engine_intf.t
(** The cycle-level systolic-array simulator ({!Dphls_systolic.Engine}). *)

val reference : Engine_intf.t
(** The golden rolling-row engine ({!Dphls_reference.Ref_engine}).
    [config.golden_chunked] replays the systolic chunked traversal for
    cosim; it produces no device stats and supports no capture stream. *)

val bitpar : Engine_intf.t
(** The bit-parallel Myers engine ({!Dphls_bitpar}): score-only, one
    word of cells per operation, unbanded or fixed bands. Raises
    {!Engine_intf.Unsupported} for kernels outside the proven fast-path
    shape. *)

val all : Engine_intf.t list
(** Registry order: systolic, reference, bitpar. *)

val name : Engine_intf.t -> string
val caps : Engine_intf.t -> Engine_intf.caps

val names : string list

val find : string -> Engine_intf.t option

(** A CLI-level engine request: a concrete engine, or per-workload auto
    dispatch. *)
type choice = Auto | Forced of Engine_intf.t

val of_string : string -> (choice, string) result
(** ["auto"], ["systolic"], ["reference"] or ["bitpar"]; the error
    message lists the valid values. *)

val choice_name : choice -> string

val select :
  ?metrics:Dphls_obs.Metrics.t ->
  qry_len:int ->
  ref_len:int ->
  'p Dphls_core.Kernel.t ->
  'p ->
  Engine_intf.t
(** The auto-dispatch policy: {!bitpar} iff the kernel+workload is fully
    fast-path eligible (and needs no traceback), else {!systolic}.
    Never changes results — the routed engine computes the same scores.
    Bumps [Engine_fastpath_hits] or [Engine_fastpath_fallbacks]. *)

val resolve :
  ?metrics:Dphls_obs.Metrics.t ->
  qry_len:int ->
  ref_len:int ->
  choice ->
  'p Dphls_core.Kernel.t ->
  'p ->
  Engine_intf.t
(** [Forced e] is [e]; [Auto] is {!select}. *)

val tile_runner :
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  Engine_intf.t ->
  Engine_intf.config ->
  'p Dphls_core.Kernel.t ->
  'p ->
  band:Dphls_core.Banding.t option ->
  Dphls_core.Workload.t ->
  Dphls_core.Result.t * int
(** The [run] closure {!Dphls_tiling.Tiling.align} expects, built from
    any registered engine: overrides the kernel's band per tile when the
    tiler asks, returns total device cycles (0 for engines without a
    cycle model). *)
