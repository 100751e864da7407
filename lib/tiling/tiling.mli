(** GACT-style tiling for long alignments (paper contribution 5, §7.3).

    The FPGA kernel supports fixed maximum sequence lengths; longer
    alignments run tile-by-tile on the host (Darwin's GACT heuristic
    [Turakhia et al. 2018]): align a T x T tile globally, commit only the
    path prefix that consumes at most T - O characters per side (O is the
    overlap kept for the next tile to re-converge), advance the offsets
    and repeat. The committed path is optimal within each tile and, with
    sufficient overlap, matches the full alignment in practice. *)

type config = {
  tile : int;     (** T: tile edge, the kernel's MAX_*_LENGTH *)
  overlap : int;  (** O: characters re-examined by the next tile *)
}

val default : config
(** T = 256, O = 32 (GACT-like proportions). *)

type outcome = {
  path : Dphls_core.Traceback.op list;  (** stitched whole-alignment path *)
  tiles : int;                          (** tiles executed *)
  tile_stats : (int * int * int) list;
      (** per tile: (query length, reference length, device cycles) *)
}

val align :
  ?band:Dphls_core.Banding.t ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  config ->
  run:
    (band:Dphls_core.Banding.t option ->
    Dphls_core.Workload.t ->
    Dphls_core.Result.t * int) ->
  query:Dphls_core.Types.seq ->
  reference:Dphls_core.Types.seq ->
  outcome
(** [run] executes a global-alignment kernel on one tile and returns the
    result plus its cycle cost (0 if unknown);
    [Dphls_systolic.Engine.tile_runner] builds one from the simulator.
    Requires [0 < overlap < tile]. Progress is guaranteed: each
    non-final tile commits at least one character on at least one side.

    [?band] is forwarded verbatim to [run] on every tile: since tiles
    never exceed [tile] characters per side, a per-tile band (fixed or
    adaptive, see {!Dphls_core.Banding}) composes with tiling into a
    GACT-style banded long-read aligner. [run] is expected to override
    its kernel's [banding] field with the given band when it is [Some].
    Default [None] keeps the kernel's own banding.

    The systolic engine runs the kernel's fused wave loop
    ({!Dphls_core.Kernel.flat_wave}) and the golden engine its fused
    row loop ({!Dphls_core.Kernel.flat_row}), so tiled alignments get
    the allocation-free hot path per tile.

    [metrics] (default: disabled) receives the [tiles] counter once at
    the end; per-cell counters come from whatever engine [run] invokes
    (thread the same sink into it). [tracer] (default: disabled) records
    one ["tile"] span per executed tile under the ["tiling"] category —
    a constant span name, so {!Dphls_obs.Summary} aggregates all tiles
    into one latency histogram row. *)
