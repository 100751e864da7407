(** Golden rolling-row DP engine.

    The correctness oracle for the systolic engine (the paper's
    C-simulation verification step) and the default [Golden] engine of
    [Dphls.Align]/[Dphls.Batch]. Like the paper's generated array it
    never holds the score matrix: it walks the matrix over a ring of
    score rows, reads every neighbour (borders and pruned cells
    included) straight from the ring, and keeps only a 16-bit traceback
    plane for the whole matrix. The score site is tracked as cells
    retire ({!Dphls_core.Score_site}).

    Cells are evaluated only through the kernel's row evaluator
    ({!Dphls_core.Kernel.flat_row}), as the paper's compiler inlines
    [PE_func] into the array's loop nest: for a catalog program the
    generated loop over one row interval ({!Dphls_core.Pe_gen.find_row}),
    which reads up, diag and left from the ring, writes each cell's
    layers back and packs its pointer into the plane; for any other
    program the generic row around the bytecode PE. The program picks
    the loop; both compute the same cells.

    Unbanded and fixed-band kernels traverse row-major over a ring of
    two rows, one row-evaluator call per row over its band interval
    ([max 0 (row - w) .. min (ref_len - 1) (row + w)], the whole row
    when unbanded): O([n_layers * ref_len]) words of scores plus 2
    bytes per cell of traceback plane (none when the kernel has no
    traceback). Adaptive-band kernels replay the systolic engine's
    chunked anti-diagonal traversal (chunks of [band_pe] query rows)
    over a ring of [band_pe + 1] rows, one call per decided cell,
    because the adaptive window is steered by completed wavefronts and
    therefore depends on the array height: pass the systolic run's N_PE
    as [band_pe] to prune exactly the same cells. The default
    ([band_pe] = query length) is the canonical single-chunk,
    full-height wavefront, whose ring holds every row. Adaptive bands
    also keep the band tracker's 1-byte-per-cell membership map.
    [band_pe] is ignored for non-adaptive kernels.

    A domain reuses one score ring across the alignments it runs
    ({!run}, {!run_batch}), resetting the prefix each one uses, and the
    domain's traceback plane ({!Dphls_core.Pe.tb_plane}, which the
    systolic simulator shares), so both allocate once per domain rather
    than once per alignment. A buffer above {!retain_cap_bytes} is
    allocated for its call only; {!run_full} always allocates its own.

    A PE traceback pointer outside [0 .. 0xFFFF] raises
    [Invalid_argument] naming the cell ({!Dphls_core.Pe.store_pointer},
    the same refusal as the simulator's); it is never truncated. *)

type matrices = {
  scores : Dphls_core.Types.score array array array;
      (** [scores.(layer).(row).(col)], the objective's worst value when
          pruned *)
  pointers : int array array;
      (** [pointers.(row).(col)], 0 when pruned or when the kernel has no
          traceback *)
  member : row:int -> col:int -> bool;
      (** the band membership the fill computed: {!band_map}'s
          predicate, without a second fill *)
}

val run :
  ?band_pe:int ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  'p Dphls_core.Kernel.t -> 'p -> Dphls_core.Workload.t -> Dphls_core.Result.t
(** Align one pair. Raises [Invalid_argument] on empty sequences.

    [metrics] (default: disabled) receives cells evaluated /
    band-skipped, traceback steps, adaptive window moves, and one
    alignment, added once per run. [tracer] (default: disabled) records
    [fill] and [traceback] spans under the ["engine"] category. See
    {!Dphls_obs}. *)

val run_batch :
  ?band_pe:int ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  'p Dphls_core.Kernel.t -> 'p -> Dphls_core.Workload.t array ->
  Dphls_core.Result.t array
(** {!run} on each workload, in order, resolving the kernel's row
    evaluator ({!Dphls_core.Kernel.flat_row}) once for the whole call.
    Results equal {!run}'s, errors included: the first workload's
    checks still precede the row's resolution. *)

val retain_cap_bytes : int
(** The most a domain keeps of each reused buffer, ring and plane, in
    bytes: {!Dphls_core.Pe.retain_cap_bytes}, 1 MiB. *)

val retained_bytes : unit -> int
(** Bytes of ring and plane the calling domain currently retains. *)

val run_full :
  ?band_pe:int ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  'p Dphls_core.Kernel.t -> 'p -> Dphls_core.Workload.t ->
  Dphls_core.Result.t * matrices
(** Same traversal with the ring sized to every row, also exposing the
    filled matrices (O([n_layers * qry_len * ref_len]) words) and the
    band membership the fill computed (the vector harness's reference
    capture). *)

val band_map :
  ?band_pe:int ->
  'p Dphls_core.Kernel.t -> 'p -> Dphls_core.Workload.t ->
  (row:int -> col:int -> bool)
(** Band membership this engine's fill computes for the workload — the
    static predicate for [None]/[Fixed] banding (no fill runs), the
    realized adaptive window (at [band_pe]) otherwise, which takes a
    whole fill. Used by trace checkers to predict exactly which cells
    the systolic engine fires. *)
