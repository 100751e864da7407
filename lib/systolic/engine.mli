(** Cycle-level simulator of the DP-HLS back-end (§5).

    Executes a kernel on a linear systolic array of [N_PE] PEs exactly as
    the generated RTL would: rows chunked across PEs, one wavefront per II
    cycles, inter-PE values flowing through the two-deep wavefront
    registers, chunk-to-chunk rows through the Preserved Row Score Buffer,
    and the alignment's best cell found by per-PE local tracking plus a
    final reduction. Traceback pointers go into the 16-bit plane the
    golden engine fills ({!Dphls_core.Pe.store_pointer}) and are walked
    back by the same {!Dphls_core.Walker.result}; the hardware's banked,
    address-coalesced traceback RAM is the cost model
    {!Schedule.tb_address}/{!Schedule.tb_depth}, not a second store. A
    wavefront evaluates its cells in one call of the kernel's wave loop
    ({!Dphls_core.Kernel.flat_wave}, resolved once per {!run} or
    {!run_batch} call), the software form of the wavefront loop with
    [PE_func] inlined; per-alignment state is sized to the PEs that own
    a row, however tall the array.
    Alignment results are bit-identical to {!Dphls_reference}
    (enforced by the differential test suite); in addition the simulator
    reports the cycle breakdown that drives every throughput number in
    the reproduction.

    Internally the engine is decomposed into four stages in the
    task-parallel HLS style — fetch/init (the prologue), wavefront
    compute, best-cell reduction, traceback — and runs them in that
    order for one workload before fetching the next, as the generated
    array does (DP-HLS does not overlap its prologue with compute). The
    overlap the hand-written RTL baselines implement is accounting over
    the per-alignment cycles ({!batch_stats_of}), not a second run
    order. *)

type cycles = {
  prologue : int;   (** sequential query load + init-buffer writes *)
  compute : int;    (** wavefront pipeline (band-aware) x II *)
  reduction : int;  (** best-cell reduction over PEs *)
  traceback : int;  (** FSM steps reading pointer memory *)
  fill : int;       (** pipeline fill/drain allowance *)
  total : int;      (** sequential: all five terms summed *)
}

type stats = {
  cycles : cycles;
  pe_fires : int;          (** cells computed *)
  pe_slots : int;          (** N_PE x executed wavefronts *)
  utilization : float;     (** fires / slots *)
  tb_words : int;          (** traceback pointers stored *)
}

(** Batch-level cycle accounting from {!run_batch}. *)
type batch_stats = {
  alignments : int;
  seq_cycles : int;         (** sum of per-alignment [cycles.total] *)
  overlapped_cycles : int;  (** [seq_cycles - hidden_cycles] *)
  hidden_cycles : int;
      (** sum over alignments [i > 0] of
          [min prologue_i compute_(i-1)] when [~overlap:true]; [0]
          otherwise. The first prologue is never hidden and nothing
          hides under reduction/traceback (shared units). *)
}

val assemble_cycles :
  prologue:int -> compute:int -> reduction:int -> traceback:int ->
  fill:int -> cycles
(** Assemble the per-alignment breakdown from its five terms, deriving
    [total]. All of the engine's own accounting goes through this one
    constructor. *)

val run :
  ?trace:Trace.t ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  Config.t ->
  'p Dphls_core.Kernel.t ->
  'p ->
  Dphls_core.Workload.t ->
  Dphls_core.Result.t * stats
(** Raises [Invalid_argument] on empty sequences or malformed kernels.

    [metrics] (default: disabled) receives the run's counters — cells
    evaluated / band-skipped, executed wavefronts, traceback steps,
    adaptive-band window moves, one alignment — added once at the end of
    the run from totals the engine already tracks, so the wavefront hot
    path stays allocation-free. [tracer] (default: disabled) records
    [prologue] / [compute] / [reduction] / [traceback] wall-clock spans
    under the ["engine"] category. See {!Dphls_obs}. *)

val run_batch :
  ?overlap:bool ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  Config.t ->
  'p Dphls_core.Kernel.t ->
  'p ->
  Dphls_core.Workload.t array ->
  (Dphls_core.Result.t * stats) array * batch_stats
(** {!run} on each workload in order, each finishing its traceback
    before the next is fetched, with the kernel's wave loop resolved
    once for the batch, plus the batch accounting. [overlap] (default
    [false]) reaches only {!batch_stats_of}: with it, [batch_stats]
    credits alignment [i]'s prologue as hidden under alignment
    [i-1]'s compute. Results, per-alignment [stats] and [metrics] do
    not depend on it. *)

val tile_runner :
  Config.t ->
  'p Dphls_core.Kernel.t ->
  'p ->
  band:Dphls_core.Banding.t option ->
  Dphls_core.Workload.t ->
  Dphls_core.Result.t * int
(** [tile_runner config kernel params] is the [run] closure
    [Dphls_tiling.Tiling.align] expects: one {!run} per tile, with the
    kernel's band replaced when the tiler passes [Some band] (kept on
    [None]), returning the tile's total device cycles. *)

val cycles_estimate :
  ?live_wavefronts:int ->
  Config.t -> 'p Dphls_core.Kernel.t -> 'p ->
  qry_len:int -> ref_len:int -> tb_steps:int -> cycles
(** The per-alignment cycle model, in closed form: the one function
    behind every per-alignment {!cycles}. The simulator's {!run} reports
    it from the run's own counts, and [Auto] dispatch attaches it to
    the golden engine's answers. [tb_steps] is the traceback walk's
    step count ({!Dphls_core.Result.t}'s [tb_steps]; 0 for kernels
    without traceback). [live_wavefronts] is the number of wavefronts
    with at least one live PE: it sets the compute term of an adaptive
    band, which only a run knows (absent: the static, unbanded upper
    bound). Unbanded and fixed-band compute terms come from the static
    schedule and ignore it. The test suite pins the model to the
    simulator term by term for every non-adaptive kernel. *)

val batch_stats_of : overlap:bool -> cycles array -> batch_stats
(** Batch accounting over per-alignment cycles, in batch order: the one
    definition of prologue overlap, behind every {!batch_stats}.
    [hidden_cycles] sums [min prologue_i compute_(i-1)] over [i > 0]
    when [overlap], else 0 — the clamp the hand-written RTL baselines
    use: overlap hides a prologue, it never drops a total below its
    fill, compute, reduction and traceback. *)
