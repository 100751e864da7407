(** Device throughput arithmetic (paper §6.2): alignments per second from
    per-alignment cycle counts, the achieved clock, and the outer-loop
    parallelism N_B x N_K. *)

val alignments_per_sec :
  cycles_per_alignment:float -> freq_mhz:float -> n_b:int -> n_k:int -> float

val cells_per_sec :
  cycles_per_alignment:float -> freq_mhz:float -> n_b:int -> n_k:int ->
  cells:int -> float
(** Giga-cell-level rate helper (GCUPS x 1e9) for GPU-style comparisons. *)

val iso_cost :
  throughput:float -> cost_per_hour:float -> reference_cost_per_hour:float -> float
(** Normalize a baseline's throughput to the reference instance's price
    (the paper's iso-cost comparison: F1 at $1.65/h). *)

(** One banding-mode measurement of the same alignment workload, as
    reported by the benchmark harness: how many DP cells the band let
    the engine compute, at what score, and how long it took. *)
type band_run = {
  mode : string;            (** "none" | "fixed" | "adaptive" *)
  width : int option;       (** band half-width, None for "none" *)
  threshold : int option;   (** adaptive score-drop threshold *)
  score : int;
  cells_computed : int;     (** PE fires = in-band cells *)
  total_cells : int;        (** qry_len * ref_len *)
  device_cycles : int;
  wall_ns : float;          (** host wall-clock for the run *)
}

val cells_fraction : band_run -> float
(** [cells_computed / total_cells]; raises on [total_cells <= 0]. *)

val band_json : band_run list -> string
(** Renders the runs as a JSON array (the BENCH_2.json payload). *)

(** One PE-level measurement of a kernel's datapath over every cell of
    one workload: the reference interpreter [Datapath.eval] vs the
    compiled flat program the engines run, as reported by
    [bench --pe-only] (the BENCH_3.json payload). *)
type pe_run = {
  kernel : string;       (** shape label, e.g. "linear(#1)" *)
  cells : int;           (** DP cells per sweep *)
  eval_ns : float;       (** wall-clock per sweep, [Datapath.eval] *)
  compiled_ns : float;   (** wall-clock per sweep, compiled program *)
}

val pe_cells_per_sec : cells:int -> ns:float -> float
(** Cell-update rate from one wall-clock measurement; raises on
    [ns <= 0]. *)

val pe_speedup : pe_run -> float
(** [eval_ns / compiled_ns]; raises on [compiled_ns <= 0]. *)

val pe_json : pe_run list -> string
(** Renders the runs (with derived rates and speedups) as a JSON array
    (the BENCH_3.json payload). *)

(** One prologue-overlap measurement of a batch of alignments: the
    sequential staged engine vs the same batch with each alignment's
    prologue pipelined under its predecessor's compute, as reported by
    [bench --overlap] (the BENCH_4.json payload). *)
type overlap_run = {
  kernel : string;           (** shape label, e.g. "global-linear(#1)" *)
  n_pe : int;
  alignments : int;          (** batch size *)
  freq_mhz : float;          (** modeled device clock for wall-time *)
  seq_cycles : int;          (** sum of per-alignment sequential totals *)
  overlapped_cycles : int;   (** seq_cycles - hidden_cycles *)
  hidden_cycles : int;       (** prologue cycles hidden under compute *)
  seq_host_ns : float;       (** host simulator wall, [~overlap:false] *)
  overlap_host_ns : float;   (** host simulator wall, [~overlap:true] *)
}

val overlap_cycle_reduction : overlap_run -> float
(** [hidden_cycles / seq_cycles]; raises on [seq_cycles <= 0]. *)

val overlap_device_ns : overlap_run -> int -> float
(** Device wall-clock for a cycle count at the run's modeled clock;
    raises on [freq_mhz <= 0]. The overlap win shows up here: the
    host simulator performs the same work either way (it only
    reorders it), but the modeled device finishes the batch
    [hidden_cycles / freq] sooner. *)

val overlap_device_speedup : overlap_run -> float
(** [seq_cycles / overlapped_cycles] — the device wall-clock win;
    raises on [overlapped_cycles <= 0]. *)

val overlap_json : overlap_run list -> string
(** Renders the runs (with derived reduction, device wall times and
    speedup) as a JSON array (the BENCH_4.json payload). *)

(** Measured-vs-modeled N_K scaling: how the wall-clock speedups that
    {!Pool} actually achieves line up against the paper's analytical
    model, in which N_K channels scale throughput linearly. *)
type scaling_point = {
  workers : int;
  measured_speedup : float;  (** baseline makespan / parallel makespan *)
  modeled_speedup : float;   (** linear N_K model at [workers] channels *)
  efficiency : float;        (** measured / modeled, 1.0 = ideal *)
}

val measured_speedup :
  baseline:Scheduler.report -> parallel:Scheduler.report -> float
(** Makespan ratio of two runs of the same batch ({!Pool.run} reports
    or {!Scheduler.run_channel} reports alike). *)

val scaling :
  baseline:Scheduler.report -> (int * Scheduler.report) list -> scaling_point list
(** [scaling ~baseline points] compares each [(workers, report)]
    measurement against the analytical model. [baseline] is the
    single-worker run of the same batch. *)

(** One bit-parallel fast-path measurement of the same unit-cost
    alignment workload: the compiled systolic simulator vs the Myers
    bit-parallel engine on kernel #19, as reported by
    [bench --fastpath] (the BENCH_5.json payload). *)
type fastpath_run = {
  fp_kernel : string;        (** shape label, e.g. "global-edit(#19)" *)
  fp_qry_len : int;
  fp_ref_len : int;
  fp_cells : int;            (** qry_len x ref_len *)
  fp_n_pe : int;             (** systolic array height of the baseline *)
  fp_systolic_ns : float;    (** host wall per alignment, compiled systolic *)
  fp_bitpar_ns : float;      (** host wall per alignment, bit-parallel *)
}

val fastpath_speedup : fastpath_run -> float
(** [systolic_ns / bitpar_ns]; raises on [bitpar_ns <= 0]. *)

val fastpath_json : fastpath_run list -> string
(** Renders the runs (with derived Mcells/s rates and speedups) as a
    JSON array (the BENCH_5.json payload). *)

(** One [bench --serve] soak: the sustained-throughput and latency
    profile of a {!Dphls_serve.Server} loopback replay, plus the two
    RSS probes the memory-flatness gate compares (the BENCH_6.json
    payload). *)
type serve_soak = {
  sv_requests : int;         (** request lines submitted *)
  sv_completed : int;        (** [ok] responses (cached + computed) *)
  sv_cache_hits : int;
  sv_rejected : int;         (** [overloaded] responses *)
  sv_expired : int;          (** [deadline_exceeded] responses *)
  sv_batches : int;          (** coalesced engine runs *)
  sv_distinct_pairs : int;   (** size of the Zipf-sampled request pool *)
  sv_wall_s : float;
  sv_p50_ms : float;
  sv_p99_ms : float;
  sv_max_ms : float;
  sv_slo_p99_ms : float;     (** the gate the soak was run against *)
  sv_rss_first_kb : int;     (** VmRSS after the warm-up window (0 when
                                 /proc is unavailable) *)
  sv_rss_last_kb : int;      (** VmRSS after the final request *)
}

val serve_req_per_sec : serve_soak -> float
(** [completed / wall_s]; raises on [wall_s <= 0]. *)

val serve_json : serve_soak -> string
(** Renders the soak (with the derived req/s rate and cache hit rate)
    as one JSON object (the BENCH_6.json payload). *)
