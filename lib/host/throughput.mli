(** Device throughput arithmetic (paper §6.2): alignments per second from
    per-alignment cycle counts, the achieved clock, and the outer-loop
    parallelism N_B x N_K; and the one row schema bench results are
    written in. *)

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

(** One bench measurement: a single number, named by the ladder rung
    that produced it (dotted, e.g. ["engine.systolic.band_adaptive"],
    ["pe.generated"], ["batch.overlapped"], ["serve.in_process"]), the
    workload it ran and the metric it is. Every [BENCH_N.json] file is a
    list of these rows, one schema for every bench mode. *)
type row = {
  rung : string;
  kernel : string;  (** workload label, e.g. ["global-edit(#19)"] *)
  len : int option;  (** sequence length; [None] when it varies *)
  n_pe : int option;  (** systolic array height; [None] without one *)
  workers : int option;  (** host worker domains; [None] when unused *)
  metric : string;  (** e.g. ["wall_ns"], ["speedup"], ["req_per_s"] *)
  unit : string;  (** e.g. ["ns"], ["cells"], ["share"], ["1/s"] *)
  value : float;
}

val rows_json : row list -> string
(** The rows as one JSON array of 8-key objects; [None] columns print
    as [null]. *)
