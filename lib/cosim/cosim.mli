(** Co-simulation: the paper's verification flow (Fig 2A) as a library.

    The real DP-HLS flow checks C-simulation output against RTL
    co-simulation before deployment; here the golden rolling-row engine
    plays the C-sim role and the cycle-level systolic engine the RTL
    role, with an optional third implementation of the PE (typically the
    symbolic datapath's evaluator) standing in for the synthesized
    netlist. A report collects agreement and cycle statistics. *)

type mismatch = {
  index : int;                       (** workload index *)
  golden : Dphls_core.Result.t;
  systolic : Dphls_core.Result.t;
}

type report = {
  total : int;
  agreed : int;
  mismatches : mismatch list;
      (** first [max_mismatches] disagreeing workloads, in order *)
  truncated : bool;
      (** true when more workloads disagreed than [mismatches] holds *)
  mean_cycles : float;
  mean_utilization : float;
}

val passed : report -> bool

val verify :
  ?n_pe:int ->
  ?max_mismatches:int ->
  ?alt_pe:Dphls_core.Pe.f ->
  ?vectors:string ->
  'p Dphls_core.Kernel.t ->
  'p ->
  Dphls_core.Workload.t list ->
  report
(** Run every workload through both engines and compare alignments
    bit-for-bit. Two extra golden passes may run per workload: one with
    the boxed interpreter PE ([Kernel.boxed], checking the compiled
    datapath against the closure it was derived from), and, when
    [alt_pe] is given, one with the alternate PE.

    [max_mismatches] (default 8) bounds how many disagreeing workloads
    the report details; [report.truncated] says whether the cap was hit.

    [vectors] turns on golden-vector capture: the systolic run of every
    workload is recorded and written as
    [<dir>/cosim_<kernel>_w<index>.dpv] ({!Dphls_vectors.Codec}), ready
    for [dphls vectors check]. The directory must exist. *)

val pp_report : Format.formatter -> report -> unit
