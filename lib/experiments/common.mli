(** Shared experiment machinery: representative-cycle measurement,
    throughput computation and CPU micro-timing. *)

val default_seed : int

val median_cycles :
  Dphls_core.Registry.packed ->
  gen:(Dphls_util.Rng.t -> len:int -> Dphls_core.Workload.t) ->
  n_pe:int -> len:int -> samples:int ->
  float * int
(** [(total, tb_steps)]: the median total device cycles per alignment
    and the median traceback term (truncated to an integer) over
    [samples] workloads drawn from [gen] with a fresh
    {!default_seed} stream, from the systolic simulator at [n_pe]. *)

val model_throughput :
  Dphls_core.Registry.packed ->
  gen:(Dphls_util.Rng.t -> len:int -> Dphls_core.Workload.t) ->
  n_pe:int -> n_b:int -> n_k:int -> len:int -> samples:int ->
  float
(** Alignments/second = N_B*N_K * f(kernel) / median cycles. *)

val time_per_call : (unit -> unit) -> min_seconds:float -> float
(** Wall-clock seconds per invocation, measured by repeated batches
    until [min_seconds] elapses. *)

val cpu_scaled_throughput : per_call_seconds:float -> native_factor:float -> float
(** Single-thread rate scaled to the paper's CPU baseline setting:
    32 threads times the tool's documented native/SIMD factor (see the
    [native_factor] values in {!Dphls_baselines}). *)
