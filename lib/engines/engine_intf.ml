(** The pluggable-engine contract.

    Every alignment backend a request can choose — the cycle-level
    systolic simulator, the golden rolling-row engine, the bit-parallel
    Myers fast path, and any future dataflow variant — implements {!S}
    and registers in {!Engines}, so host APIs, the CLI and the service
    select engines by name instead of hard-wiring module calls. Code
    that means one engine (cosim, the vector capture, tiling) calls that
    engine directly.

    [run]/[run_batch] mirror {!Dphls_systolic.Engine}: kernel + params +
    workload(s) in, {!Dphls_core.Result.t} out, with optional metrics /
    tracer sinks. Device stats are optional — only cycle-model engines
    produce them. *)

type config = {
  n_pe : int;  (** systolic array height; ignored by non-array engines *)
}

let config ~n_pe () = { n_pe }

exception Unsupported of string
(** Raised by [run]/[run_batch] when the engine cannot execute the
    request (kernel shape or band mode). The message names the
    disqualifying property. *)

module type S = sig
  val name : string

  val run :
    ?metrics:Dphls_obs.Metrics.t ->
    ?tracer:Dphls_obs.Tracer.t ->
    config ->
    'p Dphls_core.Kernel.t ->
    'p ->
    Dphls_core.Workload.t ->
    Dphls_core.Result.t * Dphls_systolic.Engine.stats option

  val run_batch :
    ?overlap:bool ->
    ?metrics:Dphls_obs.Metrics.t ->
    ?tracer:Dphls_obs.Tracer.t ->
    config ->
    'p Dphls_core.Kernel.t ->
    'p ->
    Dphls_core.Workload.t array ->
    (Dphls_core.Result.t * Dphls_systolic.Engine.stats option) array
    * Dphls_systolic.Engine.batch_stats option
end

type t = (module S)
