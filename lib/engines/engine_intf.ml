(** The pluggable-engine contract.

    Every alignment backend — the cycle-level systolic simulator, the
    golden rolling-row engine, the bit-parallel Myers fast path, and any
    future dataflow variant — implements {!S} and registers in
    {!Engines}, so host APIs, the CLI, cosim and the vector harness
    select engines by name instead of hard-wiring module calls.

    [run]/[run_batch] mirror {!Dphls_systolic.Engine}: kernel + params +
    workload(s) in, {!Dphls_core.Result.t} out, with optional metrics /
    tracer sinks and (for capture-capable engines) an activity-trace
    hook feeding the golden-vector harness. Device stats are optional —
    only cycle-model engines produce them. *)

(** What an engine can do that a caller must know before asking: the
    CLI refuses [--vcd] on an engine without [capture]. *)
type caps = {
  capture : bool;  (** fills a {!Dphls_systolic.Trace.t} capture stream *)
}

type config = {
  n_pe : int;  (** systolic array height; ignored by non-array engines *)
  golden_chunked : bool;
      (** reference engine only: replay the systolic engine's
          [N_PE]-row chunked traversal so adaptive bands prune the
          exact same cells (cosim's [band_pe]); [false] keeps the
          canonical single-chunk trajectory. *)
}

let config ?(golden_chunked = false) ~n_pe () = { n_pe; golden_chunked }

exception Unsupported of string
(** Raised by [run]/[run_batch] when the engine cannot execute the
    request (kernel shape, band mode, or capture hook outside its
    {!caps}). The message names the disqualifying property. *)

module type S = sig
  val name : string
  val caps : caps

  val run :
    ?trace:Dphls_systolic.Trace.t ->
    ?metrics:Dphls_obs.Metrics.t ->
    ?tracer:Dphls_obs.Tracer.t ->
    config ->
    'p Dphls_core.Kernel.t ->
    'p ->
    Dphls_core.Workload.t ->
    Dphls_core.Result.t * Dphls_systolic.Engine.stats option

  val run_batch :
    ?overlap:bool ->
    ?traces:Dphls_systolic.Trace.t array ->
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
