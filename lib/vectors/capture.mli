(** Produce golden vectors by running an engine with stream capture on.

    Both captures emit records in execution order — lexicographic
    (chunk, wavefront, kind, PE), cells before the wavefront's window
    record — so two captures of the same configuration diff
    structurally with {!Stream.diff}. *)

val of_trace :
  'p Dphls_core.Kernel.t ->
  'p ->
  n_pe:int ->
  workload:Dphls_core.Workload.t ->
  trace:Dphls_systolic.Trace.t ->
  result:Dphls_core.Result.t ->
  Stream.t
(** Assemble a vector from a capture trace ({!Dphls_systolic.Trace.create_capture})
    that was passed to an {!Dphls_systolic.Engine.run} of the given
    kernel/workload, merging cell events and band-window records into
    execution order. This is the hook cosim's [~vectors] mode uses. *)

val systolic :
  'p Dphls_core.Kernel.t ->
  'p ->
  n_pe:int ->
  Dphls_core.Workload.t ->
  Stream.t * Dphls_core.Result.t
(** Run the systolic engine with capture on and assemble the vector.
    The kernel's own [banding] field is the effective band (callers
    apply overrides to the kernel first). *)

val reference :
  'p Dphls_core.Kernel.t ->
  'p ->
  n_pe:int ->
  Dphls_core.Workload.t ->
  Stream.t * Dphls_core.Result.t
(** Reconstruct the same streams from the golden engine's full
    matrices: [Ref_engine.run_full] scores/pointers read back through the
    schedule arithmetic and [Ref_engine.band_map ~band_pe:n_pe]. The
    golden engine has no band-tracker trajectory, so the vector carries
    no window records; {!Stream.diff} accounts for that. *)
