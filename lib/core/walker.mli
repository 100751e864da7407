(** The traceback walker: drives a kernel's FSM over stored pointers.

    Both engines share this walker; they differ only in how pointers are
    stored (a row-major 16-bit plane vs. banked, address-coalesced
    traceback memory),
    which the [ptr_at] callback abstracts. *)

type outcome = {
  path : Traceback.op list;  (** operations in sequence order *)
  end_cell : Types.cell;     (** last in-matrix cell visited *)
  steps : int;               (** FSM iterations (pointer reads), the cycle
                                 cost of the traceback stage *)
}

val walk :
  ?metrics:Dphls_obs.Metrics.t ->
  fsm:Traceback.fsm ->
  stop:Traceback.stop_rule ->
  ptr_at:(row:int -> col:int -> int) ->
  start:Types.cell ->
  qry_len:int ->
  ref_len:int ->
  unit ->
  outcome
(** Adds the walk's [steps] to the [tb_steps] counter of [metrics]
    (default: the disabled sink, costing one branch).

    Raises [Failure] if the FSM exceeds {!Traceback.max_steps} (an
    ill-formed kernel, e.g. a [Stay] loop). The message names the
    offending [(state, ptr, row, col)] so runtime escapes of the static
    checker ([Dphls_analysis.Fsm_check]) are debuggable; both engines
    share this walker and therefore this diagnostic. *)
