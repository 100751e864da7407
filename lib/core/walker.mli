(** The traceback walker: drives a kernel's FSM over stored pointers.

    Both exact engines store their pointers in the same traceback plane
    ({!Pe.store_pointer}) and finish an alignment with the same
    {!result}, which walks that plane. {!walk} itself reads pointers
    through a [ptr_at] callback, so a test can drive it with pointers of
    its own. *)

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

val result :
  ?metrics:Dphls_obs.Metrics.t ->
  Traceback.spec option ->
  tb:Bytes.t ->
  start:Types.cell ->
  score:Types.score ->
  cells:int ->
  qry_len:int ->
  ref_len:int ->
  Result.t
(** An exact engine's answer once its score site is resolved to [start]
    with [score]: {!Result.score_only} when the kernel has no traceback
    spec, else the alignment {!walk} finds from [start] over the
    traceback plane [tb] ({!Pe.pointer_at}), with [cells] evaluated
    cells and the walk's steps. [metrics] gets the walk's [tb_steps] as
    in {!walk}. *)
