(** The engine registry and the one vocabulary for choosing an engine.

    Every backend implementing {!Engine_intf.S} registers here. A caller
    says which engine it wants with a {!choice} — the CLI's [--engine],
    the serve ["engine"] field and [Dphls.Align.engine] are all this one
    type, parsed by {!of_string} — and {!run_batch} is the one place a
    choice becomes engine runs.

    Auto dispatch routes a request to the bit-parallel Myers engine
    exactly when {!Dphls_bitpar.Eligibility.supports} admits it — the
    shape proof on the kernel's own datapath and bindings, one layer
    scored at the bottom-right cell, no traceback, an unbanded or fixed
    band and the global init-border ramp. Otherwise it falls back to the
    golden engine for unbanded and fixed-band kernels, whose answers carry the
    device cycles of the closed-form model
    ({!Dphls_systolic.Engine.cycles_estimate}) at the choice's N_PE,
    and to the systolic simulator for adaptive bands, whose window
    depends on the array height. Either way the decision is
    observable: one [engine_fastpath_hits] or [engine_fastpath_fallbacks]
    bump per dispatch. *)

val systolic : Engine_intf.t
(** The cycle-level systolic-array simulator ({!Dphls_systolic.Engine}). *)

val reference : Engine_intf.t
(** The golden rolling-row engine ({!Dphls_reference.Ref_engine}) on
    its canonical traversal; it produces no device stats. *)

val bitpar : Engine_intf.t
(** The bit-parallel Myers engine ({!Dphls_bitpar}): score-only, one
    word of cells per operation, unbanded or fixed bands. Raises
    {!Engine_intf.Unsupported}, with the reason, for workloads
    {!Dphls_bitpar.Eligibility.supports} refuses. *)

val all : Engine_intf.t list
(** Registry order: systolic, reference, bitpar. *)

val name : Engine_intf.t -> string

(** How an alignment runs. [N_PE], the systolic array height, lives in
    the constructors that reach the array; the other engines have no
    array. *)
type choice =
  | Golden  (** the exact rolling-row engine, {!reference} *)
  | Systolic of int  (** the cycle-level array, {!systolic}, at this N_PE *)
  | Bitpar
      (** the bit-parallel engine, {!bitpar}: score-only, and it raises
          {!Engine_intf.Unsupported} for workloads
          {!Dphls_bitpar.Eligibility.supports} refuses *)
  | Auto of int
      (** {!select} per workload: {!bitpar} when the kernel and workload
          are fully fast-path eligible, else {!reference} with modeled
          cycles at this N_PE, or {!systolic} at this N_PE for adaptive
          bands. Results never depend on the routing. *)

val of_string : n_pe:int -> string -> (choice, string) result
(** ["auto"], ["systolic"], ["reference"] or ["bitpar"], with [n_pe]
    for the constructors that carry one. The error message lists the
    valid values. [of_string ~n_pe (choice_name c) = Ok c] whenever [c]
    carries [n_pe]. *)

val choice_name : choice -> string
(** ["auto"], or the registry {!name} of the engine the choice forces. *)

val select :
  ?metrics:Dphls_obs.Metrics.t ->
  qry_len:int ->
  ref_len:int ->
  'p Dphls_core.Kernel.t ->
  'p ->
  Engine_intf.t
(** The auto-dispatch policy: {!bitpar} iff
    {!Dphls_bitpar.Eligibility.supports} admits the kernel+workload;
    else {!reference} when
    the kernel's band is [None] or [Fixed]; else (an adaptive band)
    {!systolic}. Never changes results — the routed engine computes the
    same scores. Bumps [Engine_fastpath_hits] or
    [Engine_fastpath_fallbacks]. *)

val resolve :
  ?metrics:Dphls_obs.Metrics.t ->
  qry_len:int ->
  ref_len:int ->
  choice ->
  'p Dphls_core.Kernel.t ->
  'p ->
  Engine_intf.t
(** The engine a choice runs on a workload of this shape: {!select}
    for [Auto], the named engine otherwise. *)

(** One workload's result, tagged with the engine that ran it. *)
type ran = {
  result : Dphls_core.Result.t;
  engine : string;
  cycles : Dphls_systolic.Engine.cycles option;
      (** device cycles: the simulator's on {!systolic}; under [Auto],
          the closed-form model's for {!reference} answers; [None]
          otherwise (forced [Golden], {!bitpar}) *)
  stats : Dphls_systolic.Engine.stats option;
      (** the simulator's own stats (PE fires, slots, utilization):
          {!systolic} runs only *)
}

val run_batch :
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  choice ->
  'p Dphls_core.Kernel.t ->
  'p ->
  Dphls_core.Workload.t array ->
  ran array
(** The one dispatch policy. Resolves each workload ({!resolve}: one
    fast-path counter bump per workload under [Auto], which proves the
    kernel's shape ({!Dphls_bitpar.Eligibility.mapping}) once per call
    and meets each workload with {!Dphls_bitpar.Eligibility.admits},
    then runs the admitted ones on that mapping); when they all
    pick the same engine the whole array runs as one engine batch,
    otherwise each workload runs alone. Results are in workload order.
    Under [Auto n], the golden engine's answers carry the modeled
    cycles at N_PE [n]: the numbers [Systolic n] simulates. The
    dispatch returns answers only: a report that prints prologue
    overlap feeds their cycles to
    {!Dphls_systolic.Engine.batch_stats_of}.

    Each of those batches is the engine's own [run_batch ?metrics
    ?tracer] at the choice's [N_PE] (1 for [Golden] and [Bitpar], which
    have no array), in the calling domain: a caller that fans a batch
    out over domains (the serve layer) cuts it before this call, one
    dispatch per slice. An empty array runs nothing. Engine refusals
    ({!Engine_intf.Unsupported}) propagate. *)
