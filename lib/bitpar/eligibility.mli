(** Which kernels the bit-parallel engine may run: the one admission rule.

    Myers's bit-vector algorithm (and its GeneTEK/BitPAl descendants)
    computes unit-cost edit distance at one {e word} of cells per
    operation instead of one cell per PE per cycle, but only for a
    narrow recurrence shape. {!classify} proves or refutes that shape
    statically from the symbolic datapath:

    - exactly one score layer (no affine/two-piece/HMM gap state);
    - a min-plus (or score-equivalent max-plus) datapath over the three
      wavefront moves;
    - match cost 0, and substitution = insertion = deletion = s > 0
      (distance is then s x Levenshtein, still bit-parallel);
    - per-character costs only (no substitution-matrix lookup, no
      multiplicative terms, no local zero-clamp).

    A maximization kernel with linear gaps is score-equivalent to a
    weighted edit distance with substitution weight 2(match - mismatch)
    and indel weight match - 2 gap (both doubled to stay integral);
    it qualifies exactly when those two weights coincide.

    {!mapping} adds the kernel-level gates (one layer, bottom-right
    score site, no traceback) and turns the proof into the
    {!Engine.mapping} the engine runs; {!supports} adds the workload
    gates (an unbanded or fixed band, the global init-border ramp).
    The auto dispatch, the [bitpar] registry engine and [dphls check]
    all ask this module, so a kernel is admitted, refused or reported
    by the same rule with the same reason. *)

type verdict =
  | Eligible of { scale : int; match_ : int; notes : string list }
      (** distance = scale x unit edit distance (scale doubled weights
          for maximization kernels); [match_] is the resolved match
          score (0 for min-plus kernels), which with [scale] is all a
          bit-parallel engine needs to map the kernel's scoring; [notes]
          are the proven qualifying properties in order *)
  | Ineligible of { property : string }
      (** the first disqualifying property, named *)

val classify :
  Dphls_core.Datapath.cell -> Dphls_core.Datapath.bindings -> verdict
(** The shape proof on a symbolic datapath and its bindings. *)

val explain : Format.formatter -> verdict -> unit
(** Derivation for [dphls check --kernel N --explain fastpath]. *)

val mapping : 'p Dphls_core.Kernel.t -> 'p -> (Engine.mapping, string) result
(** The kernel gates, then {!classify} on the kernel's own datapath and
    bindings: a min-plus kernel maps to [Unit_cost], a max-plus one to
    [Doubled]. [Error] names the first gate that fails. Does not look at
    the band or the borders; see {!supports}. *)

val admits :
  qry_len:int ->
  ref_len:int ->
  'p Dphls_core.Kernel.t ->
  'p ->
  Engine.mapping ->
  (Engine.mapping, string) result
(** The workload gates of {!supports} alone, given the kernel's
    {!mapping}: an unbanded or fixed band, then init borders equal to
    the global indel ramp up to the given lengths (checked up to the
    first border cell off it). A caller with many workloads of one
    kernel proves {!mapping} once and admits each workload with this. *)

val supports :
  qry_len:int ->
  ref_len:int ->
  'p Dphls_core.Kernel.t ->
  'p ->
  (Engine.mapping, string) result
(** The whole admission rule for a workload of this shape: {!mapping},
    then {!admits}. [Ok] exactly when {!Engine.run} computes the
    kernel's own scores. *)
