(** Bit-parallel fast-path eligibility ([dphls check] pass 3 of 3).

    Myers's bit-vector algorithm (and its GeneTEK/BitPAl descendants)
    computes unit-cost edit distance at one {e word} of cells per
    operation instead of one cell per PE per cycle — but only for a
    narrow recurrence shape. This pass proves or refutes that shape
    statically from the symbolic datapath, so a host scheduler can
    route eligible queries around the systolic array entirely:

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

    The verdict is always an [Info] finding — eligibility is an
    optimization opportunity, ineligibility is a property, neither is a
    defect. *)

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

val findings : verdict -> Report.finding list
(** One [fastpath-eligible] or [fastpath-ineligible] info. *)

val explain : Format.formatter -> verdict -> unit
(** Derivation for [dphls check --kernel N --explain fastpath]. *)
