(** Datapath cell definitions for the kernel catalog.

    Each value here is the expression-IR description of one PE datapath
    (paper §4 step 2, Listing 4): the per-layer score recurrences plus the
    packed traceback fields. The kXX modules pair these cells with their
    parameter bindings in [Kernel.t]'s [datapath] field — the kernel's
    one definition, which the engines run compiled
    ([Dphls_core.Kernel.flat_pe]), the RTL emitter lowers and the static
    analyses ([Dphls_analysis]) read.

    This module deliberately depends only on [Kdefs], [Dphls_core] and
    [Dphls_alphabet] so the kXX kernel modules can reference it without a
    dependency cycle. *)

open Dphls_core.Datapath

val select_first_best :
  objective:Dphls_util.Score.objective -> (expr * int) list -> expr
(** Expression computing the tag of the first candidate attaining the
    optimum: listing candidates in preference order fixes the tie-break,
    since a later candidate wins only when strictly better. Raises
    [Invalid_argument] on an empty candidate list. *)

val dna_sub : expr
(** [match]/[mismatch] parameter select on [Qry 0]/[Ref 0] equality. *)

val linear_global_cell : cell
val linear_local_cell : cell
val affine_cell : local:bool -> cell
val two_piece_cell : cell

val profile_cell : match_:int -> mismatch:int -> gap_symbol:int -> cell
(** Parameterised by the substitution scores: the sum-of-pairs matrix is
    baked into the expression as constants. *)

val dtw_cell : cell
val sdtw_cell : cell
val viterbi_cell : cell
val protein_cell : cell

val edit_cell : cell
(** Unit-cost Levenshtein (#19): min-plus over the three wavefront
    moves, free matches, [sub]/[indel] costs. With the default unit
    bindings this is the shape the checker's fast-path classifier
    proves Myers/GeneTEK bit-parallel eligible. *)
