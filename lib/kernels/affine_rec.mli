(** Border rules of the affine-gap (Gotoh) kernels #2, #4 and #12, whose
    recurrence is [Cells.affine_cell].

    Layers: H = 0, D = 1 (vertical, gap in reference), I = 2 (horizontal,
    gap in query). Gap of length L costs [gap_open + L * gap_extend]
    (both non-positive). *)

val init_row_global :
  gap_open:int -> gap_extend:int -> layer:int -> col:int -> Dphls_core.Types.score
(** Global border: H = open + (col+1)*extend, D/I = -inf. *)

val init_zero : layer:int -> Dphls_core.Types.score
(** Local border: H = 0, D/I = -inf. *)

val origin_global : layer:int -> Dphls_core.Types.score
(** H = 0 at the virtual corner, D/I = -inf. *)
