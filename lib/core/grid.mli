(** Border- and band-aware neighbour access. Both engines take their
    border values from here (the golden engine writes them into its
    score-row ring once per row) and the vector replay assembles whole
    PE inputs with it, so all of them see bit-identical PE inputs.

    The DP matrix is surrounded by a virtual row/column at index -1 whose
    values come from the kernel's [init_row]/[init_col]/[origin]; pruned
    (out-of-band) cells read as the objective's worst value. *)

type 'p t

val create :
  ?in_band:(row:int -> col:int -> bool) ->
  'p Kernel.t -> 'p -> qry_len:int -> ref_len:int ->
  read:(row:int -> col:int -> layer:int -> Types.score) ->
  'p t
(** [read] must return the stored score of an in-matrix, in-band cell;
    it is never called for border or pruned coordinates. [in_band]
    overrides band membership (defaults to the kernel's static
    {!Banding.in_band}); engines running an [Adaptive] band must inject
    their {!Banding.Tracker} membership here, since adaptive membership
    is not a static predicate. *)

val neighbor : 'p t -> row:int -> col:int -> layer:int -> Types.score
(** Score of any coordinate in [-1, len): border, pruned or stored. *)

val fill_input :
  'p t -> Pe.buffers -> query:Types.seq -> reference:Types.seq ->
  row:int -> col:int -> unit
(** Assemble the full [PE_func] input for cell (row, col) in the
    caller's register file in place (flat contract): fills [b_up]/[b_diag]/[b_left] element-wise and points
    [b_qry]/[b_rf]/[b_row]/[b_col] at cell (row, col). Allocates
    nothing. *)
