(** Locating the kernel's objective value in the DP matrix (and the
    traceback start) according to the kernel's {!Traceback.start_rule}.

    Shared by both engines: each feeds every computed (in-band) cell
    that {!observes} admits into a {!Traceback.Best_cell} as the cell
    retires, then calls {!resolve}. Ties break canonically toward the
    lowest (row, col), so the site does not depend on visit order. *)

val first_col : Traceback.start_rule -> qry_len:int -> ref_len:int -> row:int -> int
(** The candidate cells of row [row] are its columns [first_col ..
    ref_len - 1] (none when it is [ref_len]): every rule admits a
    suffix of each row, so an engine that retires a row interval at a
    time observes a sub-interval of it. *)

val observes :
  Traceback.start_rule -> qry_len:int -> ref_len:int -> row:int -> col:int -> bool
(** Whether cell (row, col)'s layer-0 score is a candidate for the
    score site: the bottom-right cell, any cell, the last row, or the
    last row and last column ([col >= first_col ...]). *)

val resolve :
  objective:Dphls_util.Score.objective ->
  qry_len:int ->
  ref_len:int ->
  Traceback.Best_cell.t ->
  Types.cell * Types.score
(** The best observed cell and its score. When no cell was observed
    (every candidate was pruned) the site is the bottom-right cell with
    the objective's worst value, so callers still get a well-formed
    result. *)
