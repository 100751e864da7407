(** The processing-element interface — the DP-HLS [PE_func] contract.

    A kernel's recurrence is a pure function from the three neighbouring
    cells' layer scores plus the local query/reference characters to this
    cell's layer scores and traceback pointer, exactly the paper's
    Listing 5/6 signature ([dp_mem_up]/[dp_mem_diag]/[dp_mem_left],
    [lc_qry_val]/[lc_ref_val] in; [wt_scr]/[wt_tbp] out).

    Two calling conventions exist:
    - the boxed {!f}: a pure [input -> output] closure that allocates its
      output record — what [Datapath.eval], the reference semantics of
      a kernel's symbolic datapath, returns;
    - the flat {!flat}: an [buffers -> unit] evaluator that reads its
      inputs from and writes its results into a caller-owned {!buffers}
      record, allocating nothing. The engines run every PE through the
      flat contract ([Datapath.flat] of the compiled datapath), which
      is what keeps the wavefront hot path allocation-free. *)

type input = {
  up : Types.score array;    (** layer scores of cell (row-1, col) *)
  diag : Types.score array;  (** layer scores of cell (row-1, col-1) *)
  left : Types.score array;  (** layer scores of cell (row, col-1) *)
  qry : Types.ch;            (** [lc_qry_val]: query character at [row] *)
  rf : Types.ch;             (** [lc_ref_val]: reference character at [col] *)
  row : int;                 (** global row (query index) of this cell *)
  col : int;                 (** global column (reference index) *)
}

type output = {
  scores : Types.score array;  (** [wt_scr] per layer; layer 0 is primary *)
  tb : int;                    (** [wt_tbp]: encoded traceback pointer *)
}

type f = input -> output
(** A recurrence closed over its scoring parameters. Pure: the same input
    always yields the same output. *)

(** The flat PE register file. The engine points the input fields at its
    own planes/scratch rows before each evaluation (reference swaps, no
    copying) and the [b_scores] field at the destination plane row; the
    evaluator writes its layer scores there and the packed pointer into
    [b_tb]. Input arrays must be treated as read-only by the evaluator,
    and [b_scores] is guaranteed not to alias any input array. *)
type buffers = {
  mutable b_up : Types.score array;
  mutable b_diag : Types.score array;
  mutable b_left : Types.score array;
  mutable b_qry : Types.ch;
  mutable b_rf : Types.ch;
  mutable b_row : int;
  mutable b_col : int;
  mutable b_scores : Types.score array;  (** written by the evaluator *)
  mutable b_tb : int;                    (** written by the evaluator *)
}

type flat = buffers -> unit
(** Evaluate one cell from/into the caller's register file. Evaluators
    must not retain the buffer or any array it points to. *)

val create_buffers : n_layers:int -> buffers
(** Fresh register file with [n_layers]-sized score arrays and empty
    character slots. Raises [Invalid_argument] when [n_layers < 1]. *)
