(** Traceback strategies and the traceback finite-state machine.

    DP-HLS models traceback as an FSM whose state identifies the scoring
    matrix currently being walked and whose input is the stored pointer of
    the current cell (paper §4 step 4 / Listing 7). The [Stay] move lets a
    transition switch matrices (e.g. H -> E in affine gap models) without
    consuming a cell, which is what gives the paper's pointer widths:
    2 bits for linear kernels, 4 for affine (2 for H's source + 1 each for
    E/F extension), 7 for two-piece affine. *)

type move =
  | Diag  (** consume one query and one reference character (match/mismatch) *)
  | Up    (** consume one query character (deletion w.r.t. reference) *)
  | Left  (** consume one reference character (insertion) *)
  | Stay  (** switch FSM state without moving (matrix jump) *)
  | Stop  (** end of traceback (local alignment hit a 0/END cell) *)

type op = Mmi | Ins | Del
(** Emitted alignment operations ([AL_MMI]/[AL_INS]/[AL_DEL]). *)

type state = int
(** FSM states are small integers enumerated by the kernel ([TB_STATE]). *)

type fsm = {
  n_states : int;
  start_state : state;
  transition : state -> ptr:int -> state * move;
      (** Maps (current state, stored pointer) to (next state, move). *)
}

type start_rule =
  | Bottom_right         (** global: last cell of the matrix *)
  | Global_best          (** local: best-scoring cell anywhere *)
  | Last_row_best        (** semi-global: best cell of the bottom row *)
  | Last_row_or_col_best (** overlap: best cell of bottom row or last column *)

type stop_rule =
  | At_origin      (** global: walk to the virtual (-1,-1) corner, completing
                       any residual border cells as gaps *)
  | At_top_row     (** semi-global: stop upon leaving row 0 upward *)
  | At_top_or_left (** overlap: stop upon leaving row 0 or column 0 *)
  | On_stop_move   (** local: stop when the FSM emits [Stop] *)

type spec = {
  fsm : fsm;
  stop : stop_rule;
}

val max_steps : qry_len:int -> ref_len:int -> int
(** Safety bound on FSM iterations (each [Stay] is followed by a consuming
    move in a well-formed kernel, so 2*(q+r)+8 suffices); engines raise
    [Failure] beyond it to surface ill-formed kernels. "Each [Stay] is
    followed by a consuming move" is a checked property:
    [Dphls_analysis.Fsm_check] exhaustively enumerates [(state, ptr)]
    and rejects FSMs with [Stay]-only cycles, which are exactly the
    specs that could trip this bound. *)

(** Deterministic best-cell tracking with the canonical tie-break (lowest
    row, then lowest column), shared by both engines so they agree on the
    traceback start even under score ties. *)
module Best_cell : sig
  type t

  val create : Dphls_util.Score.objective -> t
  val observe : t -> Types.cell -> Types.score -> unit
  val observe_rc : t -> row:int -> col:int -> Types.score -> unit
  (** Allocation-free [observe] (no cell record) — the engines' hot-path
      entry point. *)

  val get : t -> (Types.cell * Types.score) option
  val merge : t -> t -> t
  (** Combine two trackers (the paper §5.2's reduction over per-PE local
      maxima); tie-break as above. *)
end
