module Score = Dphls_util.Score

type move = Diag | Up | Left | Stay | Stop

type op = Mmi | Ins | Del

type state = int

type fsm = {
  n_states : int;
  start_state : state;
  transition : state -> ptr:int -> state * move;
}

type start_rule =
  | Bottom_right
  | Global_best
  | Last_row_best
  | Last_row_or_col_best

type stop_rule = At_origin | At_top_row | At_top_or_left | On_stop_move

type spec = { fsm : fsm; stop : stop_rule }

let max_steps ~qry_len ~ref_len = (2 * (qry_len + ref_len)) + 8

module Best_cell = struct
  (* Flattened to mutable ints (no cell records, no options) so that the
     engines' per-cell [observe_rc] calls allocate nothing. *)
  type t = {
    objective : Score.objective;
    mutable seen : bool;
    mutable row : int;
    mutable col : int;
    mutable score : Types.score;
  }

  let create objective =
    { objective; seen = false; row = 0; col = 0; score = Score.worst_value objective }

  let observe_rc t ~row ~col score =
    if not t.seen then begin
      t.seen <- true;
      t.row <- row;
      t.col <- col;
      t.score <- score
    end
    else if
      Score.better t.objective score t.score
      || (score = t.score && (row < t.row || (row = t.row && col < t.col)))
    then begin
      t.row <- row;
      t.col <- col;
      t.score <- score
    end

  let observe t (cell : Types.cell) score =
    observe_rc t ~row:cell.Types.row ~col:cell.Types.col score

  let get t =
    if t.seen then Some ({ Types.row = t.row; col = t.col }, t.score) else None

  let merge a b =
    let t = create a.objective in
    if a.seen then observe_rc t ~row:a.row ~col:a.col a.score;
    if b.seen then observe_rc t ~row:b.row ~col:b.col b.score;
    t
end
