open Traceback

type outcome = {
  path : Traceback.op list;
  end_cell : Types.cell;
  steps : int;
}

let repeat op n acc =
  let rec go n acc = if n = 0 then acc else go (n - 1) (op :: acc) in
  go n acc

(* Completion of a path that walked off the matrix at a virtual border:
   global alignments must still consume the remaining prefix of either
   sequence as gaps. [row]/[col] are the current virtual coordinates. *)
let border_completion stop ~row ~col acc =
  match stop with
  | At_origin ->
    if row = -1 && col = -1 then acc
    else if row = -1 then repeat Ins (col + 1) acc
    else repeat Del (row + 1) acc
  | At_top_row -> if col = -1 && row >= 0 then repeat Del (row + 1) acc else acc
  | At_top_or_left | On_stop_move -> acc

let walk ?(metrics = Dphls_obs.Metrics.disabled) ~fsm ~stop ~ptr_at ~start
    ~qry_len ~ref_len () =
  let limit = max_steps ~qry_len ~ref_len in
  let rec go state row col acc last steps =
    if row < 0 || col < 0 then
      { path = border_completion stop ~row ~col acc; end_cell = last; steps }
    else
      let ptr = ptr_at ~row ~col in
      if steps > limit then
        failwith
          (Printf.sprintf
             "Walker.walk: traceback exceeded %d steps at state=%d ptr=%d \
              cell=(%d,%d) — ill-formed FSM (e.g. a Stay cycle); run `dphls \
              check` on the kernel"
             limit state ptr row col)
      else
      let state', move = fsm.transition state ~ptr in
      let here = { Types.row; col } in
      match move with
      | Stop -> { path = acc; end_cell = here; steps }
      | Stay -> go state' row col acc here (steps + 1)
      | Diag -> go state' (row - 1) (col - 1) (Mmi :: acc) here (steps + 1)
      | Up -> go state' (row - 1) col (Del :: acc) here (steps + 1)
      | Left -> go state' row (col - 1) (Ins :: acc) here (steps + 1)
  in
  let outcome = go fsm.start_state start.Types.row start.Types.col [] start 0 in
  Dphls_obs.Metrics.add metrics Tb_steps outcome.steps;
  outcome

let result ?metrics spec ~tb ~start ~score ~cells ~qry_len ~ref_len =
  match spec with
  | None -> Result.score_only ~score ~cells
  | Some spec ->
    let outcome =
      walk ?metrics ~fsm:spec.fsm ~stop:spec.stop ~ptr_at:(Pe.pointer_at tb ~ref_len) ~start
        ~qry_len ~ref_len ()
    in
    {
      Result.score;
      start_cell = Some start;
      end_cell = Some outcome.end_cell;
      path = outcome.path;
      cells_computed = cells;
      tb_steps = outcome.steps;
    }
