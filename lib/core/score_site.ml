let[@inline] first_col rule ~qry_len ~ref_len ~row =
  let last_row = row = qry_len - 1 in
  match (rule : Traceback.start_rule) with
  | Bottom_right -> if last_row then ref_len - 1 else ref_len
  | Global_best -> 0
  | Last_row_best -> if last_row then 0 else ref_len
  | Last_row_or_col_best -> if last_row then 0 else ref_len - 1

let[@inline] observes rule ~qry_len ~ref_len ~row ~col =
  col >= first_col rule ~qry_len ~ref_len ~row

let resolve ~objective ~qry_len ~ref_len best =
  match Traceback.Best_cell.get best with
  | Some site -> site
  | None ->
    (* Every candidate cell was pruned; report the worst value at the
       bottom-right corner so callers still get a well-formed result. *)
    ({ Types.row = qry_len - 1; col = ref_len - 1 },
     Dphls_util.Score.worst_value objective)
