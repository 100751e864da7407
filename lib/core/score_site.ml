let[@inline] observes rule ~qry_len ~ref_len ~row ~col =
  match (rule : Traceback.start_rule) with
  | Bottom_right -> row = qry_len - 1 && col = ref_len - 1
  | Global_best -> true
  | Last_row_best -> row = qry_len - 1
  | Last_row_or_col_best -> row = qry_len - 1 || col = ref_len - 1

let resolve ~objective ~qry_len ~ref_len best =
  match Traceback.Best_cell.get best with
  | Some site -> site
  | None ->
    (* Every candidate cell was pruned; report the worst value at the
       bottom-right corner so callers still get a well-formed result. *)
    ({ Types.row = qry_len - 1; col = ref_len - 1 },
     Dphls_util.Score.worst_value objective)
