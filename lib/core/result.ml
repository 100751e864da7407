type t = {
  score : Types.score;
  start_cell : Types.cell option;
  end_cell : Types.cell option;
  path : Traceback.op list;
  cells_computed : int;
  tb_steps : int;
}

let score_only ~score ~cells =
  {
    score;
    start_cell = None;
    end_cell = None;
    path = [];
    cells_computed = cells;
    tb_steps = 0;
  }

let op_char (op : Traceback.op) =
  match op with Mmi -> 'M' | Ins -> 'I' | Del -> 'D'

let cigar t =
  let buf = Buffer.create 32 in
  let flush count op =
    if count > 0 then begin
      Buffer.add_string buf (string_of_int count);
      Buffer.add_char buf (op_char op)
    end
  in
  let rec go count current = function
    | [] -> flush count current
    | op :: rest ->
      if op = current then go (count + 1) current rest
      else begin
        flush count current;
        go 1 op rest
      end
  in
  (match t.path with [] -> () | op :: rest -> go 1 op rest);
  Buffer.contents buf

let path_consumes t =
  List.fold_left
    (fun (q, r) (op : Traceback.op) ->
      match op with Mmi -> (q + 1, r + 1) | Ins -> (q, r + 1) | Del -> (q + 1, r))
    (0, 0) t.path

let equal_alignment a b =
  a.score = b.score && a.start_cell = b.start_cell && a.end_cell = b.end_cell
  && a.path = b.path

let pp fmt t =
  let cell_str = function
    | None -> "-"
    | Some (c : Types.cell) -> Printf.sprintf "(%d,%d)" c.row c.col
  in
  Format.fprintf fmt "score=%s start=%s end=%s cigar=%s cells=%d"
    (Dphls_util.Score.to_string t.score)
    (cell_str t.start_cell) (cell_str t.end_cell) (cigar t) t.cells_computed
