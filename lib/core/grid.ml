module Score = Dphls_util.Score

type 'p t = {
  kernel : 'p Kernel.t;
  params : 'p;
  qry_len : int;
  ref_len : int;
  read : row:int -> col:int -> layer:int -> Types.score;
  in_band : row:int -> col:int -> bool;
  worst : Types.score;
}

let create ?in_band kernel params ~qry_len ~ref_len ~read =
  let in_band =
    match in_band with
    | Some f -> f
    | None -> fun ~row ~col -> Banding.in_band kernel.Kernel.banding ~row ~col
  in
  {
    kernel;
    params;
    qry_len;
    ref_len;
    read;
    in_band;
    worst = Score.worst_value kernel.Kernel.objective;
  }

let neighbor t ~row ~col ~layer =
  let k = t.kernel in
  if not (t.in_band ~row ~col) then t.worst
  else if row = -1 && col = -1 then k.Kernel.origin t.params ~layer
  else if row = -1 then k.Kernel.init_row t.params ~ref_len:t.ref_len ~layer ~col
  else if col = -1 then k.Kernel.init_col t.params ~qry_len:t.qry_len ~layer ~row
  else t.read ~row ~col ~layer

let fill_input t (buf : Pe.buffers) ~query ~reference ~row ~col =
  let n = t.kernel.Kernel.n_layers in
  let up = buf.Pe.b_up and diag = buf.Pe.b_diag and left = buf.Pe.b_left in
  for layer = 0 to n - 1 do
    up.(layer) <- neighbor t ~row:(row - 1) ~col ~layer;
    diag.(layer) <- neighbor t ~row:(row - 1) ~col:(col - 1) ~layer;
    left.(layer) <- neighbor t ~row ~col:(col - 1) ~layer
  done;
  buf.Pe.b_qry <- query.(row);
  buf.Pe.b_rf <- reference.(col);
  buf.Pe.b_row <- row;
  buf.Pe.b_col <- col
