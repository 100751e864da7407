type input = {
  up : Types.score array;
  diag : Types.score array;
  left : Types.score array;
  qry : Types.ch;
  rf : Types.ch;
  row : int;
  col : int;
}

type output = { scores : Types.score array; tb : int }

type f = input -> output

type buffers = {
  mutable b_up : Types.score array;
  mutable b_diag : Types.score array;
  mutable b_left : Types.score array;
  mutable b_qry : Types.ch;
  mutable b_rf : Types.ch;
  mutable b_row : int;
  mutable b_col : int;
  mutable b_scores : Types.score array;
  mutable b_tb : int;
}

type flat = buffers -> unit

let create_buffers ~n_layers =
  if n_layers < 1 then invalid_arg "Pe.create_buffers: n_layers < 1";
  {
    b_up = Array.make n_layers 0;
    b_diag = Array.make n_layers 0;
    b_left = Array.make n_layers 0;
    b_qry = [||];
    b_rf = [||];
    b_row = 0;
    b_col = 0;
    b_scores = Array.make n_layers 0;
    b_tb = 0;
  }
