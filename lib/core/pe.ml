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

type row =
  ring:Types.score array ->
  above:int ->
  base:int ->
  qry:Types.ch ->
  reference:Types.seq ->
  tb:Bytes.t ->
  row:int ->
  lo:int ->
  hi:int ->
  unit

let check_row ~n_layers ~ring ~above ~base ~reference ~lo ~hi =
  let outside () = invalid_arg "Pe: row interval outside the ring" in
  if lo < 0 || hi >= Array.length reference then outside ();
  (* the last row offset whose cells -1 .. hi fit, compared against
     rather than added to, so no offset can overflow past the check *)
  let last = Array.length ring - ((hi + 2) * n_layers) in
  if above < 0 || base < 0 || above > last || base > last then outside ()

(* The plane is the golden engine's, and so is the error's prefix. *)
let[@inline never] wide_pointer ~row ~col ptr =
  invalid_arg
    (Printf.sprintf
       "Ref_engine: PE traceback pointer %d at cell (%d,%d) does not fit the \
        16-bit traceback plane"
       ptr row col)

let[@inline] store_pointer tb ~ref_len ~row ~col ptr =
  if ptr < 0 || ptr > 0xFFFF then wide_pointer ~row ~col ptr;
  Bytes.set_uint16_le tb (2 * ((row * ref_len) + col)) ptr

let row_of_flat ~n_layers (pe : flat) : row =
  let b = create_buffers ~n_layers in
  let up = b.b_up and diag = b.b_diag and left = b.b_left and out = b.b_scores in
  fun ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi ->
    if lo <= hi then begin
      check_row ~n_layers ~ring ~above ~base ~reference ~lo ~hi;
      let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
      b.b_qry <- qry;
      b.b_row <- row;
      for col = lo to hi do
        (* unchecked: [check_row] bounds cells -1 .. hi of both ring rows,
           and the register arrays hold [n_layers] scores each *)
        let u = above + ((col + 1) * n_layers) and at = base + ((col + 1) * n_layers) in
        for layer = 0 to n_layers - 1 do
          Array.unsafe_set up layer (Array.unsafe_get ring (u + layer));
          Array.unsafe_set diag layer (Array.unsafe_get ring (u - n_layers + layer));
          Array.unsafe_set left layer (Array.unsafe_get ring (at - n_layers + layer))
        done;
        b.b_rf <- Array.unsafe_get reference col;
        b.b_col <- col;
        pe b;
        for layer = 0 to n_layers - 1 do
          Array.unsafe_set ring (at + layer) (Array.unsafe_get out layer)
        done;
        if has_tb then store_pointer tb ~ref_len ~row ~col b.b_tb
      done
    end
