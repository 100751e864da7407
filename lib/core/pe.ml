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
  let span = (hi + 2) * n_layers in
  let last = Array.length ring - span in
  if above < 0 || base < 0 || above > last || base > last then outside ();
  (* a generated row carries diag from the previous cell's up read,
     which is only the ring's diag when the row above is not written *)
  if abs (above - base) < span then invalid_arg "Pe: row above overlaps the row written"

(* The traceback plane: one 16-bit word per cell of the matrix,
   row-major, the pointer of cell (row, col) at byte
   [2 * (row * ref_len + col)]. Both exact engines store into it, the
   golden one row by row, the systolic one wavefront by wavefront, and
   walk it back the same way. *)
let[@inline never] wide_pointer ~row ~col ptr =
  invalid_arg
    (Printf.sprintf
       "PE traceback pointer %d at cell (%d,%d) does not fit the 16-bit \
        traceback plane"
       ptr row col)

let[@inline] check_pointer ~row ~col ptr =
  if ptr < 0 || ptr > 0xFFFF then wide_pointer ~row ~col ptr

let[@inline] store_pointer tb ~ref_len ~row ~col ptr =
  check_pointer ~row ~col ptr;
  Bytes.set_uint16_le tb (2 * ((row * ref_len) + col)) ptr

let check_plane tb ~ref_len ~row ~col =
  (* compared against rather than multiplied out, so no word index can
     overflow past the check *)
  let words = Bytes.length tb / 2 in
  if row < 0 || col < 0 || col >= ref_len || col >= words
     || row > (words - 1 - col) / ref_len
  then invalid_arg "Pe: cells outside the traceback plane"

external unsafe_set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external swap16 : int -> int = "%bswap16"

let[@inline] set_pointer tb word ptr =
  unsafe_set16 tb (2 * word) (if Sys.big_endian then swap16 ptr else ptr)

let pointer_at tb ~ref_len ~row ~col = Bytes.get_uint16_le tb (2 * ((row * ref_len) + col))

(* A domain keeps the plane of its last alignment and hands it to the
   next one, so a stream of alignments (a serve flush, a batch slice)
   allocates it once per domain instead of once per alignment. Each call
   zeroes the prefix it hands out, so every cell reads as in a fresh
   plane. A plane above [retain_cap_bytes] is allocated for its call
   only and never retained.

   Why 1 MiB: it holds the plane of a 724 x 724 alignment, far above
   the short reads a serve miss aligns (a 160 x 160 plane is 50 KB), so
   those never allocate. An alignment that needs more fills at least
   half a million cells, milliseconds of work next to which a fresh
   allocation is noise, while keeping its plane would pin up to 32 MiB
   per domain (a 4096-base serve request) for the life of the
   process. *)
let retain_cap_bytes = 1 lsl 20

let retained = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let tb_plane ~reuse ~qry_len ~ref_len =
  let bytes = 2 * qry_len * ref_len in
  if (not reuse) || bytes > retain_cap_bytes then Bytes.make bytes '\000'
  else begin
    let kept = Domain.DLS.get retained in
    if Bytes.length !kept < bytes then kept := Bytes.make bytes '\000'
    else Bytes.fill !kept 0 bytes '\000';
    !kept
  end

let retained_plane_bytes () = Bytes.length !(Domain.DLS.get retained)

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

type wave =
  w1:Types.score array ->
  w2:Types.score array ->
  w_new:Types.score array ->
  query:Types.seq ->
  reference:Types.seq ->
  tb:Bytes.t ->
  row0:int ->
  wavefront:int ->
  lo:int ->
  hi:int ->
  unit

let check_wave ~n_layers ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi =
  let outside () = invalid_arg "Pe: wave interval outside the planes" in
  (* the slot counts, rows and columns are compared against rather than
     added to, so no index can overflow past the check *)
  let slots =
    Int.min (Array.length w1) (Int.min (Array.length w2) (Array.length w_new)) / n_layers
  in
  if lo < 0 || hi >= slots - 1 then outside ();
  if row0 < -lo || row0 >= Array.length query - hi then outside ();
  if wavefront < hi || wavefront - lo >= Array.length reference then outside ()

let wave_of_flat ~n_layers (pe : flat) : wave =
  let b = create_buffers ~n_layers in
  let up = b.b_up and diag = b.b_diag and left = b.b_left and out = b.b_scores in
  fun ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi ->
    if lo <= hi then begin
      check_wave ~n_layers ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;
      let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
      for p = lo to hi do
        (* unchecked: [check_wave] bounds slots 0 .. hi + 1 of the
           planes, the rows and the columns, and the register arrays
           hold [n_layers] scores each *)
        let s = p * n_layers in
        for layer = 0 to n_layers - 1 do
          Array.unsafe_set up layer (Array.unsafe_get w1 (s + layer));
          Array.unsafe_set diag layer (Array.unsafe_get w2 (s + layer));
          Array.unsafe_set left layer (Array.unsafe_get w1 (s + n_layers + layer))
        done;
        let row = row0 + p and col = wavefront - p in
        b.b_qry <- Array.unsafe_get query row;
        b.b_rf <- Array.unsafe_get reference col;
        b.b_row <- row;
        b.b_col <- col;
        pe b;
        for layer = 0 to n_layers - 1 do
          Array.unsafe_set w_new (s + n_layers + layer) (Array.unsafe_get out layer)
        done;
        if has_tb then store_pointer tb ~ref_len ~row ~col b.b_tb
      done
    end
