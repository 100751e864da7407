(** The processing-element interface — the DP-HLS [PE_func] contract.

    A kernel's recurrence is a pure function from the three neighbouring
    cells' layer scores plus the local query/reference characters to this
    cell's layer scores and traceback pointer, exactly the paper's
    Listing 5/6 signature ([dp_mem_up]/[dp_mem_diag]/[dp_mem_left],
    [lc_qry_val]/[lc_ref_val] in; [wt_scr]/[wt_tbp] out).

    Two calling conventions exist:
    - the boxed {!f}: a pure [input -> output] closure that allocates its
      output record — what [Datapath.eval], the reference semantics of
      a kernel's symbolic datapath, returns;
    - the flat {!flat}: an [buffers -> unit] evaluator that reads its
      inputs from and writes its results into a caller-owned {!buffers}
      record, allocating nothing ([Kernel.flat_pe]: a generated
      straight-line evaluator from [Pe_gen] when the compiled datapath
      is one the catalog ships, else the compiled program's bytecode
      loop [Datapath.flat]). The generic loops below, the vector replay
      and the width analysis run cells through it.

    Neither engine calls a PE per cell. The golden engine runs whole
    rows: a {!row} evaluator is the PE inlined into a loop over an
    interval of one DP row, reading and writing the engine's score ring
    directly ([Kernel.flat_row]). The systolic engine runs whole
    wavefronts: a {!wave} evaluator is the PE inlined into a loop over a
    run of PEs, reading and writing the array's wavefront planes
    directly ([Kernel.flat_wave]). *)

type input = {
  up : Types.score array;    (** layer scores of cell (row-1, col) *)
  diag : Types.score array;  (** layer scores of cell (row-1, col-1) *)
  left : Types.score array;  (** layer scores of cell (row, col-1) *)
  qry : Types.ch;            (** [lc_qry_val]: query character at [row] *)
  rf : Types.ch;             (** [lc_ref_val]: reference character at [col] *)
  row : int;                 (** global row (query index) of this cell *)
  col : int;                 (** global column (reference index) *)
}

type output = {
  scores : Types.score array;  (** [wt_scr] per layer; layer 0 is primary *)
  tb : int;                    (** [wt_tbp]: encoded traceback pointer *)
}

type f = input -> output
(** A recurrence closed over its scoring parameters. Pure: the same input
    always yields the same output. *)

(** The flat PE register file. The engine points the input fields at its
    own planes/scratch rows before each evaluation (reference swaps, no
    copying) and the [b_scores] field at the destination plane row; the
    evaluator writes its layer scores there and the packed pointer into
    [b_tb]. Input arrays must be treated as read-only by the evaluator,
    and [b_scores] is guaranteed not to alias any input array. *)
type buffers = {
  mutable b_up : Types.score array;
  mutable b_diag : Types.score array;
  mutable b_left : Types.score array;
  mutable b_qry : Types.ch;
  mutable b_rf : Types.ch;
  mutable b_row : int;
  mutable b_col : int;
  mutable b_scores : Types.score array;  (** written by the evaluator *)
  mutable b_tb : int;                    (** written by the evaluator *)
}

type flat = buffers -> unit
(** Evaluate one cell from/into the caller's register file. Evaluators
    must not retain the buffer or any array it points to. *)

val create_buffers : n_layers:int -> buffers
(** Fresh register file with [n_layers]-sized score arrays and empty
    character slots. Raises [Invalid_argument] when [n_layers < 1]. *)

(** {1 Traceback plane}

    The one store of traceback pointers, for both exact engines: one
    16-bit word per cell of the [qry_len] x [ref_len] matrix, row-major,
    the pointer of cell [(row, col)] at byte [2 * (row * ref_len + col)]
    of a [Bytes.t]. The golden engine's rows and the systolic engine's
    waves store into it (the generic ones with {!store_pointer}, the
    generated ones with {!set_pointer} after one {!check_plane} per
    call), and both walk it back with {!pointer_at}. (The systolic array's modeled memory, one bank
    per PE at wavefront-coalesced addresses, is
    [Dphls_systolic.Schedule.tb_address]: a cost model, not a store.)
    An empty plane means the kernel has no traceback. *)

val store_pointer : Bytes.t -> ref_len:int -> row:int -> col:int -> int -> unit
(** [store_pointer tb ~ref_len ~row ~col ptr] writes [ptr] into the
    plane (bounds-checked). Raises [Invalid_argument] naming the cell
    when [ptr] is outside [0 .. 0xFFFF]; a pointer is never truncated. *)

val check_pointer : row:int -> col:int -> int -> unit
(** The 16-bit range check of {!store_pointer} alone. *)

val check_plane : Bytes.t -> ref_len:int -> row:int -> col:int -> unit
(** [check_plane tb ~ref_len ~row ~col] raises [Invalid_argument] unless
    [0 <= row], [0 <= col < ref_len] and cell [(row, col)]'s word lies in
    [tb], hence every word before it too. A generated row or wave makes
    it once per call, on its cell of highest word index, and then
    stores each pointer with {!set_pointer}. *)

val set_pointer : Bytes.t -> int -> int -> unit
(** [set_pointer tb i ptr] writes [ptr] into word [i] of the plane
    (cell [(row, col)] is word [row * ref_len + col]) with neither check
    of {!store_pointer}: for a caller that has bounded its cells with
    {!check_plane} and checked [ptr] with {!check_pointer} or proved it
    fits 16 bits. *)

val pointer_at : Bytes.t -> ref_len:int -> row:int -> col:int -> int
(** The pointer {!store_pointer} wrote at [(row, col)], 0 where nothing
    was stored since the plane was handed out (bounds-checked). *)

val tb_plane : reuse:bool -> qry_len:int -> ref_len:int -> Bytes.t
(** A zeroed plane for a [qry_len] x [ref_len] matrix. With [~reuse:true]
    it is the calling domain's: the domain's next [tb_plane] call hands
    out (and zeroes) the same bytes, so a caller must be done with it
    by then, and a stream of alignments allocates it once per domain.
    A plane above {!retain_cap_bytes}, or any with [~reuse:false], is
    the caller's own and never retained. *)

val retain_cap_bytes : int
(** The largest plane a domain retains, in bytes: 1 MiB. *)

val retained_plane_bytes : unit -> int
(** Bytes of plane the calling domain currently retains. *)

(** {1 Row evaluators} *)

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
(** [f ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi] evaluates
    cells [lo .. hi] of DP row [row], in column order; nothing when
    [lo > hi]. A ring row is [ref_len + 1] cells of [n_layers] scores:
    cell [c] starts at [base + (c + 1) * n_layers] and slot 0 is the
    column -1 border. [above] and [base] are the offsets of row
    [row - 1] and row [row]. Each cell reads up, diag and left from the
    ring, its query character [qry] and reference character
    [reference.(c)], writes its layer scores back at its own slot and,
    when [tb] is not empty, stores its pointer into the traceback plane
    [tb] (row-major over [Array.length reference] columns). Raises
    [Invalid_argument] as {!check_row} and {!check_plane} do, once per
    call, and as {!check_pointer} does. *)

val check_row :
  n_layers:int ->
  ring:Types.score array ->
  above:int ->
  base:int ->
  reference:Types.seq ->
  lo:int ->
  hi:int ->
  unit
(** The bounds check every row evaluator makes once per non-empty
    interval, in place of a per-cell {!Datapath.check_buffers}: raises
    [Invalid_argument] unless [0 <= lo], [hi < Array.length reference],
    cells [-1 .. hi] of the rows at [above] and [base] lie inside
    [ring], and those two runs of cells do not overlap. A generated row
    carries each cell's left and diag layers over from the cell before
    it instead of re-reading the ring, which gives the ring's values
    only while the row it writes is not the row it reads. *)

val row_of_flat : n_layers:int -> flat -> row
(** The generic row: a per-cell loop around any flat evaluator — copy
    the neighbours into a private {!buffers}, call the PE, copy its
    layers back, store its pointer. What [Kernel.flat_row] returns
    for programs the generated table does not hold. Owns mutable
    scratch: build one per run or per domain. *)

(** {1 Wavefront evaluators} *)

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
(** [f ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi]
    evaluates PEs [lo .. hi] of one wavefront of the
    systolic array, in PE order; nothing when [lo > hi]. PE [p] computes
    cell [(row0 + p, wavefront - p)]. A plane is a run of slots of
    [n_layers] scores; slot [s] starts at [s * n_layers] and holds
    PE [s - 1]'s output, so slot 0 belongs to the PE above PE 0 (the
    engine's preserved-row read port). [w1] and [w2] are the previous
    two wavefronts' planes: PE [p] reads up from slot [p] of [w1], diag
    from slot [p] of [w2] and left from slot [p + 1] of [w1], its query
    character [query.(row0 + p)] and its reference character
    [reference.(wavefront - p)], and writes its layer scores into slot
    [p + 1] of [w_new], which must not alias [w1] or [w2]. When [tb] is
    not empty it stores its pointer into the traceback plane [tb]
    (row-major over [Array.length reference] columns), exactly as a row
    does. Raises [Invalid_argument] as {!check_wave} and {!check_plane}
    do, once per call, and as {!check_pointer} does. *)

val check_wave :
  n_layers:int ->
  w1:Types.score array ->
  w2:Types.score array ->
  w_new:Types.score array ->
  query:Types.seq ->
  reference:Types.seq ->
  row0:int ->
  wavefront:int ->
  lo:int ->
  hi:int ->
  unit
(** The bounds check every wave evaluator makes once per non-empty
    interval, in place of a per-cell {!Datapath.check_buffers}: raises
    [Invalid_argument] unless [0 <= lo], slots [0 .. hi + 1] lie inside
    all three planes, rows [row0 + lo .. row0 + hi] inside [query] and
    columns [wavefront - hi .. wavefront - lo] inside [reference]. The
    traceback plane's bound is {!check_plane}'s. *)

val wave_of_flat : n_layers:int -> flat -> wave
(** The generic wave: a per-cell loop around any flat evaluator — copy
    the neighbours into a private {!buffers}, call the PE, copy its
    layers back, store its pointer. What [Kernel.flat_wave] returns for
    programs the generated table does not hold. Owns mutable scratch:
    build one per run or per domain. *)
