open Dphls_core
module Score = Dphls_util.Score

type matrices = {
  scores : Types.score array array array;
  pointers : int array array;
}

(* What one fill leaves behind. [ring] holds [ring_rows] score rows of
   [ref_len + 1] cells of [n_layers] scores each; row [r] lives in slot
   [(r + 1) mod ring_rows] and cell slot 0 of every row is its col -1
   border, so the virtual row/column and pruned cells are plain stored
   values and every neighbour read is a direct array read. [tb] is the
   traceback plane, 2 bytes per cell, row-major (empty without a
   traceback). *)
type fill = {
  qry_len : int;
  ref_len : int;
  ring : Types.score array;
  tb : Bytes.t;
  best : Traceback.Best_cell.t;
  cells : int;
  moves : int;
  member : row:int -> col:int -> bool;
}

let[@inline never] wide_pointer ~row ~col ptr =
  invalid_arg
    (Printf.sprintf
       "Ref_engine: PE traceback pointer %d at cell (%d,%d) does not fit the \
        16-bit traceback plane"
       ptr row col)

let[@inline] store_pointer tb ~ref_len ~row ~col ptr =
  if ptr < 0 || ptr > 0xFFFF then wide_pointer ~row ~col ptr;
  Bytes.set_uint16_le tb (2 * ((row * ref_len) + col)) ptr

let pointer_at tb ~ref_len ~row ~col =
  Bytes.get_uint16_le tb (2 * ((row * ref_len) + col))

(* One chunked traversal for every band mode: chunks of [h] query rows,
   within a chunk wavefront [w] holds cells (r0 + k, w - k). Anti-
   diagonal order respects all DP dependencies, so the scores equal a
   row-major fill's; [h = 1] (unbanded and fixed bands) is row-major
   order. Adaptive bands take [h = band_pe] because only completed
   wavefronts steer their window, so the golden engine must replay the
   systolic engine's chunking to prune the same cells. The ring keeps
   the chunk's rows plus the previous chunk's last row ([h + 1] rows);
   [full] keeps all [qry_len + 1] rows instead, for {!run_full}. *)
let fill ?band_pe ~full kernel params (w : Workload.t) =
  let query = w.Workload.query and reference = w.Workload.reference in
  let qry_len = Array.length query and ref_len = Array.length reference in
  if qry_len < 1 || ref_len < 1 then invalid_arg "Ref_engine: empty sequence";
  let n_layers = kernel.Kernel.n_layers
  and objective = kernel.Kernel.objective in
  let worst = Score.worst_value objective in
  let h, tracker =
    match kernel.Kernel.banding with
    | Some (Banding.Adaptive _ as band) ->
      let h =
        match band_pe with
        | Some n ->
          if n < 1 then invalid_arg "Ref_engine: band_pe must be >= 1";
          n
        | None -> qry_len (* one chunk: the ideal full-height wavefront *)
      in
      ( h,
        Some
          (Banding.Tracker.create band ~objective ~chunk_rows:h ~qry_len
             ~ref_len) )
    | Some (Banding.Fixed _) | None -> (1, None)
  in
  let unbanded = Option.is_none kernel.Kernel.banding in
  let member =
    match tracker with
    | Some tr -> Banding.Tracker.member tr
    | None -> Banding.in_band kernel.Kernel.banding
  in
  let decide =
    match tracker with Some tr -> Banding.Tracker.decide tr | None -> member
  in
  (* Border values come from the shared Grid logic, written into the
     ring once per row; stored cells are never read through it. *)
  let grid =
    Grid.create ~in_band:member kernel params ~qry_len ~ref_len
      ~read:(fun ~row ~col ~layer:_ ->
        invalid_arg
          (Printf.sprintf "Ref_engine: unexpected grid read of cell (%d,%d)"
             row col))
  in
  let height = min h qry_len in
  let ring_rows = if full then qry_len + 1 else height + 1 in
  let stride = (ref_len + 1) * n_layers in
  let ring = Array.make (ring_rows * stride) worst in
  let row_base row = (row + 1) mod ring_rows * stride in
  let load_border ~row ~col =
    let at = row_base row + ((col + 1) * n_layers) in
    for layer = 0 to n_layers - 1 do
      ring.(at + layer) <- Grid.neighbor grid ~row ~col ~layer
    done
  in
  for col = -1 to ref_len - 1 do
    load_border ~row:(-1) ~col
  done;
  let has_tb = Kernel.has_traceback kernel params in
  let tb =
    if has_tb then Bytes.make (2 * qry_len * ref_len) '\000' else Bytes.empty
  in
  let flat_pe = Kernel.flat_pe kernel params in
  let buf = Pe.create_buffers ~n_layers in
  let up = buf.Pe.b_up
  and diag = buf.Pe.b_diag
  and left = buf.Pe.b_left
  and out = buf.Pe.b_scores in
  let rule = kernel.Kernel.score_site in
  let best = Traceback.Best_cell.create objective in
  let cells = ref 0 in
  (* bases.(k + 1): ring offset of chunk row r0 + k, for k = -1 .. rows - 1 *)
  let bases = Array.make (height + 1) 0 in
  for chunk = 0 to ((qry_len + h - 1) / h) - 1 do
    let r0 = chunk * h in
    let rows = min h (qry_len - r0) in
    (match tracker with
    | Some tr -> Banding.Tracker.start_chunk tr ~chunk
    | None -> ());
    for k = -1 to rows - 1 do
      bases.(k + 1) <- row_base (r0 + k)
    done;
    for k = 0 to rows - 1 do
      load_border ~row:(r0 + k) ~col:(-1)
    done;
    for wavefront = 0 to rows + ref_len - 2 do
      for k = max 0 (wavefront - ref_len + 1) to min (rows - 1) wavefront do
        let row = r0 + k and col = wavefront - k in
        let at = bases.(k + 1) + ((col + 1) * n_layers) in
        if unbanded || decide ~row ~col then begin
          (* Unchecked ring and register-file accesses: [at] and [above]
             address cells 0..ref_len of a ring row, whose cell -1
             neighbours (diag, left) are the border slot, and the four
             register arrays hold [n_layers] scores each. *)
          let above = bases.(k) + ((col + 1) * n_layers) in
          for layer = 0 to n_layers - 1 do
            Array.unsafe_set up layer (Array.unsafe_get ring (above + layer));
            Array.unsafe_set diag layer
              (Array.unsafe_get ring (above - n_layers + layer));
            Array.unsafe_set left layer
              (Array.unsafe_get ring (at - n_layers + layer))
          done;
          buf.Pe.b_qry <- query.(row);
          buf.Pe.b_rf <- reference.(col);
          buf.Pe.b_row <- row;
          buf.Pe.b_col <- col;
          flat_pe buf;
          for layer = 0 to n_layers - 1 do
            Array.unsafe_set ring (at + layer) (Array.unsafe_get out layer)
          done;
          if has_tb then store_pointer tb ~ref_len ~row ~col buf.Pe.b_tb;
          (match tracker with
          | Some tr -> Banding.Tracker.observe tr ~row ~col ~score:out.(0)
          | None -> ());
          if Score_site.observes rule ~qry_len ~ref_len ~row ~col then
            Traceback.Best_cell.observe_rc best ~row ~col out.(0);
          incr cells
        end
        else
          for layer = 0 to n_layers - 1 do
            ring.(at + layer) <- worst
          done
      done;
      match tracker with
      | Some tr -> Banding.Tracker.end_wavefront tr
      | None -> ()
    done
  done;
  {
    qry_len;
    ref_len;
    ring;
    tb;
    best;
    cells = !cells;
    moves =
      (match tracker with
      | Some tr -> Banding.Tracker.window_moves tr
      | None -> 0);
    member;
  }

let result_of ?metrics kernel params f =
  let start_cell, score =
    Score_site.resolve ~objective:kernel.Kernel.objective ~qry_len:f.qry_len
      ~ref_len:f.ref_len f.best
  in
  match kernel.Kernel.traceback params with
  | None ->
    {
      Result.score;
      start_cell = None;
      end_cell = None;
      path = [];
      cells_computed = f.cells;
    }
  | Some spec ->
    let outcome =
      Walker.walk ?metrics ~fsm:spec.Traceback.fsm ~stop:spec.Traceback.stop
        ~ptr_at:(pointer_at f.tb ~ref_len:f.ref_len)
        ~start:start_cell ~qry_len:f.qry_len ~ref_len:f.ref_len ()
    in
    {
      Result.score;
      start_cell = Some start_cell;
      end_cell = Some outcome.Walker.end_cell;
      path = outcome.Walker.path;
      cells_computed = f.cells;
    }

let run_fill ?band_pe ~full ?(metrics = Dphls_obs.Metrics.disabled)
    ?(tracer = Dphls_obs.Tracer.disabled) kernel params w =
  let t_fill = Dphls_obs.Tracer.now tracer in
  let f = fill ?band_pe ~full kernel params w in
  Dphls_obs.Tracer.add_span tracer ~cat:"engine" ~t0:t_fill
    ~t1:(Dphls_obs.Tracer.now tracer) "fill";
  Dphls_obs.Metrics.add metrics Cells_evaluated f.cells;
  Dphls_obs.Metrics.add metrics Cells_band_skipped
    ((f.qry_len * f.ref_len) - f.cells);
  Dphls_obs.Metrics.add metrics Band_window_moves f.moves;
  Dphls_obs.Metrics.incr metrics Alignments;
  let t_tb = Dphls_obs.Tracer.now tracer in
  let result = result_of ~metrics kernel params f in
  Dphls_obs.Tracer.add_span tracer ~cat:"engine" ~t0:t_tb
    ~t1:(Dphls_obs.Tracer.now tracer) "traceback";
  (result, f)

(* With [full] the ring holds row r in slot r + 1. *)
let matrices_of kernel f =
  let n_layers = kernel.Kernel.n_layers in
  let stride = (f.ref_len + 1) * n_layers in
  {
    scores =
      Array.init n_layers (fun layer ->
          Array.init f.qry_len (fun row ->
              let base = ((row + 1) * stride) + n_layers + layer in
              Array.init f.ref_len (fun col -> f.ring.(base + (col * n_layers)))));
    pointers =
      Array.init f.qry_len (fun row ->
          Array.init f.ref_len (fun col ->
              if Bytes.length f.tb = 0 then 0
              else pointer_at f.tb ~ref_len:f.ref_len ~row ~col));
  }

let run_full ?band_pe ?metrics ?tracer kernel params w =
  let result, f = run_fill ?band_pe ~full:true ?metrics ?tracer kernel params w in
  (result, matrices_of kernel f)

let run ?band_pe ?metrics ?tracer kernel params w =
  fst (run_fill ?band_pe ~full:false ?metrics ?tracer kernel params w)

let score_only ?band_pe kernel params w = (run ?band_pe kernel params w).Result.score

let band_map ?band_pe kernel params w =
  (fill ?band_pe ~full:false kernel params w).member
