open Dphls_core
module Score = Dphls_util.Score

type matrices = {
  scores : Types.score array array array;
  pointers : int array array;
  member : row:int -> col:int -> bool;
}

(* What one fill leaves behind. [ring] holds [ring_rows] score rows of
   [ref_len + 1] cells of [n_layers] scores each; row [r] lives in slot
   [(r + 1) mod ring_rows] and cell slot 0 of every row is its col -1
   border, so the virtual row/column and pruned cells are plain stored
   values and every neighbour read is a direct array read. [tb] is the
   traceback plane ([Pe.tb_plane], empty without a traceback). *)
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

(* A domain keeps the score ring of its last alignment and hands it to
   the next one, as it does the traceback plane ([Pe.tb_plane]), under
   the same cap: each call resets the prefix it uses to the worst
   value, and a ring above [retain_cap_bytes] is allocated for its call
   only. 1 MiB holds the ring of a 128k-cell adaptive canonical fill;
   the plane's comment gives the rest of the reasoning. A domain
   therefore retains at most 2 MiB. *)
let retain_cap_bytes = Pe.retain_cap_bytes

let scratch = Domain.DLS.new_key (fun () -> ref [||])

let ring_buffer ~words worst =
  if words * (Sys.word_size / 8) > retain_cap_bytes then Array.make words worst
  else begin
    let ring = Domain.DLS.get scratch in
    if Array.length !ring < words then ring := Array.make words worst
    else Array.fill !ring 0 words worst;
    !ring
  end

let retained_bytes () =
  (Array.length !(Domain.DLS.get scratch) * (Sys.word_size / 8)) + Pe.retained_plane_bytes ()

(* Cells are evaluated only through the kernel's row evaluator
   ([Kernel.flat_row]: the generated fused row loop for catalog
   programs, the generic row around the bytecode otherwise), which
   reads its neighbours from the ring, writes its layers back and
   stores its pointers. Two traversals drive it:

   - unbanded and fixed bands go row-major over a ring of two rows, one
     row call per row over its band interval [max 0 (row - w) ..
     min (ref_len - 1) (row + w)] (the whole row when unbanded); the
     rest of the row is set to the worst value;
   - adaptive bands replay the systolic engine's chunked traversal:
     chunks of [h = band_pe] query rows, within a chunk wavefront [w]
     holds cells (r0 + k, w - k), one call per decided cell. Only
     completed wavefronts steer the window, so the golden engine must
     replay the systolic engine's chunking to prune the same cells. The
     ring keeps the chunk's rows plus the previous chunk's last row
     ([h + 1] rows).

   Anti-diagonal order respects every DP dependency, so both orders
   give a row-major fill's scores. [full] keeps all [qry_len + 1] rows
   in buffers of its own, for {!run_full}; otherwise the ring and the
   plane are the domain's reused ones. Score-site candidates are
   observed as cells retire; [Best_cell] breaks ties canonically, so
   the order does not matter. [row] is the kernel's row evaluator,
   resolved once per {!run_batch} call and forced here, after the
   workload is checked. *)
let fill ?band_pe ~full ~row:eval_row kernel params (w : Workload.t) =
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
  let member =
    match tracker with
    | Some tr -> Banding.Tracker.member tr
    | None -> Banding.in_band kernel.Kernel.banding
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
  let ring =
    if full then Array.make (ring_rows * stride) worst
    else ring_buffer ~words:(ring_rows * stride) worst
  in
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
  let tb =
    if not (Kernel.has_traceback kernel params) then Bytes.empty
    else Pe.tb_plane ~reuse:(not full) ~qry_len ~ref_len
  in
  let eval_row = Lazy.force eval_row in
  let rule = kernel.Kernel.score_site in
  let best = Traceback.Best_cell.create objective in
  let cells = ref 0 in
  (match tracker with
  | None ->
    let width =
      match kernel.Kernel.banding with
      | Some (Banding.Fixed { width }) -> width
      | _ -> qry_len + ref_len (* every column of every row *)
    in
    for row = 0 to qry_len - 1 do
      let base = row_base row in
      load_border ~row ~col:(-1);
      let lo = max 0 (row - width) and hi = min (ref_len - 1) (row + width) in
      if lo > hi then Array.fill ring (base + n_layers) (ref_len * n_layers) worst
      else begin
        Array.fill ring (base + n_layers) (lo * n_layers) worst;
        Array.fill ring
          (base + ((hi + 2) * n_layers))
          ((ref_len - 1 - hi) * n_layers)
          worst;
        eval_row ~ring ~above:(row_base (row - 1)) ~base ~qry:query.(row)
          ~reference ~tb ~row ~lo ~hi;
        for col = max lo (Score_site.first_col rule ~qry_len ~ref_len ~row) to hi do
          Traceback.Best_cell.observe_rc best ~row ~col
            ring.(base + ((col + 1) * n_layers))
        done;
        cells := !cells + (hi - lo + 1)
      end
    done
  | Some tr ->
    (* bases.(k + 1): ring offset of chunk row r0 + k, for k = -1 .. rows - 1 *)
    let bases = Array.make (height + 1) 0 in
    for chunk = 0 to ((qry_len + h - 1) / h) - 1 do
      let r0 = chunk * h in
      let rows = min h (qry_len - r0) in
      Banding.Tracker.start_chunk tr ~chunk;
      for k = -1 to rows - 1 do
        bases.(k + 1) <- row_base (r0 + k)
      done;
      for k = 0 to rows - 1 do
        load_border ~row:(r0 + k) ~col:(-1)
      done;
      for wavefront = 0 to rows + ref_len - 2 do
        for k = max 0 (wavefront - ref_len + 1) to min (rows - 1) wavefront do
          let row = r0 + k and col = wavefront - k in
          let base = bases.(k + 1) in
          let at = base + ((col + 1) * n_layers) in
          if Banding.Tracker.decide tr ~row ~col then begin
            eval_row ~ring ~above:bases.(k) ~base ~qry:query.(row) ~reference
              ~tb ~row ~lo:col ~hi:col;
            let score = ring.(at) in
            Banding.Tracker.observe tr ~row ~col ~score;
            if Score_site.observes rule ~qry_len ~ref_len ~row ~col then
              Traceback.Best_cell.observe_rc best ~row ~col score;
            incr cells
          end
          else Array.fill ring at n_layers worst
        done;
        Banding.Tracker.end_wavefront tr
      done
    done);
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

let row_of kernel params = lazy (Kernel.flat_row kernel params)

let run_fill ?band_pe ~full ?row ?(metrics = Dphls_obs.Metrics.disabled)
    ?(tracer = Dphls_obs.Tracer.disabled) kernel params w =
  let row = match row with Some row -> row | None -> row_of kernel params in
  let t_fill = Dphls_obs.Tracer.now tracer in
  let f = fill ?band_pe ~full ~row kernel params w in
  Dphls_obs.Tracer.add_span tracer ~cat:"engine" ~t0:t_fill
    ~t1:(Dphls_obs.Tracer.now tracer) "fill";
  Dphls_obs.Metrics.add metrics Cells_evaluated f.cells;
  Dphls_obs.Metrics.add metrics Cells_band_skipped
    ((f.qry_len * f.ref_len) - f.cells);
  Dphls_obs.Metrics.add metrics Band_window_moves f.moves;
  Dphls_obs.Metrics.incr metrics Alignments;
  let t_tb = Dphls_obs.Tracer.now tracer in
  let start, score =
    Score_site.resolve ~objective:kernel.Kernel.objective ~qry_len:f.qry_len
      ~ref_len:f.ref_len f.best
  in
  let result =
    Walker.result ~metrics (kernel.Kernel.traceback params) ~tb:f.tb ~start ~score
      ~cells:f.cells ~qry_len:f.qry_len ~ref_len:f.ref_len
  in
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
              else Pe.pointer_at f.tb ~ref_len:f.ref_len ~row ~col));
    member = f.member;
  }

let run_full ?band_pe ?metrics ?tracer kernel params w =
  let result, f = run_fill ?band_pe ~full:true ?metrics ?tracer kernel params w in
  (result, matrices_of kernel f)

let run ?band_pe ?metrics ?tracer kernel params w =
  fst (run_fill ?band_pe ~full:false ?metrics ?tracer kernel params w)

(* one row evaluator for the batch: its alignments run one after another *)
let run_batch ?band_pe ?metrics ?tracer kernel params ws =
  let row = row_of kernel params in
  Array.map
    (fun w -> fst (run_fill ?band_pe ~full:false ~row ?metrics ?tracer kernel params w))
    ws

let band_map ?band_pe kernel params w =
  match kernel.Kernel.banding with
  | Some (Banding.Adaptive _) ->
    (fill ?band_pe ~full:false ~row:(row_of kernel params) kernel params w).member
  | band -> Banding.in_band band
