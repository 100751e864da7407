open Dphls_core
module Score = Dphls_util.Score

type cycles = {
  prologue : int;
  compute : int;
  reduction : int;
  traceback : int;
  fill : int;
  total : int;
  total_overlapped : int;
}

type stats = {
  cycles : cycles;
  pe_fires : int;
  pe_slots : int;
  utilization : float;
  tb_words : int;
}

type batch_stats = {
  alignments : int;
  seq_cycles : int;
  overlapped_cycles : int;
  hidden_cycles : int;
}

let assemble_cycles ~prologue ~compute ~reduction ~traceback ~fill =
  {
    prologue;
    compute;
    reduction;
    traceback;
    fill;
    total = prologue + compute + reduction + traceback + fill;
    (* Steady-state overlapped total: the prologue runs under the
       previous alignment's compute, so only the part it cannot hide —
       max(prologue, compute) instead of their sum — reaches the total.
       Same clamp as the hand-written RTL baselines (Rtl_model): overlap
       hides the prologue, it never drops the total below
       fill + compute + reduction + traceback. *)
    total_overlapped = max prologue compute + reduction + traceback + fill;
  }

let cycles_estimate config kernel _params ~qry_len ~ref_len ~tb_steps =
  let schedule = Schedule.create ~n_pe:config.Config.n_pe ~qry_len ~ref_len in
  let banding = kernel.Kernel.banding in
  assemble_cycles
    ~prologue:(Schedule.prologue_cycles schedule)
    ~compute:(Schedule.compute_cycles schedule ~banding ~ii:kernel.Kernel.traits.Traits.ii)
    ~reduction:(Schedule.reduction_cycles schedule)
    ~traceback:tb_steps
    ~fill:(Schedule.pipeline_fill_cycles schedule)

(* The engine is decomposed into communicating stages in the TAPA style
   (ROADMAP item 4): fetch/init (the prologue) builds a self-contained
   task context, the compute stage runs the wavefront pipeline over it,
   then reduction and traceback consume its outputs. Stages hand off
   through bounded {!Fifo}s; because each task owns all of its mutable
   state (score planes, validity bitmaps, preserved-row buffer, border
   scratch, traceback memory), two tasks can be in flight at once — the
   double buffering that lets {!run_batch} overlap alignment [i+1]'s
   prologue with alignment [i]'s compute — and results stay bit-identical
   to the fully sequential order by construction. *)
type 'p task = {
  kernel : 'p Kernel.t;
  w : Workload.t;
  qry_len : int;
  ref_len : int;
  n_pe : int;
  n_layers : int;
  worst : Types.score;
  worst_layers : Types.score array;
  schedule : Schedule.t;
  tb_spec : Traceback.spec option;
  has_tb : bool;
  tb_mem : Tb_memory.t;
  band_tracker : Banding.Tracker.t option;
  in_band : row:int -> col:int -> bool;
  decide : row:int -> col:int -> bool;
  unbanded : bool;
  grid : 'p Grid.t;
  (* Scratch destinations for border reads: one dedicated array per input
     port, so a cell touching several borders never aliases them. *)
  border_up : Types.score array;
  border_diag : Types.score array;
  border_left : Types.score array;
  (* Preserved Row Score Buffer: outputs of each chunk's last row (copied
     out of the retiring plane), tagged with the chunk that wrote them so
     stale entries are never consumed. *)
  preserved : Types.score array array;
  preserved_tag : int array;
  pe_flat : Pe.flat;
  buf : Pe.buffers;
  trackers : Traceback.Best_cell.t array;
  (* Wavefront registers as preallocated score planes indexed [pe][layer]:
     the previous ([w1]) and the one-before ([w2]) wavefront's outputs plus
     the plane being written ([w_new]), rotated by reference each
     wavefront; validity bitmaps replace the old [option] boxing. PE 0's
     remembered up-input (its diag source) lives in its own scratch row,
     tagged with the column it belongs to — adaptive bands can make a
     row's membership non-contiguous, so a stale register must fall back
     to the preserved-row buffer instead of being consumed. *)
  mutable w1 : Types.score array array;
  mutable w2 : Types.score array array;
  mutable w_new : Types.score array array;
  mutable v1 : bool array;
  mutable v2 : bool array;
  mutable v_new : bool array;
  pe0_up : Types.score array;
  mutable pe0_up_col : int;
  mutable fires : int;
  mutable slots : int;
  mutable active_wf : int;
}

(* Stage 1 — fetch/init, the prologue. Everything the RTL does before
   the first wavefront: stream the packed query in, write the init-row/
   init-col border buffers, reset the score planes and the preserved-row
   tags. Costed by {!Schedule.prologue_cycles}. *)
let fetch config kernel params (w : Workload.t) =
  Kernel.validate kernel params;
  let qry_len = Array.length w.Workload.query
  and ref_len = Array.length w.Workload.reference in
  if qry_len < 1 || ref_len < 1 then invalid_arg "Systolic.Engine: empty sequence";
  let n_pe = config.Config.n_pe in
  let n_layers = kernel.Kernel.n_layers in
  let banding = kernel.Kernel.banding in
  let objective = kernel.Kernel.objective in
  let worst = Score.worst_value objective in
  let schedule = Schedule.create ~n_pe ~qry_len ~ref_len in
  (* Adaptive bands carry per-wavefront state: the tracker decides each
     cell as its wavefront retires and remembers the decisions so later
     neighbour reads see the same membership. Static bands keep the pure
     predicate. *)
  let band_tracker =
    match banding with
    | Some (Banding.Adaptive _ as b) ->
      Some
        (Banding.Tracker.create b ~objective ~chunk_rows:n_pe ~qry_len ~ref_len)
    | Some (Banding.Fixed _) | None -> None
  in
  let in_band =
    (* membership of already-decided cells (neighbour reads) *)
    match band_tracker with
    | Some tr -> fun ~row ~col -> Banding.Tracker.member tr ~row ~col
    | None -> fun ~row ~col -> Banding.in_band banding ~row ~col
  in
  let decide =
    (* membership of the cell being computed this wavefront *)
    match band_tracker with
    | Some tr -> fun ~row ~col -> Banding.Tracker.decide tr ~row ~col
    | None -> in_band
  in
  (* Border (virtual row/column -1) values come from the kernel's init
     functions via the shared Grid logic; the [read] callback is never
     reached because we only query virtual coordinates. *)
  let grid =
    Grid.create ~in_band kernel params ~qry_len ~ref_len
      ~read:(fun ~row ~col ~layer:_ ->
        invalid_arg
          (Printf.sprintf
             "Systolic.Engine: unexpected grid read of stored cell (%d,%d) — \
              the array reads neighbours from wavefront registers only"
             row col))
  in
  let plane () = Array.init n_pe (fun _ -> Array.make n_layers worst) in
  let tb_spec = kernel.Kernel.traceback params in
  {
    kernel;
    w;
    qry_len;
    ref_len;
    n_pe;
    n_layers;
    worst;
    worst_layers = Array.make n_layers worst;
    schedule;
    tb_spec;
    has_tb = Option.is_some tb_spec;
    tb_mem = Tb_memory.create schedule;
    band_tracker;
    in_band;
    decide;
    (* No band at all: short-circuit the membership closures on the hot
       path (the common case for unbanded kernels). *)
    unbanded = Option.is_none banding;
    grid;
    border_up = Array.make n_layers worst;
    border_diag = Array.make n_layers worst;
    border_left = Array.make n_layers worst;
    preserved = Array.init ref_len (fun _ -> Array.make n_layers worst);
    preserved_tag = Array.make ref_len (-1);
    pe_flat = Kernel.flat_pe kernel params;
    buf = Pe.create_buffers ~n_layers;
    trackers = Array.init n_pe (fun _ -> Traceback.Best_cell.create objective);
    w1 = plane ();
    w2 = plane ();
    w_new = plane ();
    v1 = Array.make n_pe false;
    v2 = Array.make n_pe false;
    v_new = Array.make n_pe false;
    pe0_up = Array.make n_layers worst;
    pe0_up_col = -1;
    fires = 0;
    slots = 0;
    active_wf = 0;
  }

let border_into t dst ~row ~col =
  for layer = 0 to t.n_layers - 1 do
    dst.(layer) <- Grid.neighbor t.grid ~row ~col ~layer
  done;
  dst

let read_prev_row t ~chunk ~col ~row =
  (* row = chunk*n_pe - 1, the previous chunk's last row *)
  if not (t.unbanded || t.in_band ~row ~col) then t.worst_layers
  else if t.preserved_tag.(col) <> chunk - 1 then
    invalid_arg
      (Printf.sprintf
         "Systolic.Engine: preserved-row buffer at col %d holds chunk %d, \
          chunk %d expected (reading cell (%d,%d)) — in-band cells must be \
          computed exactly once per chunk"
         col t.preserved_tag.(col) (chunk - 1) row col)
  else t.preserved.(col)

let reg_value t plane valid idx ~chunk ~row ~col =
  if not (t.unbanded || t.in_band ~row ~col) then t.worst_layers
  else if not valid.(idx) then
    invalid_arg
      (Printf.sprintf
         "Systolic.Engine: missing wavefront register for in-band cell \
          (%d,%d) (chunk %d, PE %d) — in-band cells are always computed"
         row col chunk idx)
  else plane.(idx)

(* Stage 2 — the wavefront compute pipeline. Runs the whole chunk loop
   over one task's planes; the hot path allocates nothing. *)
let compute_stage (t : _ task) ~trace =
  let n_pe = t.n_pe
  and n_layers = t.n_layers
  and qry_len = t.qry_len
  and ref_len = t.ref_len
  and banding = t.kernel.Kernel.banding
  and unbanded = t.unbanded
  and decide = t.decide
  and in_band = t.in_band
  and buf = t.buf
  and pe_flat = t.pe_flat
  and w = t.w
  and worst_layers = t.worst_layers
  and pe0_up = t.pe0_up
  and has_tb = t.has_tb
  and score_site = t.kernel.Kernel.score_site in
  let trace_on = Trace.enabled trace in
  let trace_capture = Trace.capturing trace in
  for chunk = 0 to t.schedule.Schedule.n_chunks - 1 do
    Array.fill t.v1 0 n_pe false;
    Array.fill t.v2 0 n_pe false;
    t.pe0_up_col <- -1;
    (match t.band_tracker with
    | Some tr -> Banding.Tracker.start_chunk tr ~chunk
    | None -> ());
    match Schedule.active_wavefronts t.schedule ~banding ~chunk with
    | None -> ()
    | Some (wf_lo, wf_hi) ->
      for wavefront = wf_lo to wf_hi do
        Array.fill t.v_new 0 n_pe false;
        let fires_before = t.fires in
        (* per-wavefront views of the rotating planes: no field derefs in
           the per-PE loop *)
        let p1 = t.w1 and vl1 = t.v1 and p2 = t.w2 and vl2 = t.v2 in
        let pn = t.w_new and vln = t.v_new in
        t.slots <- t.slots + n_pe;
        for pe = 0 to n_pe - 1 do
          (* Schedule.cell_of, inlined without its option/cell boxing *)
          let row = (chunk * n_pe) + pe in
          let col = wavefront - pe in
          if
            row < qry_len && col >= 0 && col < ref_len
            && (unbanded || decide ~row ~col)
          then begin
            let up =
              if pe = 0 then
                if row = 0 then border_into t t.border_up ~row:(-1) ~col
                else read_prev_row t ~chunk ~col ~row:(row - 1)
              else reg_value t p1 vl1 (pe - 1) ~chunk ~row:(row - 1) ~col
            in
            let diag =
              if col = 0 then border_into t t.border_diag ~row:(row - 1) ~col:(-1)
              else if pe = 0 then
                if row = 0 then
                  border_into t t.border_diag ~row:(-1) ~col:(col - 1)
                else if not (unbanded || in_band ~row:(row - 1) ~col:(col - 1))
                then worst_layers
                else if t.pe0_up_col = col - 1 then pe0_up
                else
                  (* PE 0 skipped (row, col-1) as out-of-band, so its
                     up-read there never happened; the previous row's
                     value is still live in the preserved buffer. *)
                  read_prev_row t ~chunk ~col:(col - 1) ~row:(row - 1)
              else reg_value t p2 vl2 (pe - 1) ~chunk ~row:(row - 1) ~col:(col - 1)
            in
            let left =
              if col = 0 then border_into t t.border_left ~row ~col:(-1)
              else reg_value t p1 vl1 pe ~chunk ~row ~col:(col - 1)
            in
            let out = pn.(pe) in
            buf.Pe.b_up <- up;
            buf.Pe.b_diag <- diag;
            buf.Pe.b_left <- left;
            buf.Pe.b_qry <- w.Workload.query.(row);
            buf.Pe.b_rf <- w.Workload.reference.(col);
            buf.Pe.b_row <- row;
            buf.Pe.b_col <- col;
            buf.Pe.b_scores <- out;
            pe_flat buf;
            vln.(pe) <- true;
            if pe = 0 then begin
              (* remember the up-input PE 0 just consumed: it is next
                 wavefront's diag. Copied (not aliased) because at
                 n_pe = 1 the source may be the preserved row, which this
                 same chunk overwrites column by column. *)
              Array.blit up 0 pe0_up 0 n_layers;
              t.pe0_up_col <- col
            end;
            (match t.band_tracker with
            | Some tr -> Banding.Tracker.observe tr ~row ~col ~score:out.(0)
            | None -> ());
            if has_tb then Tb_memory.write_at t.tb_mem ~chunk ~pe ~col buf.Pe.b_tb;
            if row = (chunk * n_pe) + n_pe - 1 then begin
              (* last row of the chunk feeds the next chunk's PE 0 *)
              Array.blit out 0 t.preserved.(col) 0 n_layers;
              t.preserved_tag.(col) <- chunk
            end;
            if Score_site.observes score_site ~qry_len ~ref_len ~row ~col then
              Traceback.Best_cell.observe_rc t.trackers.(pe) ~row ~col out.(0);
            t.fires <- t.fires + 1;
            if trace_on then
              Trace.record trace
                {
                  Trace.chunk;
                  wavefront;
                  pe;
                  cell = { Types.row; col };
                  tb = (if has_tb then buf.Pe.b_tb else 0);
                  scores = (if trace_capture then Array.copy out else [||]);
                }
          end
        done;
        (* rotate the planes: w2 <- w1, w1 <- w_new, recycle old w2 *)
        let p2 = t.w2 and vv2 = t.v2 in
        t.w2 <- t.w1;
        t.v2 <- t.v1;
        t.w1 <- t.w_new;
        t.v1 <- t.v_new;
        t.w_new <- p2;
        t.v_new <- vv2;
        (match t.band_tracker with
        | Some tr ->
          Banding.Tracker.end_wavefront tr;
          if trace_capture then begin
            let w_lo, w_hi = Banding.Tracker.window tr in
            Trace.record_window trace
              { Trace.w_chunk = chunk; w_wavefront = wavefront; w_lo; w_hi }
          end
        | None -> ());
        if t.fires > fires_before then t.active_wf <- t.active_wf + 1
      done
  done

(* Stage 3 — reduction over per-PE local bests (§5.2). *)
let reduce_stage (t : _ task) =
  let objective = t.kernel.Kernel.objective in
  let merged =
    Array.fold_left Traceback.Best_cell.merge
      (Traceback.Best_cell.create objective)
      t.trackers
  in
  Score_site.resolve ~objective ~qry_len:t.qry_len ~ref_len:t.ref_len merged

(* Stage 4 — traceback: walk the banked pointer memory from the best
   cell. *)
let traceback_stage (t : _ task) ~metrics (start_cell, score) =
  match t.tb_spec with
  | None ->
    ( {
        Result.score;
        start_cell = None;
        end_cell = None;
        path = [];
        cells_computed = t.fires;
      },
      0 )
  | Some spec ->
    let ptr_at ~row ~col = Tb_memory.read t.tb_mem ~row ~col in
    let outcome =
      Walker.walk ~metrics ~fsm:spec.Traceback.fsm ~stop:spec.Traceback.stop
        ~ptr_at ~start:start_cell ~qry_len:t.qry_len ~ref_len:t.ref_len ()
    in
    ( {
        Result.score;
        start_cell = Some start_cell;
        end_cell = Some outcome.Walker.end_cell;
        path = outcome.Walker.path;
        cells_computed = t.fires;
      },
      outcome.Walker.steps )

let finish_stats (t : _ task) ~metrics ~tb_steps =
  (* Counters land once per run from the totals the task already keeps,
     so the wavefront loop itself carries no instrumentation. [slots]
     grows by [n_pe] exactly once per executed wavefront, so
     [slots / n_pe] is the executed-wavefront count. *)
  Dphls_obs.Metrics.add metrics Cells_evaluated t.fires;
  Dphls_obs.Metrics.add metrics Cells_band_skipped
    ((t.qry_len * t.ref_len) - t.fires);
  Dphls_obs.Metrics.add metrics Wavefronts (t.slots / t.n_pe);
  Dphls_obs.Metrics.incr metrics Alignments;
  (match t.band_tracker with
  | Some tr ->
    Dphls_obs.Metrics.add metrics Band_window_moves
      (Banding.Tracker.window_moves tr)
  | None -> ());
  let banding = t.kernel.Kernel.banding in
  let ii = t.kernel.Kernel.traits.Traits.ii in
  let compute_cycles =
    match banding with
    | Some (Banding.Adaptive _) ->
      (* The hardware only sequences wavefronts with at least one live
         PE; the static schedule cannot know which, so count them here. *)
      t.active_wf * ii
    | Some (Banding.Fixed _) | None ->
      Schedule.compute_cycles t.schedule ~banding ~ii
  in
  let cycles =
    assemble_cycles
      ~prologue:(Schedule.prologue_cycles t.schedule)
      ~compute:compute_cycles
      ~reduction:(Schedule.reduction_cycles t.schedule)
      ~traceback:tb_steps
      ~fill:(Schedule.pipeline_fill_cycles t.schedule)
  in
  {
    cycles;
    pe_fires = t.fires;
    pe_slots = t.slots;
    utilization =
      (if t.slots = 0 then 0.0
       else float_of_int t.fires /. float_of_int t.slots);
    tb_words = Tb_memory.words_written t.tb_mem;
  }

(* Run one fetched task through compute → reduce → traceback, recording
   the per-stage tracer spans. *)
let drain_task (t : _ task) ~trace ~metrics ~tracer =
  let t_compute = Dphls_obs.Tracer.now tracer in
  compute_stage t ~trace;
  Dphls_obs.Tracer.add_span tracer ~cat:"engine" ~t0:t_compute
    ~t1:(Dphls_obs.Tracer.now tracer) "compute";
  let t_reduce = Dphls_obs.Tracer.now tracer in
  let best = reduce_stage t in
  Dphls_obs.Tracer.add_span tracer ~cat:"engine" ~t0:t_reduce
    ~t1:(Dphls_obs.Tracer.now tracer) "reduction";
  let t_tb = Dphls_obs.Tracer.now tracer in
  let result, tb_steps = traceback_stage t ~metrics best in
  Dphls_obs.Tracer.add_span tracer ~cat:"engine" ~t0:t_tb
    ~t1:(Dphls_obs.Tracer.now tracer) "traceback";
  (result, finish_stats t ~metrics ~tb_steps)

let fetch_traced ?(tid = 0) config kernel params w ~tracer =
  let t0 = Dphls_obs.Tracer.now tracer in
  let t = fetch config kernel params w in
  Dphls_obs.Tracer.add_span tracer ~cat:"engine" ~tid ~t0
    ~t1:(Dphls_obs.Tracer.now tracer) "prologue";
  t

let run ?(trace = Trace.create ~enabled:false)
    ?(metrics = Dphls_obs.Metrics.disabled)
    ?(tracer = Dphls_obs.Tracer.disabled) config kernel params (w : Workload.t)
    =
  (* Single alignment: the stages still hand off through the bounded
     FIFOs (fetch→compute two deep, the rest one deep), they just never
     hold more than one task. *)
  let fetched = Fifo.create ~capacity:2 in
  Fifo.push fetched (fetch_traced config kernel params w ~tracer);
  drain_task (Fifo.pop fetched) ~trace ~metrics ~tracer

let run_batch ?(overlap = false) ?traces
    ?(metrics = Dphls_obs.Metrics.disabled)
    ?(tracer = Dphls_obs.Tracer.disabled) config kernel params
    (ws : Workload.t array) =
  (match traces with
  | Some a when Array.length a <> Array.length ws ->
    invalid_arg "Systolic.Engine.run_batch: traces length mismatch"
  | _ -> ());
  let trace_for i =
    match traces with
    | Some a -> a.(i)
    | None -> Trace.create ~enabled:false
  in
  let n = Array.length ws in
  let out = Array.make n None in
  let fetched = Fifo.create ~capacity:2 in
  if n > 0 then Fifo.push fetched (fetch_traced config kernel params ws.(0) ~tracer);
  for i = 0 to n - 1 do
    let t = Fifo.pop fetched in
    if overlap && i + 1 < n then
      (* Alignment i+1's prologue issues while alignment i occupies the
         compute stage: with the two-deep fetch FIFO both tasks are in
         flight, each on its own (double-buffered) planes and borders.
         Recorded on tracer track 1 so `dphls profile` shows the
         prologue hiding under the compute track. *)
      Fifo.push fetched (fetch_traced ~tid:1 config kernel params ws.(i + 1) ~tracer);
    out.(i) <- Some (drain_task t ~trace:(trace_for i) ~metrics ~tracer);
    if (not overlap) && i + 1 < n then
      Fifo.push fetched (fetch_traced config kernel params ws.(i + 1) ~tracer)
  done;
  let results = Array.map Option.get out in
  (* Batch cycle accounting. Sequentially the totals just add. With
     overlap, alignment i's prologue runs under alignment i-1's compute
     and the modeled batch total drops by the hidden portion
     min(prologue_i, compute_{i-1}) — the same clamp as
     [total_overlapped]: nothing is hidden under reduction/traceback
     (shared units), and the first prologue is never hidden. *)
  let seq_cycles = ref 0 and hidden = ref 0 and prologues_hidden = ref 0 in
  Array.iteri
    (fun i (_, s) ->
      seq_cycles := !seq_cycles + s.cycles.total;
      if overlap && i > 0 then begin
        let _, prev = results.(i - 1) in
        let h = min s.cycles.prologue prev.cycles.compute in
        hidden := !hidden + h;
        if h > 0 then incr prologues_hidden
      end)
    results;
  Dphls_obs.Metrics.add metrics Prologues_overlapped !prologues_hidden;
  Dphls_obs.Metrics.add metrics Overlap_hidden_cycles !hidden;
  ( results,
    {
      alignments = n;
      seq_cycles = !seq_cycles;
      overlapped_cycles = !seq_cycles - !hidden;
      hidden_cycles = !hidden;
    } )
