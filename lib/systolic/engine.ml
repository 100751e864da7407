open Dphls_core
module Score = Dphls_util.Score

type cycles = {
  prologue : int;
  compute : int;
  reduction : int;
  traceback : int;
  fill : int;
  total : int;
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
  }

let cycles_estimate ?live_wavefronts config kernel _params ~qry_len ~ref_len ~tb_steps =
  let schedule = Schedule.create ~n_pe:config.Config.n_pe ~qry_len ~ref_len in
  let banding = kernel.Kernel.banding and ii = kernel.Kernel.traits.Traits.ii in
  let compute =
    match (banding, live_wavefronts) with
    | Some (Banding.Adaptive _), Some live ->
      (* The hardware only sequences wavefronts with at least one live
         PE; the static schedule cannot know which, only the run. *)
      live * ii
    | _ -> Schedule.compute_cycles schedule ~banding ~ii
  in
  assemble_cycles
    ~prologue:(Schedule.prologue_cycles schedule)
    ~compute
    ~reduction:(Schedule.reduction_cycles schedule)
    ~traceback:tb_steps
    ~fill:(Schedule.pipeline_fill_cycles schedule)

let batch_stats_of ~overlap cycles =
  (* Sequentially the totals just add. With overlap, alignment i's
     prologue runs under alignment i-1's compute and the batch total
     drops by the hidden portion min(prologue_i, compute_(i-1)), the
     clamp the hand-written RTL baselines use (Rtl_model): nothing
     hides under reduction/traceback (shared units), and the first
     prologue is never hidden. *)
  let seq_cycles = ref 0 and hidden = ref 0 in
  Array.iteri
    (fun i c ->
      seq_cycles := !seq_cycles + c.total;
      if overlap && i > 0 then hidden := !hidden + min c.prologue cycles.(i - 1).compute)
    cycles;
  {
    alignments = Array.length cycles;
    seq_cycles = !seq_cycles;
    overlapped_cycles = !seq_cycles - !hidden;
    hidden_cycles = !hidden;
  }

(* The engine is decomposed into stages in the TAPA style: fetch/init
   (the prologue) builds a self-contained task context, the compute
   stage runs the wavefront pipeline over it, then reduction and
   traceback consume its outputs. A task runs all four stages before
   the next workload is fetched; prologue overlap is batch accounting
   ({!batch_stats_of}), not a run order. The task holds the domain's
   traceback plane ([Pe.tb_plane]) from its fetch to its traceback.

   Per-alignment state is sized to the PEs that own a row,
   [rows = min n_pe qry_len]: an array taller than the query models the
   same cycles and slots but allocates and loops over only those PEs. *)
type 'p task = {
  config : Config.t;
  kernel : 'p Kernel.t;
  params : 'p;
  w : Workload.t;
  qry_len : int;
  ref_len : int;
  n_pe : int;
  n_layers : int;
  worst : Types.score;
  schedule : Schedule.t;
  spec : Traceback.spec option;
  tb : Bytes.t;  (* the domain's traceback plane, empty without a traceback *)
  band_tracker : Banding.Tracker.t option;
  in_band : row:int -> col:int -> bool;
  decide : row:int -> col:int -> bool;
  unbanded : bool;
  grid : 'p Grid.t;
  (* Preserved Row Score Buffer: the outputs of each chunk's last row,
     [n_layers] scores per column with column [c] at slot [c + 1] and
     the column -1 border at slot 0, each column tagged with the chunk
     that wrote it so a stale entry is never consumed. It starts as the
     init row, the preserved row of chunk -1 (slot 0 is the corner). *)
  preserved : Types.score array;
  preserved_tag : int array;
  wave : Pe.wave;
  trackers : Traceback.Best_cell.t array;
  first_col : int array;  (* per PE: [Score_site.first_col] of its row this chunk *)
  mutable observed_from : int;  (* this chunk's first wavefront with a score-site cell *)
  (* Wavefront registers: the previous ([w1]) and the one-before ([w2])
     wavefront's planes plus the plane being written ([w_new]), rotated
     by reference each wavefront. Slot [s] of a plane ([n_layers]
     scores at [s * n_layers], see {!Pe.wave}) holds PE [s - 1]'s
     output; slot 0 is the preserved row's read port into PE 0, a
     virtual PE -1 that loads row [r0 - 1] at column [wavefront + 1].
     The init column enters as each PE's column -1 output, on wavefront
     [pe - 1]. So every cell reads up and diag from slot [pe] of [w1]
     and [w2] and left from slot [pe + 1] of [w1], and writes slot
     [pe + 1] of [w_new]. The validity bitmaps mark the slots written on
     that wavefront; a slot read unwritten must be out of band, and
     reads as the worst value. *)
  mutable w1 : Types.score array;
  mutable w2 : Types.score array;
  mutable w_new : Types.score array;
  mutable v1 : Bytes.t;
  mutable v2 : Bytes.t;
  mutable v_new : Bytes.t;
  mutable fires : int;
  mutable slots : int;
  mutable active_wf : int;
}

(* Stage 1 — fetch/init, the prologue. Everything the RTL does before
   the first wavefront: stream the packed query in, write the init-row/
   init-col border buffers, reset the score planes, the preserved-row
   tags and the traceback plane. Costed by {!Schedule.prologue_cycles}.
   [wave] is the kernel's wave evaluator, resolved once per {!run} or
   {!run_batch} call and forced here, after the kernel and the workload
   are validated. *)
let fetch config kernel params ~wave (w : Workload.t) =
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
  let wave = Lazy.force wave in
  let spec = kernel.Kernel.traceback params in
  let rows = min n_pe qry_len in
  let plane () = Array.make ((rows + 1) * n_layers) worst in
  let valid () = Bytes.make (rows + 1) '\000' in
  let preserved = Array.make ((ref_len + 1) * n_layers) worst in
  for col = -1 to ref_len - 1 do
    for layer = 0 to n_layers - 1 do
      preserved.(((col + 1) * n_layers) + layer) <-
        Grid.neighbor grid ~row:(-1) ~col ~layer
    done
  done;
  {
    config;
    kernel;
    params;
    w;
    qry_len;
    ref_len;
    n_pe;
    n_layers;
    worst;
    schedule;
    spec;
    tb =
      (if Option.is_some spec then Pe.tb_plane ~reuse:true ~qry_len ~ref_len
       else Bytes.empty);
    band_tracker;
    in_band;
    decide;
    (* No band at all: short-circuit the membership closures on the hot
       path (the common case for unbanded kernels). *)
    unbanded = Option.is_none banding;
    grid;
    preserved;
    preserved_tag = Array.make (ref_len + 1) (-1);
    wave;
    trackers = Array.init rows (fun _ -> Traceback.Best_cell.create objective);
    first_col = Array.make rows 0;
    observed_from = 0;
    w1 = plane ();
    w2 = plane ();
    w_new = plane ();
    v1 = valid ();
    v2 = valid ();
    v_new = valid ();
    fires = 0;
    slots = 0;
    active_wf = 0;
  }

(* The border cells that enter the plane of [wavefront] (before any
   wavefront ran, the planes [wf_lo - 2] and [wf_lo - 1] leave): the
   preserved row's read port loads row [r0 - 1] at column
   [wavefront + 1] into slot 0, and PE [wavefront + 1] outputs its
   column -1 border cell. The last PE's border output is also its row's
   column -1 entry in the preserved row. *)
let load_edges t ~chunk ~rows ~wavefront plane valid =
  let n = t.n_layers and r0 = chunk * t.n_pe in
  let col = wavefront + 1 in
  if col < t.ref_len then begin
    let row = r0 - 1 in
    if not (t.unbanded || t.in_band ~row ~col) then Array.fill plane 0 n t.worst
    else if t.preserved_tag.(col + 1) <> chunk - 1 then
      invalid_arg
        (Printf.sprintf
           "Systolic.Engine: preserved-row buffer at col %d holds chunk %d, \
            chunk %d expected (reading cell (%d,%d)) — in-band cells must be \
            computed exactly once per chunk"
           col t.preserved_tag.(col + 1) (chunk - 1) row col)
    else Array.blit t.preserved ((col + 1) * n) plane 0 n;
    Bytes.set valid 0 '\001'
  end;
  let pe = wavefront + 1 in
  if pe >= 0 && pe < rows then begin
    let at = (pe + 1) * n in
    for layer = 0 to n - 1 do
      plane.(at + layer) <- Grid.neighbor t.grid ~row:(r0 + pe) ~col:(-1) ~layer
    done;
    Bytes.set valid (pe + 1) '\001';
    if pe = t.n_pe - 1 then begin
      Array.blit plane at t.preserved 0 n;
      t.preserved_tag.(0) <- chunk
    end
  end

(* A register a cell reads that nothing wrote on its wavefront: fine
   for an out-of-band cell, which reads as the worst value from now
   on; an invariant violation for an in-band one. *)
let[@inline never] unwritten t plane valid ~chunk ~slot ~row ~col =
  if t.unbanded || t.in_band ~row ~col then
    invalid_arg
      (Printf.sprintf
         "Systolic.Engine: missing wavefront register for in-band cell \
          (%d,%d) (chunk %d, PE %d) — in-band cells are always computed"
         row col chunk (slot - 1))
  else begin
    Array.fill plane (slot * t.n_layers) t.n_layers t.worst;
    Bytes.set valid slot '\001'
  end

(* Fire PEs [lo .. hi] of [wavefront], a non-empty run of in-band cells: check the
   registers they read, evaluate them in one wave call, then retire
   them in PE order (preserved row, adaptive band, best cells, trace). *)
let fire t ~trace ~chunk ~wavefront ~lo ~hi =
  let n = t.n_layers and r0 = chunk * t.n_pe in
  let w1 = t.w1 and w2 = t.w2 and v1 = t.v1 and v2 = t.v2 and w_new = t.w_new in
  for pe = lo to hi do
    (* up, diag and left: slot [pe] of both planes, slot [pe + 1] of w1 *)
    let col = wavefront - pe in
    if Bytes.unsafe_get v1 pe = '\000' then
      unwritten t w1 v1 ~chunk ~slot:pe ~row:(r0 + pe - 1) ~col;
    if Bytes.unsafe_get v2 pe = '\000' then
      unwritten t w2 v2 ~chunk ~slot:pe ~row:(r0 + pe - 1) ~col:(col - 1);
    if Bytes.unsafe_get v1 (pe + 1) = '\000' then
      unwritten t w1 v1 ~chunk ~slot:(pe + 1) ~row:(r0 + pe) ~col:(col - 1)
  done;
  let tb = t.tb in
  t.wave ~w1 ~w2 ~w_new ~query:t.w.Workload.query ~reference:t.w.Workload.reference ~tb
    ~row0:r0 ~wavefront ~lo ~hi;
  let count = hi - lo + 1 in
  Bytes.fill t.v_new (lo + 1) count '\001';
  t.fires <- t.fires + count;
  if hi = t.n_pe - 1 then begin
    (* the chunk's last row feeds the next chunk's PE 0 *)
    let col = wavefront - hi in
    Array.blit w_new ((hi + 1) * n) t.preserved ((col + 1) * n) n;
    t.preserved_tag.(col + 1) <- chunk
  end;
  if wavefront >= t.observed_from then
    for pe = lo to hi do
      let col = wavefront - pe in
      if col >= t.first_col.(pe) then
        Traceback.Best_cell.observe_rc t.trackers.(pe) ~row:(r0 + pe) ~col
          w_new.((pe + 1) * n)
    done;
  (match t.band_tracker with
  | Some tr ->
    for pe = lo to hi do
      Banding.Tracker.observe tr ~row:(r0 + pe) ~col:(wavefront - pe)
        ~score:w_new.((pe + 1) * n)
    done
  | None -> ());
  if Trace.enabled trace then
    for pe = lo to hi do
      Trace.record trace
        {
          Trace.chunk;
          wavefront;
          pe;
          cell = { Types.row = r0 + pe; col = wavefront - pe };
          tb =
            (if Bytes.length tb > 0 then
               Pe.pointer_at tb ~ref_len:t.ref_len ~row:(r0 + pe) ~col:(wavefront - pe)
             else 0);
          scores =
            (if Trace.capturing trace then Array.sub w_new ((pe + 1) * n) n else [||]);
        }
    done

(* Stage 2 — the wavefront compute pipeline: the whole chunk loop over
   one task's planes; it allocates nothing but trace events. Each wavefront
   makes one wave call per maximal run of in-band PEs: the whole
   in-matrix run when unbanded. *)
let compute_stage (t : _ task) ~trace =
  let n_pe = t.n_pe
  and qry_len = t.qry_len
  and ref_len = t.ref_len
  and banding = t.kernel.Kernel.banding
  and score_site = t.kernel.Kernel.score_site in
  for chunk = 0 to t.schedule.Schedule.n_chunks - 1 do
    let r0 = chunk * n_pe in
    let rows = Int.min n_pe (qry_len - r0) in
    t.observed_from <- max_int;
    for pe = 0 to rows - 1 do
      let first = Score_site.first_col score_site ~qry_len ~ref_len ~row:(r0 + pe) in
      t.first_col.(pe) <- first;
      t.observed_from <- Int.min t.observed_from (first + pe)
    done;
    (match t.band_tracker with
    | Some tr -> Banding.Tracker.start_chunk tr ~chunk
    | None -> ());
    match Schedule.active_wavefronts t.schedule ~banding ~chunk with
    | None -> ()
    | Some (wf_lo, wf_hi) ->
      Bytes.fill t.v2 0 (rows + 1) '\000';
      load_edges t ~chunk ~rows ~wavefront:(wf_lo - 2) t.w2 t.v2;
      Bytes.fill t.v1 0 (rows + 1) '\000';
      load_edges t ~chunk ~rows ~wavefront:(wf_lo - 1) t.w1 t.v1;
      for wavefront = wf_lo to wf_hi do
        Bytes.fill t.v_new 0 (rows + 1) '\000';
        let fires_before = t.fires in
        t.slots <- t.slots + n_pe;
        (* the PEs whose cell lies in the matrix (Schedule.cell_of) *)
        let lo = Int.max 0 (wavefront - ref_len + 1) and hi = Int.min (rows - 1) wavefront in
        if t.unbanded then fire t ~trace ~chunk ~wavefront ~lo ~hi
        else begin
          (* the in-band ones, decided in PE order, in maximal runs *)
          let start = ref (-1) in
          for pe = lo to hi do
            if t.decide ~row:(r0 + pe) ~col:(wavefront - pe) then begin
              if !start < 0 then start := pe
            end
            else if !start >= 0 then begin
              fire t ~trace ~chunk ~wavefront ~lo:!start ~hi:(pe - 1);
              start := -1
            end
          done;
          if !start >= 0 then fire t ~trace ~chunk ~wavefront ~lo:!start ~hi
        end;
        load_edges t ~chunk ~rows ~wavefront t.w_new t.v_new;
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
          if Trace.capturing trace then begin
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
  {
    cycles =
      cycles_estimate ~live_wavefronts:t.active_wf t.config t.kernel t.params
        ~qry_len:t.qry_len ~ref_len:t.ref_len ~tb_steps;
    pe_fires = t.fires;
    pe_slots = t.slots;
    utilization =
      (if t.slots = 0 then 0.0
       else float_of_int t.fires /. float_of_int t.slots);
    tb_words = (if Option.is_some t.spec then t.fires else 0);
  }

(* One workload through fetch → compute → reduce → traceback, recording
   the per-stage tracer spans. *)
let run_task ~wave ~trace ~metrics ~tracer config kernel params w =
  let t0 = Dphls_obs.Tracer.now tracer in
  let t = fetch config kernel params ~wave w in
  Dphls_obs.Tracer.add_span tracer ~cat:"engine" ~t0
    ~t1:(Dphls_obs.Tracer.now tracer) "prologue";
  let t_compute = Dphls_obs.Tracer.now tracer in
  compute_stage t ~trace;
  Dphls_obs.Tracer.add_span tracer ~cat:"engine" ~t0:t_compute
    ~t1:(Dphls_obs.Tracer.now tracer) "compute";
  let t_reduce = Dphls_obs.Tracer.now tracer in
  let start, score = reduce_stage t in
  Dphls_obs.Tracer.add_span tracer ~cat:"engine" ~t0:t_reduce
    ~t1:(Dphls_obs.Tracer.now tracer) "reduction";
  (* Stage 4 — traceback: walk the plane from the best cell, as the
     golden engine does. *)
  let t_tb = Dphls_obs.Tracer.now tracer in
  let result =
    Walker.result ~metrics t.spec ~tb:t.tb ~start ~score ~cells:t.fires ~qry_len:t.qry_len
      ~ref_len:t.ref_len
  in
  Dphls_obs.Tracer.add_span tracer ~cat:"engine" ~t0:t_tb
    ~t1:(Dphls_obs.Tracer.now tracer) "traceback";
  (result, finish_stats t ~metrics ~tb_steps:result.Result.tb_steps)

let run ?(trace = Trace.create ~enabled:false)
    ?(metrics = Dphls_obs.Metrics.disabled)
    ?(tracer = Dphls_obs.Tracer.disabled) config kernel params (w : Workload.t)
    =
  let wave = lazy (Kernel.flat_wave kernel params) in
  run_task ~wave ~trace ~metrics ~tracer config kernel params w

let run_batch ?(overlap = false) ?(metrics = Dphls_obs.Metrics.disabled)
    ?(tracer = Dphls_obs.Tracer.disabled) config kernel params
    (ws : Workload.t array) =
  (* one wave for the batch: its tasks run one after another *)
  let wave = lazy (Kernel.flat_wave kernel params) in
  let trace = Trace.create ~enabled:false in
  let results =
    Array.map (run_task ~wave ~trace ~metrics ~tracer config kernel params) ws
  in
  (results, batch_stats_of ~overlap (Array.map (fun (_, s) -> s.cycles) results))

let tile_runner config kernel params ~band w =
  let result, stats =
    run config (Kernel.with_band kernel (Option.map Option.some band)) params w
  in
  (result, stats.cycles.total)
