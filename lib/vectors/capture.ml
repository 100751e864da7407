open Dphls_core
open Dphls_systolic

let header (k : 'p Kernel.t) p ~n_pe (w : Workload.t) =
  let qry_len, ref_len = Workload.sizes w in
  {
    Stream.version = Codec.version;
    kernel_id = k.Kernel.id;
    kernel_name = k.Kernel.name;
    params_hash = Fingerprint.params_hash k p ~n_pe;
    band = Stream.band_spec_of_banding k.Kernel.banding;
    n_pe;
    qry_len;
    ref_len;
    n_layers = k.Kernel.n_layers;
    query = w.Workload.query;
    reference = w.Workload.reference;
  }

let summary (r : Result.t) =
  {
    Stream.s_score = r.Result.score;
    s_start = r.Result.start_cell;
    s_end = r.Result.end_cell;
    s_cigar = Result.cigar r;
    s_cells = r.Result.cells_computed;
  }

let of_trace (k : 'p Kernel.t) (p : 'p) ~n_pe ~workload ~trace ~result =
  let cells =
    List.map
      (fun (e : Trace.event) ->
        Stream.Cell
          {
            Stream.c_chunk = e.Trace.chunk;
            c_wavefront = e.Trace.wavefront;
            c_pe = e.Trace.pe;
            c_row = e.Trace.cell.Types.row;
            c_col = e.Trace.cell.Types.col;
            c_tb = e.Trace.tb;
            c_scores = e.Trace.scores;
          })
      (Trace.events trace)
  in
  let windows =
    List.map
      (fun (w : Trace.window) ->
        Stream.Window
          {
            v_chunk = w.Trace.w_chunk;
            v_wavefront = w.Trace.w_wavefront;
            v_lo = w.Trace.w_lo;
            v_hi = w.Trace.w_hi;
          })
      (Trace.windows trace)
  in
  (* Both lists are in execution order; interleave by schedule slot so
     each wavefront's cells precede its window record. *)
  let rec merge acc cs ws =
    match (cs, ws) with
    | [], [] -> List.rev acc
    | c :: cs', [] -> merge (c :: acc) cs' []
    | [], w :: ws' -> merge (w :: acc) [] ws'
    | c :: cs', w :: ws' ->
      if Stream.record_key c <= Stream.record_key w then
        merge (c :: acc) cs' ws
      else merge (w :: acc) cs ws'
  in
  {
    Stream.header = header k p ~n_pe workload;
    records = Array.of_list (merge [] cells windows);
    summary = summary result;
  }

let systolic ?(overlap = false) (k : 'p Kernel.t) (p : 'p) ~n_pe workload =
  (* Capture runs through the registry's systolic backend — the same
     module every host selects — so vectors certify the shipped engine
     path, not a private entry point. *)
  let module Sy = Dphls_engines.Backends.Systolic in
  let cfg = Dphls_engines.Engine_intf.config ~n_pe () in
  if not overlap then begin
    let trace = Trace.create_capture () in
    let result, _stats = Sy.run ~trace cfg k p workload in
    (of_trace k p ~n_pe ~workload ~trace ~result, result)
  end
  else begin
    (* Two copies of the workload through the staged engine with
       [~overlap:true], so the second alignment's prologue runs while the
       first occupies the compute stage (two contexts in flight). The
       returned vector is the overlapped alignment's — the one whose
       capture would expose any double-buffering bug. *)
    let traces = [| Trace.create_capture (); Trace.create_capture () |] in
    let results, _batch =
      Sy.run_batch ~overlap:true ~traces cfg k p [| workload; workload |]
    in
    let result, _stats = results.(1) in
    (of_trace k p ~n_pe ~workload ~trace:traces.(1) ~result, result)
  end

let reference (k : 'p Kernel.t) (p : 'p) ~n_pe workload =
  let result, m = Dphls_reference.Ref_engine.run_full ~band_pe:n_pe k p workload in
  let in_band = Dphls_reference.Ref_engine.band_map ~band_pe:n_pe k p workload in
  let qry_len, ref_len = Workload.sizes workload in
  let sched = Schedule.create ~n_pe ~qry_len ~ref_len in
  let has_tb = Kernel.has_traceback k p in
  let records = ref [] in
  for chunk = sched.Schedule.n_chunks - 1 downto 0 do
    for wavefront = sched.Schedule.wavefronts_per_chunk - 1 downto 0 do
      for pe = n_pe - 1 downto 0 do
        match Schedule.cell_of sched ~chunk ~pe ~wavefront with
        | Some { Types.row; col } when in_band ~row ~col ->
          let scores =
            Array.init k.Kernel.n_layers (fun layer ->
                m.Dphls_reference.Ref_engine.scores.(layer).(row).(col))
          in
          records :=
            Stream.Cell
              {
                Stream.c_chunk = chunk;
                c_wavefront = wavefront;
                c_pe = pe;
                c_row = row;
                c_col = col;
                c_tb =
                  (if has_tb then
                     m.Dphls_reference.Ref_engine.pointers.(row).(col)
                   else 0);
                c_scores = scores;
              }
            :: !records
        | _ -> ()
      done
    done
  done;
  ( {
      Stream.header = header k p ~n_pe workload;
      records = Array.of_list !records;
      summary = summary result;
    },
    result )
