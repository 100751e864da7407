(* Tests for the systolic back-end: schedule arithmetic, traceback
   addressing and the traceback plane, activity-trace invariants, cycle
   accounting and agreement with the golden engine at the array's edge
   heights. *)
open Dphls_core
module Schedule = Dphls_systolic.Schedule
module Engine = Dphls_systolic.Engine

let qtest = QCheck_alcotest.to_alcotest

let test_schedule_shape () =
  let s = Schedule.create ~n_pe:8 ~qry_len:20 ~ref_len:30 in
  Alcotest.(check int) "chunks" 3 s.Schedule.n_chunks;
  Alcotest.(check int) "wavefronts" 37 s.Schedule.wavefronts_per_chunk;
  Alcotest.(check int) "chunk of row 15" 1 (Schedule.chunk_of_row s 15);
  Alcotest.(check int) "pe of row 15" 7 (Schedule.pe_of_row s 15)

let test_cell_of () =
  let s = Schedule.create ~n_pe:4 ~qry_len:10 ~ref_len:6 in
  (match Schedule.cell_of s ~chunk:1 ~pe:2 ~wavefront:5 with
  | Some c ->
    Alcotest.(check int) "row" 6 c.Types.row;
    Alcotest.(check int) "col" 3 c.Types.col
  | None -> Alcotest.fail "expected a cell");
  Alcotest.(check bool) "idle before diagonal" true
    (Schedule.cell_of s ~chunk:0 ~pe:3 ~wavefront:1 = None);
  Alcotest.(check bool) "row beyond query" true
    (Schedule.cell_of s ~chunk:2 ~pe:3 ~wavefront:4 = None)

let prop_cell_of_tb_address_consistent =
  QCheck.Test.make ~name:"every cell maps to a unique (bank,address)" ~count:100
    QCheck.(triple (int_range 1 16) (int_range 1 40) (int_range 1 40))
    (fun (n_pe, q, r) ->
      let s = Schedule.create ~n_pe ~qry_len:q ~ref_len:r in
      let seen = Hashtbl.create 97 in
      let ok = ref true in
      for row = 0 to q - 1 do
        for col = 0 to r - 1 do
          let bank, addr = Schedule.tb_address s ~row ~col in
          if bank <> row mod n_pe then ok := false;
          if addr < 0 || addr >= Schedule.tb_depth s then ok := false;
          if Hashtbl.mem seen (bank, addr) then ok := false;
          Hashtbl.add seen (bank, addr) ()
        done
      done;
      !ok)

let test_address_coalescing () =
  (* All PEs of a wavefront write the same address in their banks. *)
  let s = Schedule.create ~n_pe:4 ~qry_len:8 ~ref_len:8 in
  let _, a0 = Schedule.tb_address s ~row:0 ~col:3 in
  let _, a1 = Schedule.tb_address s ~row:1 ~col:2 in
  let _, a2 = Schedule.tb_address s ~row:2 ~col:1 in
  let _, a3 = Schedule.tb_address s ~row:3 ~col:0 in
  Alcotest.(check bool) "same wavefront, same address" true
    (a0 = a1 && a1 = a2 && a2 = a3)

(* The traceback plane both engines store into: every pointer of a
   12 x 9 matrix, and the widest one, reads back as stored. *)
let test_tb_memory_roundtrip () =
  let ref_len = 9 in
  let tb = Pe.tb_plane ~reuse:false ~qry_len:12 ~ref_len in
  Alcotest.(check int) "two bytes per cell" (2 * 12 * 9) (Bytes.length tb);
  for row = 0 to 11 do
    for col = 0 to 8 do
      Pe.store_pointer tb ~ref_len ~row ~col ((row * 13) + col)
    done
  done;
  Pe.store_pointer tb ~ref_len ~row:11 ~col:8 0xFFFF;
  let ok = ref true in
  for row = 0 to 11 do
    for col = 0 to 8 do
      let want = if (row, col) = (11, 8) then 0xFFFF else (row * 13) + col in
      if Pe.pointer_at tb ~ref_len ~row ~col <> want then ok := false
    done
  done;
  Alcotest.(check bool) "all pointers recovered" true !ok

let test_active_wavefronts_banded () =
  let s = Schedule.create ~n_pe:4 ~qry_len:16 ~ref_len:16 in
  let banding = Some (Banding.fixed 2) in
  (* chunk 3 covers rows 12..15; band cols 10..15 (clipped) *)
  match Schedule.active_wavefronts s ~banding ~chunk:3 with
  | Some (lo, hi) ->
    Alcotest.(check int) "lo" 10 lo;
    (* row 15 (k=3), col <= 15 -> wavefront 18 *)
    Alcotest.(check int) "hi" 18 hi
  | None -> Alcotest.fail "expected active range"

let test_compute_cycles_banding_reduces () =
  let s = Schedule.create ~n_pe:8 ~qry_len:64 ~ref_len:64 in
  let full = Schedule.compute_cycles s ~banding:None ~ii:1 in
  let banded = Schedule.compute_cycles s ~banding:(Some (Banding.fixed 4)) ~ii:1 in
  Alcotest.(check bool) "banding cheaper" true (banded < full);
  Alcotest.(check int) "ii scales" (2 * full) (Schedule.compute_cycles s ~banding:None ~ii:2)

let test_cycles_estimate_matches_run () =
  let e = Dphls_kernels.Catalog.find 1 in
  let (Registry.Packed (k, p)) = e.packed in
  let rng = Dphls_util.Rng.create 99 in
  let w = e.Dphls_kernels.Catalog.gen rng ~len:48 in
  let cfg = Dphls_systolic.Config.create ~n_pe:8 in
  let result, stats = Engine.run cfg k p w in
  ignore result;
  let q = Array.length w.Workload.query and r = Array.length w.Workload.reference in
  let est =
    Engine.cycles_estimate cfg k p ~qry_len:q ~ref_len:r
      ~tb_steps:stats.Engine.cycles.Engine.traceback
  in
  Alcotest.(check int) "closed-form total equals simulated" est.Engine.total
    stats.Engine.cycles.Engine.total

let test_trace_invariants_all_kernels () =
  List.iter
    (fun id ->
      let c = Dphls_experiments.Systolic_check.compute ~n_pe:8 ~len:40 ~kernel_id:id () in
      Alcotest.(check bool)
        (Printf.sprintf "kernel %d row ownership" id)
        true c.Dphls_experiments.Systolic_check.row_ownership;
      Alcotest.(check bool)
        (Printf.sprintf "kernel %d single fire" id)
        true c.Dphls_experiments.Systolic_check.single_fire;
      Alcotest.(check bool)
        (Printf.sprintf "kernel %d full coverage" id)
        true c.Dphls_experiments.Systolic_check.full_coverage)
    Dphls_kernels.Catalog.ids

(* The trace.mli invariants under *adaptive* banding, where membership
   is decided per wavefront by the tracker rather than a static
   predicate: PE k still only computes rows congruent to k mod N_PE, at
   most one cell per PE per wavefront, and coverage matches the realized
   adaptive window exactly. Checked at both a small and a large array
   height, since the adaptive window trajectory depends on N_PE. *)
let test_adaptive_trace_invariants () =
  List.iter
    (fun kernel_id ->
      List.iter
        (fun n_pe ->
          let c =
            Dphls_experiments.Systolic_check.compute ~n_pe ~len:40 ~kernel_id ()
          in
          let label fmt =
            Printf.sprintf "adaptive kernel %d n_pe %d %s" kernel_id n_pe fmt
          in
          Alcotest.(check bool) (label "row ownership") true
            c.Dphls_experiments.Systolic_check.row_ownership;
          Alcotest.(check bool) (label "single fire") true
            c.Dphls_experiments.Systolic_check.single_fire;
          Alcotest.(check bool) (label "full coverage") true
            c.Dphls_experiments.Systolic_check.full_coverage)
        [ 4; 16 ])
    [ 16; 17; 18 ]

(* Same invariants asserted directly on the raw trace events of one
   adaptive run, plus the capture-mode extras: pruned cells never fire,
   and each wavefront that fired retires exactly one band-window
   record with a well-formed [lo <= hi] window. *)
let test_adaptive_trace_events_direct () =
  let n_pe = 4 in
  let e = Dphls_kernels.Catalog.find 16 in
  let (Registry.Packed (k, p)) = e.packed in
  let w = e.Dphls_kernels.Catalog.gen (Dphls_util.Rng.create 31) ~len:40 in
  let trace = Dphls_systolic.Trace.create_capture () in
  let _, _ = Engine.run ~trace (Dphls_systolic.Config.create ~n_pe) k p w in
  let events = Dphls_systolic.Trace.events trace in
  Alcotest.(check bool) "events recorded" true (events <> []);
  let slots = Hashtbl.create 256 in
  List.iter
    (fun (ev : Dphls_systolic.Trace.event) ->
      let row = ev.Dphls_systolic.Trace.cell.Types.row in
      Alcotest.(check int) "PE owns rows = pe (mod n_pe)" (row mod n_pe)
        ev.Dphls_systolic.Trace.pe;
      Alcotest.(check int) "chunk = row / n_pe" (row / n_pe)
        ev.Dphls_systolic.Trace.chunk;
      let key =
        ( ev.Dphls_systolic.Trace.chunk,
          ev.Dphls_systolic.Trace.wavefront,
          ev.Dphls_systolic.Trace.pe )
      in
      Alcotest.(check bool) "at most one cell per PE per wavefront" false
        (Hashtbl.mem slots key);
      Hashtbl.add slots key ())
    events;
  (* fired cells are exactly the realized adaptive band *)
  let member = Dphls_reference.Ref_engine.band_map ~band_pe:n_pe k p w in
  List.iter
    (fun (ev : Dphls_systolic.Trace.event) ->
      let c = ev.Dphls_systolic.Trace.cell in
      Alcotest.(check bool) "fired cell is in the realized band" true
        (member ~row:c.Types.row ~col:c.Types.col))
    events;
  let windows = Dphls_systolic.Trace.windows trace in
  Alcotest.(check bool) "capture retires window records" true (windows <> []);
  let wset = Hashtbl.create 256 in
  List.iter
    (fun (wd : Dphls_systolic.Trace.window) ->
      Alcotest.(check bool) "window lo <= hi" true
        (wd.Dphls_systolic.Trace.w_lo <= wd.Dphls_systolic.Trace.w_hi);
      let key =
        (wd.Dphls_systolic.Trace.w_chunk, wd.Dphls_systolic.Trace.w_wavefront)
      in
      Alcotest.(check bool) "one window record per wavefront" false
        (Hashtbl.mem wset key);
      Hashtbl.add wset key ())
    windows

let test_utilization_bounds () =
  let e = Dphls_kernels.Catalog.find 3 in
  let (Registry.Packed (k, p)) = e.packed in
  let rng = Dphls_util.Rng.create 77 in
  let w = e.Dphls_kernels.Catalog.gen rng ~len:64 in
  let _, stats = Engine.run (Dphls_systolic.Config.create ~n_pe:16) k p w in
  Alcotest.(check bool) "utilization in (0,1]" true
    (stats.Engine.utilization > 0.0 && stats.Engine.utilization <= 1.0);
  Alcotest.(check int) "fires equal cells" stats.Engine.pe_fires
    (Workload.cells w)

let test_n_pe_one_works () =
  (* Degenerate single-PE array must still be exact. *)
  let e = Dphls_kernels.Catalog.find 2 in
  let (Registry.Packed (k, p)) = e.packed in
  let rng = Dphls_util.Rng.create 55 in
  let w = e.Dphls_kernels.Catalog.gen rng ~len:20 in
  let sys, _ = Engine.run (Dphls_systolic.Config.create ~n_pe:1) k p w in
  let gold = Dphls_reference.Ref_engine.run k p w in
  Alcotest.(check bool) "n_pe=1 exact" true (Result.equal_alignment sys gold)

let test_n_pe_larger_than_query () =
  let e = Dphls_kernels.Catalog.find 1 in
  let (Registry.Packed (k, p)) = e.packed in
  let rng = Dphls_util.Rng.create 56 in
  let w = e.Dphls_kernels.Catalog.gen rng ~len:10 in
  let sys, _ = Engine.run (Dphls_systolic.Config.create ~n_pe:64) k p w in
  let gold = Dphls_reference.Ref_engine.run k p w in
  Alcotest.(check bool) "n_pe > qlen exact" true (Result.equal_alignment sys gold)

let test_empty_rejected () =
  let e = Dphls_kernels.Catalog.find 1 in
  let (Registry.Packed (k, p)) = e.packed in
  let w = Workload.of_bases ~query:[||] ~reference:[| 0 |] in
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (Engine.run (Dphls_systolic.Config.create ~n_pe:4) k p w);
       false
     with Invalid_argument _ -> true)

(* Loop oracle for the prologue: simulate the packed query stream one
   word at a time (8 chars/word, trailing partial word costs a full
   cycle) alongside the concurrent init-buffer writes. Regression for
   the floor-division bug that undercounted every qry_len mod 8 <> 0. *)
let prop_prologue_matches_loop_oracle =
  QCheck.Test.make ~name:"prologue cycles match loop oracle" ~count:200
    QCheck.(triple (int_range 1 16) (int_range 1 129) (int_range 1 129))
    (fun (n_pe, q, r) ->
      let s = Schedule.create ~n_pe ~qry_len:q ~ref_len:r in
      let query_words = ref 0 and streamed = ref 0 in
      while !streamed < q do
        incr query_words;
        streamed := !streamed + 8
      done;
      let init_writes = max q r in
      Schedule.prologue_cycles s = init_writes + !query_words + 4)

let test_prologue_partial_word () =
  (* 33 chars = 5 packed words, not 4. *)
  let s = Schedule.create ~n_pe:8 ~qry_len:33 ~ref_len:33 in
  Alcotest.(check int) "ceiling packed-word term" (33 + 5 + 4)
    (Schedule.prologue_cycles s)

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_bad_n_pe_rejected () =
  List.iter
    (fun n_pe ->
      Alcotest.(check bool)
        (Printf.sprintf "n_pe=%d raises" n_pe)
        true
        (try
           ignore (Schedule.create ~n_pe ~qry_len:10 ~ref_len:10);
           false
         with Invalid_argument msg ->
           (* descriptive: names the offending value *)
           contains_sub msg (string_of_int n_pe)))
    [ 0; -1; -32 ]

let test_rtl_cycles_beat_dphls () =
  (* The overlapped-prologue RTL model is always at least as fast. *)
  List.iter
    (fun n_pe ->
      let e = Dphls_kernels.Catalog.find 2 in
      let (Registry.Packed (k, p)) = e.packed in
      let rng = Dphls_util.Rng.create 70 in
      let w = e.Dphls_kernels.Catalog.gen rng ~len:96 in
      let _, stats = Engine.run (Dphls_systolic.Config.create ~n_pe) k p w in
      let rtl =
        Dphls_baselines.Gact_rtl.cycles ~n_pe
          ~qry_len:(Array.length w.Workload.query)
          ~ref_len:(Array.length w.Workload.reference)
          ~tb_steps:stats.Engine.cycles.Engine.traceback
      in
      Alcotest.(check bool)
        (Printf.sprintf "rtl faster at n_pe=%d" n_pe)
        true
        (rtl.Dphls_baselines.Rtl_model.total < stats.Engine.cycles.Engine.total))
    [ 4; 16; 64 ]

(* The systolic engine against the golden engine replaying its chunking
   ([golden_chunked]: [Ref_engine.run ~band_pe:n_pe]) for all 19 kernels
   at N_PE 1 (PE 0 is also the last PE, so it writes the preserved row
   it reads from), 2, 3 and 5 (most chunks end partly filled), 32 and
   64, on query and reference lengths 1..70 drawn independently, each
   with its own band, a fixed band or an adaptive one; plus #2 at a
   match score the generated table does not hold, which runs the
   generic wave. Results must be equal, cells computed included. *)
let prop_systolic_equals_golden =
  let ids = Array.of_list Dphls_kernels.Catalog.ids in
  let n_pes = [| 1; 2; 3; 5; 32; 64 |] in
  let agree (type p) (k : p Kernel.t) (p : p) gen ~n_pe ~qry_len ~ref_len ~seed =
    let rng = Dphls_util.Rng.create seed in
    let w = gen rng ~len:80 in
    let prefix s n = Array.sub s 0 (max 1 (min n (Array.length s))) in
    let w =
      Workload.of_seqs ~query:(prefix w.Workload.query qry_len)
        ~reference:(prefix w.Workload.reference ref_len)
    in
    let band =
      match seed mod 3 with
      | 0 -> None
      | 1 -> Some (Some (Banding.fixed (1 + (seed / 3 mod 8))))
      | _ -> Some (Some (Banding.adaptive ~threshold:(seed / 3 mod 30) (1 + (seed / 90 mod 6))))
    in
    let k = Kernel.with_band k band in
    let sys, _ = Engine.run (Dphls_systolic.Config.create ~n_pe) k p w in
    let gold = Dphls_reference.Ref_engine.run ~band_pe:n_pe k p w in
    sys = gold
    || QCheck.Test.fail_reportf "#%d n_pe %d %dx%d band %s: systolic %s, golden %s"
         k.Kernel.id n_pe (Array.length w.Workload.query) (Array.length w.Workload.reference)
         (Banding.to_string k.Kernel.banding) (Format.asprintf "%a" Result.pp sys)
         (Format.asprintf "%a" Result.pp gold)
  in
  QCheck.Test.make ~name:"systolic == golden_chunked (19 kernels, N_PE 1-64, bands)"
    ~count:400
    QCheck.(
      quad (int_range 0 (Array.length ids)) (int_range 0 (Array.length n_pes - 1))
        (pair (int_range 1 70) (int_range 1 70))
        (int_range 0 1_000_000))
    (fun (ki, ni, (qry_len, ref_len), seed) ->
      let n_pe = n_pes.(ni) in
      if ki < Array.length ids then
        let e = Dphls_kernels.Catalog.find ids.(ki) in
        let (Registry.Packed (k, p)) = e.packed in
        agree k p e.Dphls_kernels.Catalog.gen ~n_pe ~qry_len ~ref_len ~seed
      else
        let module K02 = Dphls_kernels.K02_global_affine in
        agree K02.kernel { K02.default with match_ = 3 } K02.gen ~n_pe ~qry_len ~ref_len
          ~seed)

(* The closed-form cycle model that auto dispatch attaches to golden
   answers, fed with the golden walk's step count, equals the
   simulator's cycles: all five terms and the total, for the 16
   non-adaptive kernels plus #2 off its generated table, at N_PE 1, 2,
   3, 5, 32 and 64, on lengths 1..70 under the kernel's own band and a
   fixed one. The overlap function over the modeled cycles equals
   [run_batch ~overlap:true]'s batch stats. The simulator reports its
   cycles through the same model, so both are also held to an oracle
   built from the schedule terms and the simulator's own counts: the
   wavefronts it executed (slots / N_PE) and the steps it walked. *)
let prop_model_equals_simulator =
  let ids =
    Array.of_list
      (List.filter (fun id -> not (List.mem id [ 16; 17; 18 ])) Dphls_kernels.Catalog.ids)
  in
  let n_pes = [| 1; 2; 3; 5; 32; 64 |] in
  let agree (type p) (k : p Kernel.t) (p : p) gen ~n_pe ~shapes ~seed =
    let k =
      if seed mod 2 = 0 then k
      else Kernel.with_band k (Some (Some (Banding.fixed (1 + (seed / 2 mod 8)))))
    in
    let ws =
      Array.of_list
        (List.mapi
           (fun i (qry_len, ref_len) ->
             let w = gen (Dphls_util.Rng.create (seed + i)) ~len:80 in
             let prefix s n = Array.sub s 0 (max 1 (min n (Array.length s))) in
             Workload.of_seqs ~query:(prefix w.Workload.query qry_len)
               ~reference:(prefix w.Workload.reference ref_len))
           shapes)
    in
    let cfg = Dphls_systolic.Config.create ~n_pe in
    let sim, sim_batch = Engine.run_batch ~overlap:true cfg k p ws in
    let model =
      Array.map
        (fun w ->
          let qry_len, ref_len = Workload.sizes w in
          let gold = Dphls_reference.Ref_engine.run k p w in
          Engine.cycles_estimate cfg k p ~qry_len ~ref_len ~tb_steps:gold.Result.tb_steps)
        ws
    in
    let oracle i =
      let r, s = sim.(i) in
      let qry_len, ref_len = Workload.sizes ws.(i) in
      let sch = Schedule.create ~n_pe ~qry_len ~ref_len in
      let prologue = Schedule.prologue_cycles sch
      and compute = s.Engine.pe_slots / n_pe * k.Kernel.traits.Traits.ii
      and reduction = Schedule.reduction_cycles sch
      and traceback = r.Result.tb_steps
      and fill = Schedule.pipeline_fill_cycles sch in
      {
        Engine.prologue;
        compute;
        reduction;
        traceback;
        fill;
        total = prologue + compute + reduction + traceback + fill;
      }
    in
    let hidden = ref 0 in
    for i = 1 to Array.length ws - 1 do
      hidden := !hidden + min model.(i).Engine.prologue model.(i - 1).Engine.compute
    done;
    let batch = Engine.batch_stats_of ~overlap:true model in
    let fail fmt =
      QCheck.Test.fail_reportf
        ("#%d n_pe %d band %s: " ^^ fmt)
        k.Kernel.id n_pe (Banding.to_string k.Kernel.banding)
    in
    Array.iteri
      (fun i (_, s) ->
        if model.(i) <> s.Engine.cycles then fail "alignment %d: model <> simulator" i;
        if model.(i) <> oracle i then fail "alignment %d: model <> term oracle" i)
      sim;
    if batch <> sim_batch then fail "batch stats differ";
    if batch.Engine.hidden_cycles <> !hidden then fail "hidden cycles <> oracle";
    true
  in
  QCheck.Test.make ~name:"cycle model == simulator (16 kernels, N_PE 1-64, bands)"
    ~count:300
    QCheck.(
      quad (int_range 0 (Array.length ids)) (int_range 0 (Array.length n_pes - 1))
        (list_of_size (Gen.int_range 1 3) (pair (int_range 1 70) (int_range 1 70)))
        (int_range 0 1_000_000))
    (fun (ki, ni, shapes, seed) ->
      let n_pe = n_pes.(ni) in
      if ki < Array.length ids then
        let e = Dphls_kernels.Catalog.find ids.(ki) in
        let (Registry.Packed (k, p)) = e.packed in
        agree k p e.Dphls_kernels.Catalog.gen ~n_pe ~shapes ~seed
      else
        let module K02 = Dphls_kernels.K02_global_affine in
        agree K02.kernel { K02.default with match_ = 3 } K02.gen ~n_pe ~shapes ~seed)

let suite =
  [
    Alcotest.test_case "schedule shape" `Quick test_schedule_shape;
    Alcotest.test_case "cell_of" `Quick test_cell_of;
    qtest prop_cell_of_tb_address_consistent;
    Alcotest.test_case "address coalescing" `Quick test_address_coalescing;
    Alcotest.test_case "tb memory roundtrip" `Quick test_tb_memory_roundtrip;
    Alcotest.test_case "banded active wavefronts" `Quick test_active_wavefronts_banded;
    Alcotest.test_case "banding reduces cycles" `Quick test_compute_cycles_banding_reduces;
    Alcotest.test_case "cycles estimate matches run" `Quick test_cycles_estimate_matches_run;
    Alcotest.test_case "trace invariants (15 kernels)" `Slow test_trace_invariants_all_kernels;
    Alcotest.test_case "adaptive trace invariants" `Slow test_adaptive_trace_invariants;
    Alcotest.test_case "adaptive trace events direct" `Quick test_adaptive_trace_events_direct;
    Alcotest.test_case "utilization bounds" `Quick test_utilization_bounds;
    Alcotest.test_case "n_pe=1 exact" `Quick test_n_pe_one_works;
    Alcotest.test_case "n_pe>qlen exact" `Quick test_n_pe_larger_than_query;
    Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
    qtest prop_prologue_matches_loop_oracle;
    Alcotest.test_case "prologue partial word" `Quick test_prologue_partial_word;
    Alcotest.test_case "bad n_pe rejected" `Quick test_bad_n_pe_rejected;
    Alcotest.test_case "rtl cycle model faster" `Quick test_rtl_cycles_beat_dphls;
    qtest prop_systolic_equals_golden;
    qtest prop_model_equals_simulator;
  ]
