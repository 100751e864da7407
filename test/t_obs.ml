(* Observability-layer tests: counter exactness on hand-computable
   alignments (closed-form cell counts, traceback path length), Chrome
   trace round-trip through the parser, summary aggregation sanity,
   per-worker span disjointness on the pool, and the allocation
   regression extended to the instrumented engine entry points — the
   disabled sinks must keep the PR-4 compiled hot path allocation-free. *)
open Dphls_core
module Obs = Dphls_obs
module Metrics = Dphls_obs.Metrics
module Tracer = Dphls_obs.Tracer
module Counter = Dphls_obs.Counter

let qtest = QCheck_alcotest.to_alcotest

let workload_of rng len =
  Workload.of_bases
    ~query:(Dphls_alphabet.Dna.random rng len)
    ~reference:(Dphls_alphabet.Dna.random rng len)

(* ------------------------------------------------------------------ *)
(* Counter catalog basics.                                             *)

let test_counter_catalog () =
  Alcotest.(check int) "count matches all" Counter.count
    (Array.length Counter.all);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Counter.name c ^ " index") i (Counter.index c);
      Alcotest.(check bool) (Counter.name c ^ " of_name round-trip") true
        (Counter.of_name (Counter.name c) = Some c))
    Counter.all;
  Alcotest.(check bool) "unknown name rejected" true
    (Counter.of_name "nope" = None);
  (* the engine-dispatch counters joined the catalog in the pluggable
     engine refactor, the serve admission counters in the service layer,
     and the completed/batches counts when the serve summary moved onto
     the catalog; the two prologue-overlap counters left it when
     Engine.batch_stats_of became overlap's one definition. Pin the
     catalog size so an accidental removal (or a summary consumer
     missing them) fails loudly *)
  Alcotest.(check int) "catalog holds 18 counters" 18 Counter.count;
  Alcotest.(check bool) "dispatch counters present" true
    (Counter.of_name "engine_fastpath_hits" = Some Counter.Engine_fastpath_hits
    && Counter.of_name "engine_fastpath_fallbacks"
       = Some Counter.Engine_fastpath_fallbacks);
  Alcotest.(check bool) "serve counters present" true
    (Counter.of_name "serve_requests_admitted"
       = Some Counter.Serve_requests_admitted
    && Counter.of_name "serve_requests_rejected"
       = Some Counter.Serve_requests_rejected
    && Counter.of_name "serve_requests_expired"
       = Some Counter.Serve_requests_expired
    && Counter.of_name "serve_cache_hits" = Some Counter.Serve_cache_hits
    && Counter.of_name "serve_requests_completed"
       = Some Counter.Serve_requests_completed
    && Counter.of_name "serve_batches" = Some Counter.Serve_batches)

let test_metrics_sink () =
  let m = Metrics.create () in
  Metrics.add m Counter.Cells_evaluated 41;
  Metrics.incr m Counter.Cells_evaluated;
  Metrics.incr m Counter.Alignments;
  Alcotest.(check int) "add + incr accumulate" 42
    (Metrics.get m Counter.Cells_evaluated);
  let into = Metrics.create () in
  Metrics.add into Counter.Alignments 1;
  Metrics.merge_into ~into m;
  Alcotest.(check int) "merge sums" 2 (Metrics.get into Counter.Alignments);
  Alcotest.(check int) "merge copies" 42
    (Metrics.get into Counter.Cells_evaluated);
  Metrics.reset m;
  Alcotest.(check int) "reset zeroes" 0 (Metrics.get m Counter.Cells_evaluated);
  (* the shared disabled sink silently drops and always reads 0 *)
  Metrics.add Metrics.disabled Counter.Cells_evaluated 7;
  Alcotest.(check int) "disabled sink stays 0" 0
    (Metrics.get Metrics.disabled Counter.Cells_evaluated)

(* ------------------------------------------------------------------ *)
(* Exact counters on both engines.                                     *)

let run_systolic ?band_override ~metrics ~tracer k p w =
  let k = match band_override with None -> k | Some b -> { k with Kernel.banding = b } in
  let cfg = Dphls_systolic.Config.create ~n_pe:16 in
  Dphls_systolic.Engine.run ~metrics ~tracer cfg k p w

let run_golden ~metrics ~tracer k p w =
  Dphls_reference.Ref_engine.run ~band_pe:16 ~metrics ~tracer k p w

(* Unbanded: every cell of the qry x ref rectangle is evaluated, none
   skipped — on BOTH engines; exactly one alignment is recorded. *)
let prop_unbanded_cells_exact =
  QCheck.Test.make ~name:"unbanded cells_evaluated = qry*ref on both engines"
    ~count:15
    QCheck.(pair (int_range 4 80) (int_range 4 80))
    (fun (seed, len) ->
      let module K02 = Dphls_kernels.K02_global_affine in
      let rng = Dphls_util.Rng.create (1000 + seed) in
      let w = workload_of rng len in
      let check run =
        let m = Metrics.create () in
        ignore (run ~metrics:m ~tracer:Tracer.disabled K02.kernel K02.default w);
        Metrics.get m Counter.Cells_evaluated = len * len
        && Metrics.get m Counter.Cells_band_skipped = 0
        && Metrics.get m Counter.Alignments = 1
      in
      check (fun ~metrics ~tracer k p w ->
          fst (run_systolic ~metrics ~tracer k p w))
      && check run_golden)

(* Fixed band (kernel #11): the evaluated-cell count equals the
   closed-form [Banding.cells_in_band], and evaluated + skipped tiles
   the full rectangle — again on both engines. *)
let prop_fixed_band_cells_closed_form =
  QCheck.Test.make
    ~name:"fixed band cells_evaluated = Banding.cells_in_band (kernel #11)"
    ~count:15
    QCheck.(pair (int_range 8 120) (int_range 0 1000))
    (fun (len, seed) ->
      let e = Dphls_kernels.Catalog.find 11 in
      let (Registry.Packed (k, p)) = e.packed in
      let rng = Dphls_util.Rng.create (31 + seed) in
      let w = e.Dphls_kernels.Catalog.gen rng ~len in
      let qry_len = Array.length w.Workload.query in
      let ref_len = Array.length w.Workload.reference in
      let expected =
        Banding.cells_in_band k.Kernel.banding ~qry_len ~ref_len
      in
      let check run =
        let m = Metrics.create () in
        ignore (run ~metrics:m ~tracer:Tracer.disabled k p w);
        Metrics.get m Counter.Cells_evaluated = expected
        && Metrics.get m Counter.Cells_evaluated
           + Metrics.get m Counter.Cells_band_skipped
           = qry_len * ref_len
      in
      check (fun ~metrics ~tracer k p w ->
          fst (run_systolic ~metrics ~tracer k p w))
      && check run_golden)

(* Identical sequences under global linear gaps: the optimal path is
   the pure diagonal, the walker takes exactly one step per matched
   base, and the recorded path has one op per step. *)
let test_tb_steps_diagonal () =
  let module K01 = Dphls_kernels.K01_global_linear in
  let s = Dphls_alphabet.Dna.of_string "ACGTACGTACGTACGTACGT" in
  let w = Workload.of_bases ~query:s ~reference:s in
  List.iter
    (fun (label, run) ->
      let m = Metrics.create () in
      let r = run ~metrics:m ~tracer:Tracer.disabled K01.kernel K01.default w in
      Alcotest.(check int)
        (label ^ ": tb_steps = path length")
        (List.length r.Result.path)
        (Metrics.get m Counter.Tb_steps);
      Alcotest.(check int)
        (label ^ ": one step per base on the diagonal")
        (Array.length s)
        (Metrics.get m Counter.Tb_steps))
    [
      ( "systolic",
        fun ~metrics ~tracer k p w ->
          fst (run_systolic ~metrics ~tracer k p w) );
      ("golden", run_golden);
    ]

(* Systolic wavefront count: ceil(qry/n_pe) chunks, each sweeping
   ref_len + n_pe - 1 anti-diagonal steps. *)
let test_wavefronts_closed_form () =
  let module K02 = Dphls_kernels.K02_global_affine in
  let rng = Dphls_util.Rng.create 77 in
  let w = workload_of rng 100 in
  let n_pe = 16 in
  let m = Metrics.create () in
  let cfg = Dphls_systolic.Config.create ~n_pe in
  let _, st =
    Dphls_systolic.Engine.run ~metrics:m ~tracer:Tracer.disabled cfg K02.kernel
      K02.default w
  in
  Alcotest.(check int) "wavefronts = pe_slots / n_pe"
    (st.Dphls_systolic.Engine.pe_slots / n_pe)
    (Metrics.get m Counter.Wavefronts);
  (* each chunk of r rows sweeps ref_len + r - 1 anti-diagonal steps *)
  let full = 100 / n_pe and rem = 100 mod n_pe in
  let expected =
    (full * (100 + n_pe - 1)) + if rem > 0 then 100 + rem - 1 else 0
  in
  Alcotest.(check int) "wavefronts = sum of per-chunk sweeps" expected
    (Metrics.get m Counter.Wavefronts)

(* ------------------------------------------------------------------ *)
(* Tracing: spans, Chrome round-trip, summary aggregation.             *)

let test_engine_spans () =
  let module K02 = Dphls_kernels.K02_global_affine in
  let rng = Dphls_util.Rng.create 5 in
  let w = workload_of rng 48 in
  let tr = Tracer.create () in
  ignore (run_systolic ~metrics:Metrics.disabled ~tracer:tr K02.kernel K02.default w);
  let names = List.map (fun s -> s.Tracer.span_name) (Tracer.spans tr) in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("systolic records a " ^ n ^ " span") true
        (List.mem n names))
    [ "compute"; "reduction"; "traceback" ];
  List.iter
    (fun s ->
      Alcotest.(check bool) (s.Tracer.span_name ^ " well-ordered") true
        (s.Tracer.t0 <= s.Tracer.t1 && s.Tracer.t0 >= 0.))
    (Tracer.spans tr)

let test_chrome_round_trip () =
  let tr = Tracer.create () in
  Tracer.add_span tr ~cat:"engine" ~t0:0.001 ~t1:0.0035 "compute";
  Tracer.add_span tr ~cat:"pool" ~tid:3 ~t0:0.002 ~t1:0.004 "chunk";
  Tracer.add_span tr ~t0:0.004 ~t1:0.004 "empty\"name\\with specials";
  let json = Dphls_obs.Chrome.to_json ~process_name:"t_obs" tr in
  let parsed = Dphls_obs.Chrome.parse json in
  let direct = Dphls_obs.Chrome.events_of_tracer tr in
  Alcotest.(check int) "event count survives" (List.length direct)
    (List.length parsed);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "name" a.Dphls_obs.Chrome.name b.Dphls_obs.Chrome.name;
      Alcotest.(check string) "cat" a.Dphls_obs.Chrome.cat b.Dphls_obs.Chrome.cat;
      Alcotest.(check string) "ph" a.Dphls_obs.Chrome.ph b.Dphls_obs.Chrome.ph;
      Alcotest.(check int) "tid" a.Dphls_obs.Chrome.tid b.Dphls_obs.Chrome.tid;
      (* ts/dur print at full round-trip precision *)
      Alcotest.(check (float 0.0)) "ts" a.Dphls_obs.Chrome.ts b.Dphls_obs.Chrome.ts;
      Alcotest.(check (float 0.0)) "dur" a.Dphls_obs.Chrome.dur b.Dphls_obs.Chrome.dur)
    direct parsed;
  (match Dphls_obs.Chrome.parse {|{"traceEvents":[{"name":"\u00e9"}]}|} with
  | [ e ] ->
    Alcotest.(check string) "\\u00e9 decodes to UTF-8" "\xc3\xa9"
      e.Dphls_obs.Chrome.name
  | _ -> Alcotest.fail "expected one event");
  Alcotest.(check bool) "leading zero rejected" true
    (try ignore (Dphls_obs.Chrome.parse {|{"traceEvents":[{"ts":01}]}|}); false
     with Failure _ -> true);
  Alcotest.(check bool) "malformed json rejected" true
    (try ignore (Dphls_obs.Chrome.parse "{\"traceEvents\": [}"); false
     with Failure _ -> true);
  Alcotest.(check bool) "missing traceEvents rejected" true
    (try ignore (Dphls_obs.Chrome.parse "{}"); false
     with Failure _ -> true)

let test_summary_aggregates () =
  let m = Metrics.create () in
  Metrics.add m Counter.Cells_evaluated 640;
  let tr = Tracer.create () in
  for i = 1 to 10 do
    let d = float_of_int i *. 1e-4 in
    Tracer.add_span tr ~cat:"engine" ~t0:0.0 ~t1:d "compute"
  done;
  Tracer.add_span tr ~cat:"engine" ~t0:0.0 ~t1:1e-3 "traceback";
  let s = Dphls_obs.Summary.build ~metrics:m ~tracer:tr () in
  Alcotest.(check int) "whole counter catalog present" Counter.count
    (List.length s.Dphls_obs.Summary.counters);
  Alcotest.(check int) "two span groups" 2
    (List.length s.Dphls_obs.Summary.span_stats);
  let compute = List.hd s.Dphls_obs.Summary.span_stats in
  Alcotest.(check string) "first-appearance order" "compute"
    compute.Dphls_obs.Summary.span_name;
  Alcotest.(check int) "grouped count" 10 compute.Dphls_obs.Summary.count;
  List.iter
    (fun st ->
      let open Dphls_obs.Summary in
      Alcotest.(check bool) (st.span_name ^ ": p50 <= p99 <= max") true
        (st.p50_s <= st.p99_s && st.p99_s <= st.max_s +. 1e-12);
      Alcotest.(check bool) (st.span_name ^ ": mean within [0, max]") true
        (st.mean_s >= 0. && st.mean_s <= st.max_s +. 1e-12))
    s.Dphls_obs.Summary.span_stats;
  Alcotest.(check bool) "wall = last span end" true
    (Float.abs (s.Dphls_obs.Summary.wall_s -. 1e-3) < 1e-9);
  (* the JSON twin carries the same counter value *)
  let json = Dphls_obs.Summary.to_json s in
  let has needle =
    let rec scan i =
      i + String.length needle <= String.length json
      && (String.sub json i (String.length needle) = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "json carries cells_evaluated" true
    (has "\"cells_evaluated\":640")

(* ------------------------------------------------------------------ *)
(* Pool: counters on the calling thread, per-worker spans disjoint.    *)

let test_pool_counters_and_spans () =
  Dphls_host.Pool.with_pool ~workers:4 (fun pool ->
      let m = Metrics.create () in
      let tr = Tracer.create () in
      let n = 64 in
      let _, _ =
        Dphls_host.Pool.run ~chunk:4 ~metrics:m ~tracer:tr pool
          (fun i ->
            (* enough work for spans to have measurable extent *)
            let acc = ref 0 in
            for j = 0 to 20_000 do acc := !acc + ((i + j) mod 7) done;
            !acc)
          n
      in
      Alcotest.(check int) "pool_tasks = n" n
        (Metrics.get m Counter.Pool_tasks);
      Alcotest.(check int) "pool_steals = chunk count" (n / 4)
        (Metrics.get m Counter.Pool_steals);
      Alcotest.(check bool) "idle waits non-negative" true
        (Metrics.get m Counter.Pool_idle_waits >= 0);
      let spans = Tracer.spans tr in
      Alcotest.(check int) "one span per chunk" (n / 4) (List.length spans);
      (* group by worker row; within one worker, chunks execute
         sequentially, so spans must not overlap *)
      let by_tid = Hashtbl.create 8 in
      List.iter
        (fun s ->
          Alcotest.(check string) "pool category" "pool" s.Tracer.cat;
          Alcotest.(check bool) "tid is a worker index" true
            (s.Tracer.tid >= 0 && s.Tracer.tid < 4);
          Hashtbl.replace by_tid s.Tracer.tid
            (s :: (try Hashtbl.find by_tid s.Tracer.tid with Not_found -> [])))
        spans;
      Hashtbl.iter
        (fun tid ss ->
          let sorted =
            List.sort (fun a b -> compare a.Tracer.t0 b.Tracer.t0) ss
          in
          let rec disjoint = function
            | a :: (b :: _ as rest) ->
                Alcotest.(check bool)
                  (Printf.sprintf "worker %d spans disjoint" tid)
                  true
                  (a.Tracer.t1 <= b.Tracer.t0);
                disjoint rest
            | _ -> ()
          in
          disjoint sorted)
        by_tid)

(* ------------------------------------------------------------------ *)
(* Allocation regression: instrumentation must not cost the compiled
   hot path its O(1)-words property. Same workload shape as
   t_flatpath.ml's regression (K02, len 160, n_pe 16); here through the
   optional-sink entry points, with sinks disabled AND enabled. *)

let minor_words_of f =
  let before = Gc.minor_words () in
  let r = f () in
  ignore (Sys.opaque_identity r);
  int_of_float (Gc.minor_words () -. before)

let test_instrumented_allocation_regression () =
  let module K02 = Dphls_kernels.K02_global_affine in
  let len = 160 in
  let rng = Dphls_util.Rng.create 404 in
  let w = workload_of rng len in
  let cfg = Dphls_systolic.Config.create ~n_pe:16 in
  let run ~metrics ~tracer () =
    Dphls_systolic.Engine.run ~metrics ~tracer cfg K02.kernel K02.default w
  in
  ignore (run ~metrics:Metrics.disabled ~tracer:Tracer.disabled ()) (* warm-up *);
  let cells = len * len in
  let disabled_words =
    minor_words_of (run ~metrics:Metrics.disabled ~tracer:Tracer.disabled)
  in
  Alcotest.(check bool)
    (Printf.sprintf "disabled sinks stay allocation-free (%d words, %d cells)"
       disabled_words cells)
    true
    (disabled_words < cells);
  (* enabled counters are added once per run from refs the engine keeps
     anyway — still far under a word per cell *)
  let m = Metrics.create () in
  let enabled_words =
    minor_words_of (run ~metrics:m ~tracer:Tracer.disabled)
  in
  Alcotest.(check bool)
    (Printf.sprintf "enabled metrics stay allocation-free (%d words)" enabled_words)
    true
    (enabled_words < cells);
  Alcotest.(check int) "and the counters are still exact" cells
    (Metrics.get m Counter.Cells_evaluated)

(* The counter table in docs/observability.md must have a row for every
   catalog counter; adding a variant without documenting it fails
   here. *)
let test_docs_list_every_counter () =
  let doc =
    In_channel.with_open_bin "../docs/observability.md" In_channel.input_all
  in
  let contains s =
    let n = String.length doc and m = String.length s in
    let rec go i = i + m <= n && (String.sub doc i m = s || go (i + 1)) in
    go 0
  in
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "counter %S has a table row" (Counter.name c))
        true
        (contains (Printf.sprintf "| `%s` |" (Counter.name c))))
    Counter.all

let suite =
  [
    Alcotest.test_case "counter catalog" `Quick test_counter_catalog;
    Alcotest.test_case "metrics sink semantics" `Quick test_metrics_sink;
    qtest prop_unbanded_cells_exact;
    qtest prop_fixed_band_cells_closed_form;
    Alcotest.test_case "tb_steps on the pure diagonal" `Quick
      test_tb_steps_diagonal;
    Alcotest.test_case "wavefront counter closed form" `Quick
      test_wavefronts_closed_form;
    Alcotest.test_case "engine phase spans" `Quick test_engine_spans;
    Alcotest.test_case "chrome trace round-trip" `Quick test_chrome_round_trip;
    Alcotest.test_case "summary aggregation" `Quick test_summary_aggregates;
    Alcotest.test_case "pool counters + disjoint worker spans" `Quick
      test_pool_counters_and_spans;
    Alcotest.test_case "instrumented hot path stays allocation-free" `Quick
      test_instrumented_allocation_regression;
    Alcotest.test_case "docs: observability.md lists every counter" `Quick
      test_docs_list_every_counter;
  ]
