(* Tests for the pre-synthesis kernel checker (Dphls_analysis): the
   catalog must check clean, and each analysis must flag a seeded-broken
   spec — an undersized score width, a Stay-cycle FSM, an out-of-range
   successor, a pointer wider than tb_bits, a useless adaptive band
   threshold. *)
open Dphls_core
module Score = Dphls_util.Score
module Interval = Dphls_analysis.Interval
module Widths = Dphls_analysis.Widths
module Fsm_check = Dphls_analysis.Fsm_check
module Report = Dphls_analysis.Report
module Check = Dphls_analysis.Check
module K01 = Dphls_kernels.K01_global_linear

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let has_finding r ~check ~severity =
  List.exists
    (fun (f : Report.finding) -> f.Report.check = check && f.Report.severity = severity)
    r.Report.findings

(* A few DNA character pairs (match and mismatch) for direct analyzer
   calls on kernels whose workloads we don't generate. *)
let dna_chars =
  [| ([| 0 |], [| 0 |]); ([| 1 |], [| 1 |]); ([| 0 |], [| 2 |]); ([| 3 |], [| 1 |]) |]

let check_kernel ?n_pe ?(max_len = 128) k p =
  Check.run ?n_pe ~max_len ~chars:dna_chars (Registry.Packed (k, p))

(* ---- interval domain ---- *)

let test_interval () =
  let open Interval in
  Alcotest.(check bool) "empty is empty" true (is_empty empty);
  let s = of_score Score.neg_inf in
  Alcotest.(check bool) "-inf flag" true s.neg_inf;
  Alcotest.(check bool) "-inf not finite" false s.finite;
  let iv = observe (observe empty 5) (-3) in
  Alcotest.(check int) "lo" (-3) iv.lo;
  Alcotest.(check int) "hi" 5 iv.hi;
  Alcotest.(check bool) "join flags" true (join iv s).neg_inf;
  Alcotest.(check bool) "8-bit fits" true
    (fits { lo = -128; hi = 127; finite = true; neg_inf = false; pos_inf = false }
       ~bits:8);
  Alcotest.(check bool) "8-bit lo overflow" false
    (fits { lo = -129; hi = 0; finite = true; neg_inf = false; pos_inf = false }
       ~bits:8);
  Alcotest.(check bool) "sentinels exempt" true (fits s ~bits:8);
  Alcotest.(check (option int)) "low repr prefers sentinel" (Some Score.neg_inf)
    (low_value (join iv s));
  Alcotest.(check (option int)) "finite low" (Some (-3)) (finite_low (join iv s))

(* ---- catalog is clean ---- *)

let test_catalog_clean () =
  List.iter
    (fun (e : Dphls_kernels.Catalog.entry) ->
      let rng = Dphls_util.Rng.create 11 in
      let sample = e.gen rng ~len:64 in
      let chars = Check.chars_of_workload sample in
      Alcotest.(check bool)
        (Printf.sprintf "kernel #%d has char samples" (Registry.id e.packed))
        true
        (Array.length chars > 0);
      List.iter
        (fun max_len ->
          let r = Check.run ~n_pe:e.optimal.n_pe ~max_len ~chars e.packed in
          if not (Report.clean r) then
            Alcotest.failf "kernel #%d %s not clean at max_len %d:@\n%s"
              (Registry.id e.packed) (Registry.name e.packed) max_len
              (Format.asprintf "%a" Report.pp r))
        [ e.default_len; e.max_len ])
    Dphls_kernels.Catalog.all

let test_catalog_max_len_bounds () =
  List.iter
    (fun (e : Dphls_kernels.Catalog.entry) ->
      Alcotest.(check bool)
        (Printf.sprintf "kernel #%d default_len <= max_len" (Registry.id e.packed))
        true
        (e.default_len <= e.max_len))
    Dphls_kernels.Catalog.all

(* ---- width analysis flags undersized score_bits ---- *)

let test_undersized_score_bits () =
  let k = { K01.kernel with Kernel.score_bits = 8 } in
  let w = Widths.analyze k K01.default ~max_len:128 ~chars:dna_chars in
  (match w.Widths.verdict with
  | Widths.Overflow { layer; max_safe_len; _ } ->
    Alcotest.(check int) "primary layer overflows" 0 layer;
    Alcotest.(check bool)
      (Printf.sprintf "max_safe_len %d sane" max_safe_len)
      true
      (max_safe_len >= 8 && max_safe_len < 128)
  | Widths.Safe _ -> Alcotest.fail "8-bit scores must overflow at +-2/cell");
  let r = check_kernel k K01.default in
  Alcotest.(check bool) "report carries width-overflow error" true
    (has_finding r ~check:"width-overflow" ~severity:Report.Error);
  (* and the real 16-bit spec is safe at the same bound *)
  let ok = Widths.analyze K01.kernel K01.default ~max_len:128 ~chars:dna_chars in
  match ok.Widths.verdict with
  | Widths.Safe _ -> ()
  | Widths.Overflow _ -> Alcotest.fail "16-bit global-linear must be safe at 128"

(* ---- FSM model checking ---- *)

let with_traceback k spec = { k with Kernel.traceback = (fun _ -> Some spec) }

let stay_cycle_spec =
  {
    Traceback.fsm =
      {
        Traceback.n_states = 2;
        start_state = 0;
        transition =
          (fun s ~ptr -> if ptr = 0 then (1 - s, Traceback.Stay) else (0, Traceback.Diag));
      };
    stop = Traceback.At_origin;
  }

let test_fsm_stay_cycle () =
  let issues = Fsm_check.check stay_cycle_spec ~tb_bits:2 in
  Alcotest.(check bool) "cycle found" true
    (List.exists (function Fsm_check.Stay_cycle { ptr = 0; _ } -> true | _ -> false) issues);
  let r = check_kernel (with_traceback K01.kernel stay_cycle_spec) K01.default in
  Alcotest.(check bool) "report carries fsm-stay-cycle error" true
    (has_finding r ~check:"fsm-stay-cycle" ~severity:Report.Error)

let test_fsm_bad_successor () =
  let spec =
    {
      Traceback.fsm =
        {
          Traceback.n_states = 2;
          start_state = 0;
          transition = (fun _ ~ptr:_ -> (5, Traceback.Diag));
        };
      stop = Traceback.At_origin;
    }
  in
  let issues = Fsm_check.check spec ~tb_bits:2 in
  Alcotest.(check bool) "successor out of range" true
    (List.exists
       (function Fsm_check.Bad_successor { next = 5; _ } -> true | _ -> false)
       issues);
  let r = check_kernel (with_traceback K01.kernel spec) K01.default in
  Alcotest.(check bool) "report carries fsm-successor-range error" true
    (has_finding r ~check:"fsm-successor-range" ~severity:Report.Error)

let test_fsm_no_stop () =
  let spec =
    {
      Traceback.fsm =
        {
          Traceback.n_states = 1;
          start_state = 0;
          transition = (fun _ ~ptr:_ -> (0, Traceback.Diag));
        };
      stop = Traceback.On_stop_move;
    }
  in
  let issues = Fsm_check.check spec ~tb_bits:2 in
  Alcotest.(check bool) "no-stop flagged" true
    (List.mem Fsm_check.No_stop_emitted issues)

let test_fsm_catalog_specs_clean () =
  List.iter
    (fun (e : Dphls_kernels.Catalog.entry) ->
      let (Registry.Packed (k, p)) = e.packed in
      match k.Kernel.traceback p with
      | None -> ()
      | Some spec ->
        let errors =
          List.filter Fsm_check.is_error (Fsm_check.check spec ~tb_bits:k.Kernel.tb_bits)
        in
        if errors <> [] then
          Alcotest.failf "kernel #%d FSM: %s" k.Kernel.id
            (String.concat "; " (List.map Fsm_check.describe errors)))
    Dphls_kernels.Catalog.all

(* ---- pointer width vs tb_bits ---- *)

let test_pointer_width () =
  let k =
    {
      K01.kernel with
      Kernel.datapath =
        (fun p ->
          let cell, bindings = K01.kernel.Kernel.datapath p in
          ( { cell with Datapath.tb_fields = [ { bits = 3; value = Datapath.Const 5 } ] },
            bindings ));
    }
  in
  let r = check_kernel k K01.default in
  Alcotest.(check bool) "report carries tb-pointer-width error" true
    (has_finding r ~check:"tb-pointer-width" ~severity:Report.Error);
  (* with traceback disabled the emitted pointer is never stored, so the
     same PE must pass (kernel #14's sDTW shape) *)
  let no_tb = { k with Kernel.traceback = (fun _ -> None); tb_bits = 0 } in
  let r = check_kernel no_tb K01.default in
  Alcotest.(check bool) "unstored pointers are not findings" false
    (has_finding r ~check:"tb-pointer-width" ~severity:Report.Error)

(* ---- banding / parallelism lint ---- *)

let test_adaptive_threshold_lint () =
  let k =
    { K01.kernel with Kernel.banding = Some (Banding.adaptive ~threshold:10000 32) }
  in
  let r = check_kernel k K01.default in
  Alcotest.(check bool) "report carries band-threshold warning" true
    (has_finding r ~check:"band-threshold" ~severity:Report.Warning);
  let sane =
    { K01.kernel with Kernel.banding = Some (Banding.adaptive ~threshold:40 32) }
  in
  let r = check_kernel sane K01.default in
  Alcotest.(check bool) "sane threshold passes" false
    (has_finding r ~check:"band-threshold" ~severity:Report.Warning)

let test_band_covers_matrix () =
  let k = { K01.kernel with Kernel.banding = Some (Banding.fixed 64) } in
  let r = check_kernel ~max_len:32 k K01.default in
  Alcotest.(check bool) "band wider than matrix warned" true
    (has_finding r ~check:"band-covers-matrix" ~severity:Report.Warning)

let test_parallelism_lint () =
  let r = check_kernel ~n_pe:256 ~max_len:128 K01.kernel K01.default in
  Alcotest.(check bool) "idle PEs warned" true
    (has_finding r ~check:"n-pe-oversized" ~severity:Report.Warning);
  let r = check_kernel ~n_pe:48 ~max_len:128 K01.kernel K01.default in
  Alcotest.(check bool) "ragged chunking noted" true
    (has_finding r ~check:"n-pe-chunking" ~severity:Report.Info)

(* ---- structural validation (Kernel.validate satellite) ---- *)

let test_validate_start_state () =
  let bad_spec =
    {
      stay_cycle_spec with
      Traceback.fsm = { stay_cycle_spec.Traceback.fsm with Traceback.start_state = 9 };
    }
  in
  let k = with_traceback K01.kernel bad_spec in
  Alcotest.(check bool) "structural finding named" true
    (List.exists
       (fun (check, _) -> check = "fsm-start-state")
       (Kernel.structural_findings k K01.default));
  match Kernel.validate k K01.default with
  | () -> Alcotest.fail "validate must reject start_state 9"
  | exception Invalid_argument _ -> ()

(* ---- walker failsafe diagnostic (both engines share Walker.walk) ---- *)

let test_walker_diagnostic () =
  let k = with_traceback K01.kernel stay_cycle_spec in
  let rng = Dphls_util.Rng.create 3 in
  let w = K01.gen rng ~len:8 in
  match Dphls_reference.Ref_engine.run k K01.default w with
  | _ -> Alcotest.fail "stay-cycle traceback must trip the failsafe"
  | exception Failure msg ->
    List.iter
      (fun part ->
        Alcotest.(check bool)
          (Printf.sprintf "diagnostic mentions %S" part)
          true (contains msg part))
      [ "Walker.walk"; "state="; "ptr="; "cell="; "dphls check" ]

(* ---- report formatting ---- *)

let test_report_json () =
  let r =
    Report.create ~kernel_id:3 ~kernel_name:"demo" ~max_len:64
      [
        Report.info ~check:"a" "fine";
        Report.error ~check:"b" "broke \"here\"\n";
      ]
  in
  Alcotest.(check bool) "errors counted" true (Report.errors r = 1);
  Alcotest.(check bool) "not clean" false (Report.clean r);
  let json = Report.to_json r in
  List.iter
    (fun part ->
      Alcotest.(check bool) (Printf.sprintf "json has %S" part) true
        (contains json part))
    [
      {|"kernel": {"id": 3, "name": "demo"}|};
      {|"errors": 1|};
      {|broke \"here\"\n|};
    ];
  (* errors sort first *)
  (match r.Report.findings with
  | { Report.check = "b"; _ } :: _ -> ()
  | _ -> Alcotest.fail "error finding must sort first");
  Alcotest.(check bool) "list json totals errors" true
    (contains (Report.list_to_json [ r; r ]) {|"errors": 2|})

(* ---- datapath analyses: Depend / Ii / Fastpath (seeded-broken specs) ---- *)

module Depend = Dphls_analysis.Depend
module Ii = Dphls_analysis.Ii
module Fastpath = Dphls_analysis.Fastpath
module Json = Dphls_analysis.Json
module Lint = Dphls_analysis.Lint
module Cells = Dphls_kernels.Cells
module K19 = Dphls_kernels.K19_global_edit

let has_in fs ~check ~severity =
  List.exists
    (fun (f : Report.finding) -> f.Report.check = check && f.Report.severity = severity)
    fs

let edit_bindings = K19.bindings K19.default

let check_with_datapath ?host k p cell bindings =
  Check.run ?host ~max_len:128 ~chars:dna_chars
    (Registry.Packed ({ k with Kernel.datapath = (fun _ -> (cell, bindings)) }, p))

(* Seeded-broken spec 1: a read outside the {NW, N, W} wavefront stencil
   (two rows up), expressible via [Nbr] but unservable by the
   double-buffered engines. *)
let test_depend_out_of_stencil () =
  let open Datapath in
  let cell =
    { Cells.edit_cell with
      layers = [| Add (Nbr (2, 0, 0), Param "indel") |] }
  in
  let d = Depend.analyze cell ~n_layers:1 in
  Alcotest.(check int) "one out-of-stencil read" 1
    (List.length d.Depend.out_of_stencil);
  let r = check_with_datapath K19.kernel K19.default cell edit_bindings in
  Alcotest.(check bool) "report carries depend-out-of-stencil error" true
    (has_finding r ~check:"depend-out-of-stencil" ~severity:Report.Error);
  (* the II pass cannot run on an illegal footprint: it is skipped, not
     crashed *)
  Alcotest.(check bool) "ii skipped after depend errors" true
    (has_finding r ~check:"ii-skipped" ~severity:Report.Info);
  (* and the clean datapath on the same kernel has neither *)
  let ok = check_with_datapath K19.kernel K19.default Cells.edit_cell edit_bindings in
  Alcotest.(check bool) "clean datapath passes" false
    (has_finding ok ~check:"depend-out-of-stencil" ~severity:Report.Error)

let test_depend_catalog_footprints () =
  List.iter
    (fun (e : Dphls_kernels.Catalog.entry) ->
      let (Registry.Packed (k, _)) = e.packed in
      let cell, _ = Registry.datapath e.packed in
      let d = Depend.analyze cell ~n_layers:k.Kernel.n_layers in
      if d.Depend.out_of_stencil <> [] || d.Depend.bad_layer <> []
         || d.Depend.cur_violations <> []
      then Alcotest.failf "kernel #%d footprint not clean" k.Kernel.id;
      Alcotest.(check bool)
        (Printf.sprintf "kernel #%d has a loop-carried cycle" k.Kernel.id)
        true
        (List.exists (fun c -> c.Depend.distance > 0) d.Depend.cycles))
    Dphls_kernels.Catalog.all

(* Seeded-broken spec 2: an artificially deep loop-carried chain — 12
   dependent adds between the N neighbour read and the layer register.
   No amount of pipelining can hide it, so the declared depth/tier must
   be flagged. *)
let deep_cell =
  let open Datapath in
  let rec chain n e = if n = 0 then e else chain (n - 1) (Add (e, Const 1)) in
  { layers = [| chain 12 (Up 0) |]; tb_fields = [] }

let test_ii_deep_recurrence () =
  let b = { Datapath.params = []; tables = [] } in
  match Ii.analyze deep_cell b with
  | Error m -> Alcotest.failf "deep cell must compile: %s" m
  | Ok t ->
    Alcotest.(check int) "recurrence depth = chain length" 12
      t.Ii.recurrence_depth;
    Alcotest.(check int) "modeled II stays 1 (distance 1 cycle)" 1 t.Ii.modeled_ii;
    Alcotest.(check (float 0.01)) "recurrence tier is the slowest" 125.0
      t.Ii.modeled_mhz;
    let traits = K19.kernel.Kernel.traits in
    (* declared logic_depth 5 @ 250 MHz vs recurrence bound 12 @ 125 MHz *)
    let fs = Ii.findings t ~traits in
    Alcotest.(check bool) "ii-depth-drift warning" true
      (has_in fs ~check:"ii-depth-drift" ~severity:Report.Warning);
    Alcotest.(check bool) "ii-freq warning" true
      (has_in fs ~check:"ii-freq" ~severity:Report.Warning);
    (* a declared II below the modeled bound is an error, not a warning *)
    let fs0 = Ii.findings t ~traits:{ traits with Traits.ii = 0 } in
    Alcotest.(check bool) "ii-infeasible error" true
      (has_in fs0 ~check:"ii-infeasible" ~severity:Report.Error);
    (* end-to-end: the same seeded datapath surfaces in the report *)
    let r = check_with_datapath K19.kernel K19.default deep_cell edit_bindings in
    Alcotest.(check bool) "report carries ii-depth-drift" true
      (has_finding r ~check:"ii-depth-drift" ~severity:Report.Warning);
    Alcotest.(check bool) "report not clean" false (Report.clean r)

(* Catalog-wide agreement contract: the modeled recurrence bound never
   contradicts the declared traits (no ii-infeasible / ii-depth-drift /
   ii-freq on any kernel), and the modeled II matches the declared one. *)
let test_ii_catalog_agreement () =
  List.iter
    (fun (e : Dphls_kernels.Catalog.entry) ->
      let (Registry.Packed (k, _)) = e.packed in
      let cell, b = Registry.datapath e.packed in
      match Ii.analyze cell b with
      | Error m -> Alcotest.failf "kernel #%d: %s" k.Kernel.id m
      | Ok t ->
        let traits = k.Kernel.traits in
        (* declared II may be conservative (kernel #8 declares 4), but
           never below the recurrence bound *)
        Alcotest.(check bool)
          (Printf.sprintf "kernel #%d declared II >= modeled" k.Kernel.id)
          true
          (traits.Traits.ii >= t.Ii.modeled_ii);
        Alcotest.(check bool)
          (Printf.sprintf "kernel #%d recurrence <= full depth" k.Kernel.id)
          true
          (t.Ii.recurrence_depth <= t.Ii.full_depth);
        let fs = Ii.findings t ~traits in
        Alcotest.(check bool)
          (Printf.sprintf "kernel #%d ii-path derivation present" k.Kernel.id)
          true
          (has_in fs ~check:"ii-path" ~severity:Report.Info);
        List.iter
          (fun (f : Report.finding) ->
            if f.Report.severity <> Report.Info then
              Alcotest.failf "kernel #%d II disagreement: %s: %s" k.Kernel.id
                f.Report.check f.Report.message)
          fs)
    Dphls_kernels.Catalog.all

(* Seeded near-miss 3: the edit-distance shape with substitution cost 2
   but indel cost 1 — structurally identical to the eligible kernel, so
   the classifier must name the exact disqualifying inequality. *)
let test_fastpath_near_miss () =
  let b = { Datapath.params = [ ("sub", 2); ("indel", 1) ]; tables = [] } in
  (match Fastpath.classify Cells.edit_cell b with
  | Fastpath.Eligible _ -> Alcotest.fail "sub<>indel must be ineligible"
  | Fastpath.Ineligible { property } ->
    Alcotest.(check bool) "names the differing costs" true
      (contains property "substitution cost 2 and indel costs 1/1 differ"));
  (* scaled-unit costs stay eligible: distance = 3 x Levenshtein *)
  let b3 = { Datapath.params = [ ("sub", 3); ("indel", 3) ]; tables = [] } in
  match Fastpath.classify Cells.edit_cell b3 with
  | Fastpath.Eligible { scale; _ } -> Alcotest.(check int) "scale" 3 scale
  | Fastpath.Ineligible { property } ->
    Alcotest.failf "uniform cost 3 must be eligible, got: %s" property

let test_fastpath_catalog () =
  List.iter
    (fun (e : Dphls_kernels.Catalog.entry) ->
      let (Registry.Packed (k, _)) = e.packed in
      let cell, b = Registry.datapath e.packed in
      match (Fastpath.classify cell b, k.Kernel.id) with
      | Fastpath.Eligible { scale; _ }, 19 ->
        Alcotest.(check int) "unit-cost kernel: scale 1" 1 scale
      | Fastpath.Eligible _, id ->
        Alcotest.failf "kernel #%d unexpectedly bit-parallel eligible" id
      | Fastpath.Ineligible _, 19 ->
        Alcotest.fail "kernel #19 must be bit-parallel eligible"
      | Fastpath.Ineligible { property }, id ->
        Alcotest.(check bool)
          (Printf.sprintf "kernel #%d disqualifier non-empty" id)
          true
          (String.length property > 0))
    Dphls_kernels.Catalog.all

(* ---- strict JSON parser ---- *)

let test_json_parser () =
  (match Json.parse {|  {"a": [1.5, true, null, "x\u00e9\ud83d\ude00"], "b": -0.25e1} |} with
  | Ok
      (Json.Obj
        [ ("a", Json.Arr [ Json.Num a; Json.Bool true; Json.Null; Json.Str s ]);
          ("b", Json.Num b) ]) ->
    Alcotest.(check (float 0.0)) "number" 1.5 a;
    Alcotest.(check (float 0.0)) "exponent" (-2.5) b;
    Alcotest.(check string) "\\u escapes (incl. surrogate pair) decode to UTF-8"
      "x\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "parsed to the wrong shape"
  | Error e -> Alcotest.failf "valid document rejected: %s" e);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" bad
      | Error _ -> ())
    [
      "{";                   (* unterminated object *)
      "[1,]";                (* trailing comma *)
      "01";                  (* leading zero *)
      "1.";                  (* digits required after the point *)
      "1e";                  (* digits required in the exponent *)
      "\"\n\"";              (* bare control character *)
      "\"\\q\"";             (* unknown escape *)
      "\"\\ud800\"";         (* unpaired surrogate *)
      "nul";                 (* truncated literal *)
      "{} x";                (* trailing garbage *)
      {|{"a":1 "b":2}|};     (* missing comma *)
    ]

(* Round-trip law: [Report.of_json (to_json r) = Ok r] for arbitrary
   reports, including messages full of quotes, control characters and
   non-ASCII bytes (RFC 8259 escaping). *)
let report_arbitrary =
  let open QCheck in
  let severity =
    Gen.oneofl [ Report.Error; Report.Warning; Report.Info ]
  in
  let finding =
    Gen.map3
      (fun check severity message -> Report.finding ~check ~severity message)
      Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '-' ]) (1 -- 12))
      severity Gen.string
  in
  let report =
    Gen.map3
      (fun (id, max_len) name findings ->
        Report.create ~kernel_id:id ~kernel_name:name ~max_len findings)
      Gen.(pair (0 -- 99) (1 -- 10_000))
      Gen.string
      Gen.(list_size (0 -- 8) finding)
  in
  make ~print:Report.to_json report

let test_json_roundtrip =
  QCheck.Test.make ~name:"Report.of_json inverts to_json" ~count:300
    report_arbitrary (fun r ->
      match Report.of_json (Report.to_json r) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "rejected own output: %s" e)

let test_json_list_roundtrip =
  QCheck.Test.make ~name:"Report.list_of_json inverts list_to_json" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 5) report_arbitrary)
    (fun rs ->
      match Report.list_of_json (Report.list_to_json rs) with
      | Ok rs' -> rs' = rs
      | Error e -> QCheck.Test.fail_reportf "rejected own output: %s" e)

let test_json_tamper_detected () =
  let r =
    Report.create ~kernel_id:1 ~kernel_name:"demo" ~max_len:64
      [ Report.error ~check:"b" "broke" ]
  in
  (* flip the summary error count: the strict parser must refuse it *)
  let replace_once ~sub ~by s =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then s
      else if String.sub s i m = sub then
        String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
      else go (i + 1)
    in
    go 0
  in
  let tampered =
    replace_once ~sub:{|"errors": 1|} ~by:{|"errors": 0|} (Report.to_json r)
  in
  match Report.of_json tampered with
  | Ok _ -> Alcotest.fail "summary/findings mismatch must be rejected"
  | Error e ->
    Alcotest.(check bool) "error mentions the summary" true
      (contains e "summary" || contains e "errors")

(* The committed CI baseline (test/data/check_baseline.json, the
   [dphls check --all --json] artifact) must parse under the strict
   reader, report zero errors, and byte-match a fresh regeneration —
   the same seeded sampling the CLI uses, so any analysis drift fails
   here before CI diffs it. Regenerate with
   [dune exec bin/dphls.exe -- check --all --json]. *)
let test_check_baseline_fresh () =
  let path = "data/check_baseline.json" in
  let ic = open_in_bin path in
  let committed = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Report.list_of_json committed with
  | Error e -> Alcotest.failf "committed baseline does not parse: %s" e
  | Ok reports ->
    Alcotest.(check int) "one report per catalog kernel"
      (List.length Dphls_kernels.Catalog.all)
      (List.length reports);
    List.iter
      (fun r ->
        Alcotest.(check int)
          (Printf.sprintf "kernel #%d baseline has no errors" r.Report.kernel_id)
          0 (Report.errors r))
      reports);
  let fresh =
    Report.list_to_json
      (List.map
         (fun (e : Dphls_kernels.Catalog.entry) ->
           let rng = Dphls_util.Rng.create 7 in
           let sample = e.gen rng ~len:(min 64 e.max_len) in
           let chars = Check.chars_of_workload sample in
           Check.run ~n_pe:e.optimal.n_pe ~max_len:e.max_len ~chars e.packed)
         Dphls_kernels.Catalog.all)
    ^ "\n"
  in
  if not (String.equal fresh committed) then
    Alcotest.fail
      "check findings drifted from test/data/check_baseline.json — review the \
       diff and regenerate with `dune exec bin/dphls.exe -- check --all --json`"

(* ---- domain-safety lint + Metrics owner guard ---- *)

let test_domain_safety_lint () =
  let shared = { Lint.workers = 4; shared_metrics_sink = true } in
  Alcotest.(check bool) "shared multi-worker sink warned" true
    (has_in (Lint.domain_safety (Some shared)) ~check:"metrics-domain-safety"
       ~severity:Report.Warning);
  Alcotest.(check int) "single worker is fine" 0
    (List.length (Lint.domain_safety (Some { shared with Lint.workers = 1 })));
  Alcotest.(check int) "per-domain sinks are fine" 0
    (List.length
       (Lint.domain_safety (Some { shared with Lint.shared_metrics_sink = false })));
  Alcotest.(check int) "no host config, no finding" 0
    (List.length (Lint.domain_safety None));
  (* end-to-end through Check.run's ?host *)
  let r =
    check_with_datapath ~host:shared K19.kernel K19.default Cells.edit_cell
      edit_bindings
  in
  Alcotest.(check bool) "report carries metrics-domain-safety warning" true
    (has_finding r ~check:"metrics-domain-safety" ~severity:Report.Warning)

let test_metrics_owner_guard () =
  let module M = Dphls_obs.Metrics in
  let module C = Dphls_obs.Counter in
  let sink = M.create () in
  let c = C.all.(0) in
  M.add sink c 1;
  M.guard_domains true;
  Fun.protect
    ~finally:(fun () -> M.guard_domains false)
    (fun () ->
      M.add sink c 1;
      (* owner domain still allowed *)
      let cross =
        Domain.join
          (Domain.spawn (fun () ->
               match M.add sink c 1 with
               | () -> None
               | exception Failure msg -> Some msg))
      in
      match cross with
      | None -> Alcotest.fail "cross-domain bump must fail under the guard"
      | Some msg ->
        List.iter
          (fun part ->
            Alcotest.(check bool)
              (Printf.sprintf "guard message mentions %S" part)
              true (contains msg part))
          [ C.name c; "domain"; "merge_into" ]);
  (* guard off: the racy write is permitted again (production default) *)
  Domain.join (Domain.spawn (fun () -> M.add sink c 1));
  Alcotest.(check int) "only the successful bumps counted" 3 (M.get sink c)

let suite =
  [
    Alcotest.test_case "interval domain" `Quick test_interval;
    Alcotest.test_case "catalog checks clean" `Quick test_catalog_clean;
    Alcotest.test_case "catalog max_len bounds" `Quick test_catalog_max_len_bounds;
    Alcotest.test_case "undersized score_bits flagged" `Quick test_undersized_score_bits;
    Alcotest.test_case "FSM stay cycle flagged" `Quick test_fsm_stay_cycle;
    Alcotest.test_case "FSM bad successor flagged" `Quick test_fsm_bad_successor;
    Alcotest.test_case "FSM missing stop flagged" `Quick test_fsm_no_stop;
    Alcotest.test_case "catalog FSMs model-check clean" `Quick test_fsm_catalog_specs_clean;
    Alcotest.test_case "pointer width vs tb_bits" `Quick test_pointer_width;
    Alcotest.test_case "adaptive threshold lint" `Quick test_adaptive_threshold_lint;
    Alcotest.test_case "band covers matrix lint" `Quick test_band_covers_matrix;
    Alcotest.test_case "parallelism lint" `Quick test_parallelism_lint;
    Alcotest.test_case "validate rejects bad start_state" `Quick test_validate_start_state;
    Alcotest.test_case "walker failsafe diagnostic" `Quick test_walker_diagnostic;
    Alcotest.test_case "report json" `Quick test_report_json;
    Alcotest.test_case "depend: out-of-stencil read flagged" `Quick
      test_depend_out_of_stencil;
    Alcotest.test_case "depend: catalog footprints clean" `Quick
      test_depend_catalog_footprints;
    Alcotest.test_case "ii: deep recurrence chain flagged" `Quick
      test_ii_deep_recurrence;
    Alcotest.test_case "ii: catalog agrees with declared traits" `Quick
      test_ii_catalog_agreement;
    Alcotest.test_case "fastpath: near-miss names the inequality" `Quick
      test_fastpath_near_miss;
    Alcotest.test_case "fastpath: catalog verdicts" `Quick test_fastpath_catalog;
    Alcotest.test_case "json: strict parser" `Quick test_json_parser;
    QCheck_alcotest.to_alcotest test_json_roundtrip;
    QCheck_alcotest.to_alcotest test_json_list_roundtrip;
    Alcotest.test_case "json: summary tamper detected" `Quick
      test_json_tamper_detected;
    Alcotest.test_case "check baseline parses and is fresh" `Quick
      test_check_baseline_fresh;
    Alcotest.test_case "lint: metrics domain safety" `Quick test_domain_safety_lint;
    Alcotest.test_case "metrics: owner-domain guard" `Quick test_metrics_owner_guard;
  ]
