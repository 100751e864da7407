(* Pluggable-engine layer: the Myers bit-parallel core against a scalar
   oracle, the registry backends against the golden engine, the auto
   dispatch policy, and the --engine CLI surface. *)
open Dphls_core
module Myers = Dphls_bitpar.Myers
module BEngine = Dphls_bitpar.Engine
module Engine_intf = Dphls_engines.Engine_intf
module Backends = Dphls_engines.Backends
module Engines = Dphls_engines.Engines

let qtest = QCheck_alcotest.to_alcotest

(* ---- scalar oracle: banded unit-cost Levenshtein, worst = +inf ---- *)

let scalar_edit ?width ~query ~reference () =
  let m = Array.length query and n = Array.length reference in
  let inf = max_int / 4 in
  let in_band i j =
    match width with None -> true | Some w -> abs (i - j) <= w
  in
  let prev = Array.make (n + 1) 0 and cur = Array.make (n + 1) 0 in
  for j = 0 to n do
    (* virtual row -1: D(-1,j) = j+1 stored at prev.(j) shifted by one *)
    prev.(j) <- j
  done;
  for i = 0 to m - 1 do
    cur.(0) <- i + 1;
    for j = 0 to n - 1 do
      cur.(j + 1) <-
        (if in_band i j then
           let sub = if query.(i) = reference.(j) then 0 else 1 in
           min
             (prev.(j) + sub)
             (min (prev.(j + 1) + 1) (cur.(j) + 1))
         else inf)
    done;
    Array.blit cur 0 prev 0 (n + 1)
  done;
  if prev.(n) >= inf then None else Some prev.(n)

let random_ints rng ~len ~alpha = Array.init len (fun _ -> Dphls_util.Rng.int rng alpha)

(* Word-boundary lengths from the satellite spec plus the native word
   size (62 cells per OCaml int), and some small fill-ins. *)
let boundary_lengths = [ 1; 2; 7; 61; 62; 63; 64; 65; 123; 124; 125; 127; 128; 129 ]

let test_myers_boundaries () =
  let rng = Dphls_util.Rng.create 91 in
  List.iter
    (fun lq ->
      List.iter
        (fun lr ->
          let query = random_ints rng ~len:lq ~alpha:4
          and reference = random_ints rng ~len:lr ~alpha:4 in
          let expect = scalar_edit ~query ~reference () in
          Alcotest.(check (option int))
            (Printf.sprintf "D %dx%d" lq lr)
            expect
            (Some (Myers.distance ~query ~reference)))
        [ 1; 61; 62; 63; 64; 65; 127; 128; 129 ])
    boundary_lengths

let prop_myers_unbanded =
  QCheck.Test.make ~name:"myers: unbanded == scalar oracle" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Dphls_util.Rng.create seed in
      let lq = 1 + Dphls_util.Rng.int rng 200
      and lr = 1 + Dphls_util.Rng.int rng 200
      and alpha = 1 + Dphls_util.Rng.int rng 6 in
      let query = random_ints rng ~len:lq ~alpha
      and reference = random_ints rng ~len:lr ~alpha in
      scalar_edit ~query ~reference ()
      = Some (Myers.distance ~query ~reference))

let prop_myers_banded =
  QCheck.Test.make ~name:"myers: fixed band == scalar banded oracle" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Dphls_util.Rng.create seed in
      (* bands narrower than one word, lengths straddling words *)
      let width = 1 + Dphls_util.Rng.int rng 12 in
      let lq = 1 + Dphls_util.Rng.int rng 140 in
      let dl = Dphls_util.Rng.int rng (2 * width + 4) - (width + 2) in
      let lr = max 1 (lq + dl) in
      let query = random_ints rng ~len:lq ~alpha:4
      and reference = random_ints rng ~len:lr ~alpha:4 in
      scalar_edit ~width ~query ~reference ()
      = Myers.distance_banded ~query ~reference ~width)

(* ---- scalar oracle: max-plus global DP for the Doubled mapping ---- *)

let scalar_maxplus ?width ~match_ ~mismatch ~gap ~query ~reference () =
  let m = Array.length query and n = Array.length reference in
  let neg_inf = min_int / 4 in
  let in_band i j =
    match width with None -> true | Some w -> abs (i - j) <= w
  in
  let prev = Array.make (n + 1) 0 and cur = Array.make (n + 1) 0 in
  for j = 0 to n do
    prev.(j) <- j * gap
  done;
  for i = 0 to m - 1 do
    cur.(0) <- (i + 1) * gap;
    for j = 0 to n - 1 do
      cur.(j + 1) <-
        (if in_band i j then
           let s = if query.(i) = reference.(j) then match_ else mismatch in
           max
             (prev.(j) + s)
             (max (prev.(j + 1) + gap) (cur.(j) + gap))
         else neg_inf)
    done;
    Array.blit cur 0 prev 0 (n + 1)
  done;
  prev.(n)

(* The Doubled mapping against the scalar max-plus oracle, on parameter
   triples satisfying the doubled-weight identity 2(match - mismatch) =
   match - 2 gap (w2 even since match is). No catalog kernel qualifies
   at its default bindings, so the engine API is fuzzed directly here;
   [prop_maxplus_through_auto] reaches the mapping through the auto
   dispatch with #1 at qualifying costs. *)
let prop_doubled_mapping =
  QCheck.Test.make ~name:"bitpar: doubled max-plus mapping == scalar DP"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Dphls_util.Rng.create seed in
      let match_ = 2 * (1 + Dphls_util.Rng.int rng 4) in
      let gap = -1 - Dphls_util.Rng.int rng 4 in
      let weight2 = match_ - (2 * gap) in
      let mismatch = match_ - (weight2 / 2) in
      let banded = Dphls_util.Rng.int rng 2 = 1 in
      let width = 2 + Dphls_util.Rng.int rng 10 in
      let lq = 1 + Dphls_util.Rng.int rng 120 in
      let lr =
        if banded then max 1 (lq + Dphls_util.Rng.int rng (width + 1) - (width / 2))
        else 1 + Dphls_util.Rng.int rng 120
      in
      let query = random_ints rng ~len:lq ~alpha:4
      and reference = random_ints rng ~len:lr ~alpha:4 in
      let w = Workload.of_bases ~query ~reference in
      let band = if banded then Some (Banding.fixed width) else None in
      let r = BEngine.run ?band (BEngine.Doubled { match_; weight2 }) w in
      let expect =
        scalar_maxplus ?width:(if banded then Some width else None) ~match_
          ~mismatch ~gap ~query ~reference ()
      in
      r.Result.score = expect)

(* ---- kernel #19 through the registry backends vs the golden engine ---- *)

let k19 = Dphls_kernels.K19_global_edit.kernel
let cfg16 = Engine_intf.config ~n_pe:16 ()

let prop_bitpar_backend_vs_golden =
  QCheck.Test.make
    ~name:"bitpar backend: #19 scores == golden engine (random costs, bands)"
    ~count:250
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Dphls_util.Rng.create seed in
      let c = 1 + Dphls_util.Rng.int rng 4 in
      let p = { Dphls_kernels.K19_global_edit.sub = c; indel = c } in
      (* lengths biased onto word boundaries (the 62-bit packing seams) *)
      let pick_len () =
        match Dphls_util.Rng.int rng 3 with
        | 0 -> List.nth boundary_lengths (Dphls_util.Rng.int rng (List.length boundary_lengths))
        | _ -> 1 + Dphls_util.Rng.int rng 150
      in
      let lq = pick_len () and lr = pick_len () in
      let query = random_ints rng ~len:lq ~alpha:4
      and reference = random_ints rng ~len:lr ~alpha:4 in
      let w = Workload.of_bases ~query ~reference in
      let banding =
        match Dphls_util.Rng.int rng 3 with
        | 0 -> None
        (* narrower than one word, including widths the lengths outrun *)
        | _ -> Some (Banding.fixed (1 + Dphls_util.Rng.int rng 20))
      in
      let k = { k19 with Kernel.banding } in
      let bitpar, _ = Backends.Bitpar.run cfg16 k p w in
      let golden = Dphls_reference.Ref_engine.run k p w in
      bitpar.Result.score = golden.Result.score)

(* ---- registry ports are the engines they wrap, bit for bit ---- *)

let small_workload (e : Dphls_kernels.Catalog.entry) ~len =
  let rng = Dphls_util.Rng.create (17 + Registry.id e.packed) in
  e.Dphls_kernels.Catalog.gen rng ~len

let test_registry_port_identity () =
  List.iter
    (fun id ->
      let e = Dphls_kernels.Catalog.find id in
      let (Registry.Packed (k, p)) = e.packed in
      let w = small_workload e ~len:40 in
      let direct_sys, direct_stats =
        Dphls_systolic.Engine.run (Dphls_systolic.Config.create ~n_pe:16) k p w
      in
      let reg_sys, reg_stats = Backends.Systolic.run cfg16 k p w in
      Alcotest.(check bool)
        (Printf.sprintf "#%d systolic result identical" id)
        true
        (Result.equal_alignment direct_sys reg_sys);
      Alcotest.(check bool)
        (Printf.sprintf "#%d systolic stats identical" id)
        true
        (reg_stats = Some direct_stats);
      let direct_ref = Dphls_reference.Ref_engine.run k p w in
      let reg_ref, no_stats = Backends.Reference.run cfg16 k p w in
      Alcotest.(check bool)
        (Printf.sprintf "#%d reference result identical" id)
        true
        (Result.equal_alignment direct_ref reg_ref);
      Alcotest.(check bool)
        (Printf.sprintf "#%d reference has no device stats" id)
        true (no_stats = None))
    [ 1; 2; 3; 7; 12; 15; 16; 19 ]

(* ---- auto dispatch: whole catalog, exactly one fast-path hit ---- *)

let test_auto_dispatch_catalog () =
  let metrics = Dphls_obs.Metrics.create () in
  List.iter
    (fun (e : Dphls_kernels.Catalog.entry) ->
      let (Registry.Packed (k, p)) = e.packed in
      let w = small_workload e ~len:40 in
      let qry_len, ref_len = Workload.sizes w in
      let chosen = Engines.select ~metrics ~qry_len ~ref_len k p in
      let (module E : Engine_intf.S) = chosen in
      (* the routing never changes results: whichever engine auto picks
         scores exactly like the golden engine *)
      let r, _ = E.run cfg16 k p w in
      let golden = Dphls_reference.Ref_engine.run ~band_pe:16 k p w in
      Alcotest.(check int)
        (Printf.sprintf "#%d auto score == golden" (Registry.id e.packed))
        golden.Result.score r.Result.score;
      let id = Registry.id e.packed in
      if id = 19 then
        Alcotest.(check string) "#19 routes to bitpar" "bitpar" E.name
      else if List.mem id [ 16; 17; 18 ] then
        Alcotest.(check string)
          (Printf.sprintf "#%d (adaptive band) falls back to systolic" id)
          "systolic" E.name
      else
        Alcotest.(check string)
          (Printf.sprintf "#%d falls back to reference" id)
          "reference" E.name)
    Dphls_kernels.Catalog.all;
  let total = List.length Dphls_kernels.Catalog.all in
  Alcotest.(check int) "exactly one fast-path hit across the catalog" 1
    (Dphls_obs.Metrics.get metrics Dphls_obs.Counter.Engine_fastpath_hits);
  Alcotest.(check int) "every other kernel counted as a fallback" (total - 1)
    (Dphls_obs.Metrics.get metrics Dphls_obs.Counter.Engine_fastpath_fallbacks)

(* ---- registry lookups and refusal paths ---- *)

let test_registry_lookup () =
  Alcotest.(check (list string)) "registry names"
    [ "systolic"; "reference"; "bitpar" ]
    (List.map Engines.name Engines.all);
  (* every choice spells itself back, N_PE included *)
  List.iter
    (fun n_pe ->
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "of_string ~n_pe:%d %S round-trips" n_pe
               (Engines.choice_name c))
            true
            (Engines.of_string ~n_pe (Engines.choice_name c) = Ok c))
        Engines.[ Golden; Systolic n_pe; Bitpar; Auto n_pe ])
    [ 1; 32 ];
  (match Engines.of_string ~n_pe:32 "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error msg ->
    Alcotest.(check string) "error lists the valid values"
      "unknown engine \"bogus\" (valid: auto | systolic | reference | bitpar)"
      msg)

let test_unsupported_paths () =
  let e = Dphls_kernels.Catalog.find 1 in
  let (Registry.Packed (k, p)) = e.packed in
  let w = small_workload e ~len:16 in
  (* a traceback kernel cannot route to the bit-parallel engine *)
  (match Backends.Bitpar.run cfg16 k p w with
  | exception Engine_intf.Unsupported msg ->
    Alcotest.(check bool) "names the disqualifying property" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "bitpar accepted a traceback kernel");
  (* adaptive bands stay on the array engines *)
  let e16 = Dphls_kernels.Catalog.find 16 in
  let (Registry.Packed (k16, p16)) = e16.packed in
  Alcotest.(check bool) "adaptive band refused by supports" true
    (match Dphls_bitpar.Eligibility.supports ~qry_len:16 ~ref_len:16 k16 p16 with
    | Error _ -> true
    | Ok _ -> false)

(* ---- the align API surface: Bitpar and Auto engines ---- *)

let test_align_api_engines () =
  (* Auto on a traceback kernel falls back and is bit-identical to the
     default golden run *)
  let g = Dphls.Align.global ~query:"ACGTACGT" ~reference:"ACGTTCGT" () in
  let a =
    Dphls.Align.global ~engine:(Dphls.Align.Auto 16) ~query:"ACGTACGT"
      ~reference:"ACGTTCGT" ()
  in
  Alcotest.(check int) "auto score == golden score" g.Dphls.Align.score
    a.Dphls.Align.score;
  Alcotest.(check string) "auto cigar == golden cigar" g.Dphls.Align.cigar
    a.Dphls.Align.cigar;
  (* Bitpar on a traceback kernel is a clean refusal *)
  match
    Dphls.Align.global ~engine:Dphls.Align.Bitpar ~query:"ACGT"
      ~reference:"ACGT" ()
  with
  | exception Engine_intf.Unsupported _ -> ()
  | _ -> Alcotest.fail "Align.Bitpar accepted a traceback kernel"

(* ---- CLI: --engine on align, negative path first ---- *)

let dphls_exe = "../bin/dphls.exe"

let run_cli args =
  let out = Filename.temp_file "dphls_cli" ".txt" in
  let code =
    Sys.command
      (Filename.quote_command dphls_exe ~stdin:Filename.null ~stdout:out
         ~stderr:out args)
  in
  let ic = open_in out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let test_cli_engine_bogus () =
  let code, out =
    run_cli [ "align"; "-k"; "1"; "-q"; "ACGT"; "-r"; "ACGT"; "--engine"; "bogus" ]
  in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "lists the valid engine names" true
    (contains out "auto | systolic | reference | bitpar")

let test_cli_engine_bitpar () =
  let code, out =
    run_cli
      [ "align"; "-k"; "19"; "-q"; "ACGTACGTA"; "-r"; "ACGTTCGT"; "--engine"; "bitpar" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "names the engine" true (contains out "engine      : bitpar");
  Alcotest.(check bool) "score certified against golden" true
    (contains out "golden check: score match")

let test_cli_engine_auto_fallback () =
  let align engine =
    run_cli
      [ "align"; "-k"; "1"; "-q"; "ACGTACGT"; "-r"; "ACGTTCGT"; "--engine"; engine ]
  in
  let cycles_line out =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "cycles")
      (String.split_on_char '\n' out)
  in
  let code, out = align "auto" and sys_code, sys_out = align "systolic" in
  Alcotest.(check (pair int int)) "exit 0" (0, 0) (code, sys_code);
  Alcotest.(check bool) "reports the fallback decision" true
    (contains out "engine      : reference (auto)");
  Alcotest.(check bool) "the systolic run prints a cycles line" true
    (cycles_line sys_out <> None);
  Alcotest.(check (option string)) "modeled cycles line == simulated one"
    (cycles_line sys_out) (cycles_line out)

let test_cli_engine_bitpar_refusal () =
  List.iter
    (fun args ->
      let code, out = run_cli args in
      let what = String.concat " " args in
      Alcotest.(check int) (what ^ ": exit 2") 2 code;
      Alcotest.(check bool) (what ^ ": explains the refusal") true
        (contains out "not bit-parallel eligible"))
    [
      [ "align"; "-k"; "1"; "-q"; "ACGT"; "-r"; "ACGT"; "--engine"; "bitpar" ];
      [ "batch"; "--pairs"; "data/batch_pairs.fa"; "--engine"; "bitpar" ];
    ]

(* ---- CLI: the shared band flags refuse what Banding refuses ---- *)

let test_cli_bad_band () =
  let commands =
    [
      [ "align"; "-k"; "1"; "-q"; "ACGT"; "-r"; "ACGT" ];
      [ "batch"; "--pairs"; "data/batch_pairs.fa" ];
      [ "profile"; "-k"; "1"; "--trials"; "1"; "--len"; "16"; "--trace"; "/dev/null" ];
      [ "vectors"; "gen"; "-k"; "1"; "-o"; "/dev/null" ];
    ]
  and bands =
    [
      ([ "--band"; "fixed"; "--band-width"; "0" ], "width must be >= 1");
      ([ "--band"; "adaptive"; "--band-threshold=-1" ], "threshold must be >= 0");
    ]
  in
  List.iter
    (fun command ->
      List.iter
        (fun (band, reason) ->
          let args = command @ band in
          let code, out = run_cli args in
          let what = String.concat " " args in
          Alcotest.(check int) (what ^ ": exit 2") 2 code;
          Alcotest.(check bool) (what ^ ": gives the reason") true
            (contains out reason))
        bands)
    commands

(* ---- CLI: count flags refuse zero (and --n-pe the array range) ---- *)

let test_cli_bad_counts () =
  let pairs = "data/batch_pairs.fa" in
  let align = [ "align"; "-k"; "1"; "-q"; "ACGT"; "-r"; "ACGT" ] in
  List.iter
    (fun (args, reason) ->
      let code, out = run_cli args in
      let what = String.concat " " args in
      Alcotest.(check int) (what ^ ": exit 2") 2 code;
      Alcotest.(check bool) (what ^ ": gives the range") true
        (contains out reason))
    ([
       (align @ [ "--n-pe"; "5000" ], "--n-pe must be in 1..1024");
       ([ "resources"; "-k"; "1"; "--n-pe"; "0" ], "--n-pe must be >= 1");
       ([ "rtl"; "-k"; "1"; "--n-pe"; "0"; "-o"; "/dev/null" ], "--n-pe must be >= 1");
       ([ "check"; "-k"; "1"; "--max-len"; "0" ], "--max-len must be >= 1");
       ([ "cosim"; "-k"; "1"; "--trials"; "0" ], "--trials must be >= 1");
       ([ "batch"; "--pairs"; pairs; "--chunk"; "0" ], "--chunk must be >= 1");
       ([ "batch"; "--pairs"; pairs; "--workers=-5" ], "--workers must be >= 1 (got -5)");
       ( [ "profile"; "-k"; "1"; "--trace"; "/dev/null"; "--workers=-1" ],
         "--workers must be >= 1 (got -1)" );
       ([ "gen"; "reads"; "-l"; "0" ], "--length must be >= 1 (got 0)");
       ([ "gen"; "protein"; "-l"; "0" ], "--length must be >= 1 (got 0)");
       ([ "gen"; "reads"; "-n"; "0" ], "--count must be >= 1 (got 0)");
       ([ "gen"; "genome"; "--length=-4" ], "--length must be >= 1 (got -4)");
     ]
    @ List.map
        (fun command -> (command @ [ "--n-pe"; "0" ], "--n-pe must be in 1..1024"))
        [
          align;
          [ "profile"; "-k"; "1"; "--trace"; "/dev/null" ];
          [ "cosim"; "-k"; "1" ];
          [ "batch"; "--pairs"; pairs ];
          [ "vectors"; "gen"; "-k"; "1"; "-o"; "/dev/null" ];
          [ "map"; "--reads"; pairs; "--reference"; pairs ];
          [ "serve" ];
        ]
    @ List.map
        (fun command -> (command @ [ "--len"; "0" ], "--len must be >= 1"))
        [
          [ "profile"; "-k"; "1"; "--trace"; "/dev/null" ];
          [ "cosim"; "-k"; "1" ];
          [ "vectors"; "gen"; "-k"; "1"; "-o"; "/dev/null" ];
        ]
    @ List.map
        (fun flag -> ([ "serve"; flag; "0" ], flag ^ " must be >= 1"))
        [ "--batch"; "--queue-depth"; "--workers"; "--max-len" ]
    @ List.map
        (fun command -> (command @ [ "--workers"; "0" ], "--workers must be >= 1"))
        [
          [ "batch"; "--pairs"; pairs ];
          [ "profile"; "-k"; "1"; "--trace"; "/dev/null" ];
        ]
    @ List.concat_map
        (fun command ->
          List.map
            (fun flag -> (command @ [ flag; "0" ], flag ^ " must be >= 1 (got 0)"))
            [ "--n-b"; "--n-k" ])
        [ [ "resources"; "-k"; "1" ]; [ "rtl"; "-k"; "1"; "-o"; "/dev/null" ] ])

(* ---- CLI: -k names a catalog kernel, by number or by name ---- *)

let test_cli_unknown_kernel () =
  List.iter
    (fun (command, spec) ->
      let code, out = run_cli command in
      let what = String.concat " " command in
      Alcotest.(check int) (what ^ ": exit 2") 2 code;
      Alcotest.(check bool) (what ^ ": names the spec") true
        (contains out (Printf.sprintf "unknown kernel %S" spec));
      Alcotest.(check bool) (what ^ ": points at dphls list") true
        (contains out "dphls list"))
    (List.concat_map
       (fun spec ->
         List.map
           (fun command -> (command spec, spec))
           [
             (fun k -> [ "align"; "-k"; k; "-q"; "A"; "-r"; "A" ]);
             (fun k -> [ "cosim"; "-k"; k; "--trials"; "1" ]);
             (fun k -> [ "vectors"; "gen"; "-k"; k; "-o"; "/dev/null" ]);
             (fun k -> [ "check"; "-k"; k ]);
             (fun k -> [ "profile"; "-k"; k; "--trace"; "/dev/null" ]);
             (fun k -> [ "rtl"; "-k"; k; "-o"; "/dev/null" ]);
             (fun k -> [ "resources"; "-k"; k ]);
           ])
       [ "99"; "no-such-kernel" ])

(* ---- auto answers on the golden engine carry the simulator's cycles ---- *)

(* Every kernel auto answers on the golden engine (no fast path, no
   adaptive band), plus #2 off its generated table, under its own band
   or a fixed one: [Auto n] through the one dispatch equals [Systolic n]
   in result (score, cells, path and steps) and per-alignment cycles,
   the only input of any batch accounting. *)
let prop_auto_equals_systolic =
  let ids =
    Array.of_list
      (List.filter
         (fun id -> not (List.mem id [ 16; 17; 18; 19 ]))
         Dphls_kernels.Catalog.ids)
  in
  let n_pes = [| 1; 3; 32 |] in
  let agree (type p) (k : p Kernel.t) (p : p) gen ~n_pe ~len ~seed =
    let k =
      if seed mod 2 = 0 then k
      else Kernel.with_band k (Some (Some (Banding.fixed (1 + (seed / 2 mod 8)))))
    in
    let rng = Dphls_util.Rng.create seed in
    let ws = Array.init (1 + (seed mod 3)) (fun i -> gen rng ~len:(len + (7 * i))) in
    let auto = Engines.run_batch (Engines.Auto n_pe) k p ws
    and sys = Engines.run_batch (Engines.Systolic n_pe) k p ws in
    Array.for_all (fun (r : Engines.ran) -> r.Engines.engine = "reference") auto
    && Array.for_all2
         (fun (a : Engines.ran) (s : Engines.ran) ->
           a.Engines.result = s.Engines.result && a.Engines.cycles = s.Engines.cycles)
         auto sys
    || QCheck.Test.fail_reportf "#%d n_pe %d len %d band %s" k.Kernel.id n_pe len
         (Banding.to_string k.Kernel.banding)
  in
  QCheck.Test.make ~name:"auto (golden + model) == systolic through run_batch" ~count:60
    QCheck.(
      quad (int_range 0 (Array.length ids)) (int_range 0 (Array.length n_pes - 1))
        (int_range 1 60) (int_range 0 1_000_000))
    (fun (ki, ni, len, seed) ->
      let n_pe = n_pes.(ni) in
      if ki < Array.length ids then
        let e = Dphls_kernels.Catalog.find ids.(ki) in
        let (Registry.Packed (k, p)) = e.packed in
        agree k p e.Dphls_kernels.Catalog.gen ~n_pe ~len ~seed
      else
        let module K02 = Dphls_kernels.K02_global_affine in
        agree K02.kernel { K02.default with match_ = 3 } K02.gen ~n_pe ~len ~seed)

(* ---- the bit-parallel admission rule, where it lives ---- *)

module Eligibility = Dphls_bitpar.Eligibility
module K01 = Dphls_kernels.K01_global_linear
module K19 = Dphls_kernels.K19_global_edit

let show_admission = function
  | Ok (BEngine.Unit_cost { cost }) -> Printf.sprintf "Ok (Unit_cost {cost = %d})" cost
  | Ok (BEngine.Doubled { match_; weight2 }) ->
    Printf.sprintf "Ok (Doubled {match_ = %d; weight2 = %d})" match_ weight2
  | Error why -> "Error " ^ why

(* Each gate refuses with its own reason, and the auto dispatch routes
   to bitpar exactly when the rule admits the workload. *)
let test_bitpar_admission_reasons () =
  let case (type p) what (k : p Kernel.t) (p : p) expect =
    let got = Eligibility.supports ~qry_len:16 ~ref_len:16 k p in
    Alcotest.(check string) what expect (show_admission got);
    Alcotest.(check bool)
      (what ^ ": select picks bitpar iff admitted")
      (Stdlib.Result.is_ok got)
      (Engines.name (Engines.select ~qry_len:16 ~ref_len:16 k p) = "bitpar")
  in
  List.iter
    (fun (id, expect) ->
      let (Registry.Packed (k, p)) = (Dphls_kernels.Catalog.find id).packed in
      case (Printf.sprintf "#%d" id) k p expect)
    [
      (2, "Error more than one score layer");
      (3, "Error score site is not the bottom-right cell");
      (1, "Error kernel requires a traceback path");
    ];
  case "#1 without traceback"
    { K01.kernel with Kernel.traceback = (fun _ -> None) }
    K01.default
    "Error maximization scoring maps to a weighted edit distance with doubled \
     substitution weight 2(match-mismatch) = 8 but doubled indel weight \
     match-2*gap = 6: bit-parallel algorithms need them equal (unit-cost)";
  let p19 = K19.default in
  case "#19 adaptive band"
    (Kernel.with_band k19 (Some (Some (Banding.adaptive 8))))
    p19 "Error adaptive band";
  case "#19 init_row off the ramp"
    { k19 with Kernel.init_row = (fun p ~ref_len:_ ~layer:_ ~col -> p.K19.indel * col) }
    p19 "Error init borders are not the global indel ramp";
  case "#19" k19 p19 "Ok (Unit_cost {cost = 1})"

(* #1 without traceback, at costs where 2(match - mismatch) = match - 2
   gap: the rule admits it on the Doubled mapping, so auto runs it on
   bitpar and the score still equals the golden engine's. *)
let prop_maxplus_through_auto =
  QCheck.Test.make ~name:"bitpar admission: max-plus kernel through auto == golden"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Dphls_util.Rng.create seed in
      let match_ = 2 * (1 + Dphls_util.Rng.int rng 4) in
      let gap = -1 - Dphls_util.Rng.int rng 4 in
      let p = { K01.match_; mismatch = match_ - ((match_ - (2 * gap)) / 2); gap } in
      let width = 1 + Dphls_util.Rng.int rng 20 in
      let banded = Dphls_util.Rng.int rng 2 = 1 in
      let lq = 1 + Dphls_util.Rng.int rng 150 in
      let lr =
        (* banded pairs end in or just outside the band *)
        if banded then
          min 150 (max 1 (lq + Dphls_util.Rng.int rng ((2 * width) + 3) - (width + 1)))
        else 1 + Dphls_util.Rng.int rng 150
      in
      let k =
        {
          K01.kernel with
          Kernel.traceback = (fun _ -> None);
          banding = (if banded then Some (Banding.fixed width) else None);
        }
      in
      let w =
        Workload.of_bases
          ~query:(random_ints rng ~len:lq ~alpha:4)
          ~reference:(random_ints rng ~len:lr ~alpha:4)
      in
      let ran = Engines.run_batch (Engines.Auto 32) k p [| w |] in
      let golden = Dphls_reference.Ref_engine.run k p w in
      (match Eligibility.supports ~qry_len:lq ~ref_len:lr k p with
      | Ok (BEngine.Doubled _) -> true
      | r -> QCheck.Test.fail_reportf "not admitted as Doubled: %s" (show_admission r))
      && (ran.(0).Engines.engine = "bitpar"
         || QCheck.Test.fail_reportf "auto ran %s" ran.(0).Engines.engine)
      && ran.(0).Engines.result.Result.score = golden.Result.score)

(* ---- CLI: align reads each kernel's text alphabet ---- *)

let test_cli_align_protein () =
  let query = "MKVLAAGIW" and reference = "MKVLSAGW" in
  let code, out = run_cli [ "align"; "-k"; "15"; "-q"; query; "-r"; reference ] in
  Alcotest.(check int) "exit 0" 0 code;
  let module K15 = Dphls_kernels.K15_protein_local in
  let golden =
    Dphls_reference.Ref_engine.run K15.kernel K15.default
      (Workload.of_bases
         ~query:(Dphls_alphabet.Protein.of_string query)
         ~reference:(Dphls_alphabet.Protein.of_string reference))
  in
  Alcotest.(check bool) "scores the amino acids" true
    (contains out (Printf.sprintf "score       : %d\n" golden.Result.score));
  Alcotest.(check bool) "golden check" true (contains out "golden check: match")

let test_cli_align_no_text_form () =
  List.iter
    (fun id ->
      let code, out =
        run_cli [ "align"; "-k"; string_of_int id; "-q"; "ACGT"; "-r"; "ACGT" ]
      in
      let alphabet = (Dphls_kernels.Catalog.find id).Dphls_kernels.Catalog.alphabet in
      Alcotest.(check int) (Printf.sprintf "#%d: exit 2" id) 2 code;
      Alcotest.(check bool)
        (Printf.sprintf "#%d: names the alphabet" id)
        true
        (contains out (Printf.sprintf "kernel #%d takes %s input" id alphabet)))
    [ 8; 9; 14 ]

(* ---- CLI: --vcd writes the simulator's capture stream ---- *)

let test_cli_align_vcd () =
  let vcd = Filename.temp_file "dphls_align" ".vcd" in
  let align extra =
    run_cli
      ([ "align"; "-k"; "2"; "-q"; "ACGTACGTTTGA"; "-r"; "ACGTTCGTTGA" ]
      @ [ "--vcd"; vcd ] @ extra)
  in
  let code, _ = align [] in
  let size = In_channel.with_open_bin vcd In_channel.length in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "wrote a non-empty waveform" true (size > 0L);
  let code, out = align [ "--engine"; "reference" ] in
  Sys.remove vcd;
  Alcotest.(check int) "reference: exit 2" 2 code;
  Alcotest.(check bool) "reference: names the engine" true
    (contains out "(engine is reference)")

(* ---- CLI: a letter outside the kernel's alphabet exits 2 ---- *)

let test_cli_align_bad_letter () =
  List.iter
    (fun (id, query, reference, message) ->
      let code, out =
        run_cli [ "align"; "-k"; string_of_int id; "-q"; query; "-r"; reference ]
      in
      Alcotest.(check int) (Printf.sprintf "#%d %s: exit 2" id query) 2 code;
      Alcotest.(check bool)
        (Printf.sprintf "#%d %s: gives the encoder's message" id query)
        true (contains out message))
    [ (1, "ACGX", "ACGT", "Dna.encode: 'X'"); (15, "MKVB", "MKV", "Protein.encode: 'B'") ]

(* ---- CLI: batch --overlap reads modeled cycles from any engine that has them ---- *)

let test_cli_batch_overlap_engines () =
  let overlap_line engine =
    let code, out =
      run_cli
        [ "batch"; "--pairs"; "data/batch_pairs.fa"; "--engine"; engine; "--n-pe"; "16";
          "--overlap" ]
    in
    Alcotest.(check int) (engine ^ ": exit 0") 0 code;
    match
      List.find_opt
        (fun l -> String.starts_with ~prefix:"overlap      :" l)
        (String.split_on_char '\n' out)
    with
    | Some l -> l
    | None -> Alcotest.failf "%s: no overlap line in %S" engine out
  in
  let sys = overlap_line "systolic" in
  Alcotest.(check bool) "the systolic run hides prologues" false
    (contains sys "(0 hidden");
  Alcotest.(check string) "auto == systolic" sys (overlap_line "auto")

(* ---- CLI: malformed input is a usage error, not an internal one ---- *)

let test_cli_malformed_input () =
  let with_pair_file text f =
    let path = Filename.temp_file "dphls_pairs" ".fa" in
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  let expect what args message =
    let code, out = run_cli args in
    Alcotest.(check int) (what ^ ": exit 2") 2 code;
    Alcotest.(check bool) (Printf.sprintf "%s: says %S" what message) true
      (contains out message)
  in
  List.iter
    (fun (what, text, message) ->
      with_pair_file text (fun path ->
          expect what [ "batch"; "--pairs"; path; "--workers"; "1" ] message))
    [
      ("odd record count", ">q0\nACGT\n>r0\nACGA\n>q1\nACGT\n", "odd record count");
      ("sequence before a header", "ACGT\n>q0\nACGT\n>r0\nACGA\n", "sequence before header");
      ("letter outside the alphabet", ">q0\nACGX\n>r0\nACGA\n", "Dna.encode: 'X'");
      ("empty sequence", ">q0\n>r0\nACGA\n", "empty sequence");
    ];
  (* every complete pair read before the fault is answered on stdout,
     whether its chunk was full or not *)
  List.iter
    (fun (what, text) ->
      with_pair_file text (fun path ->
          List.iter
            (fun chunk ->
              let args = [ "batch"; "--pairs"; path; "--workers"; "1" ] @ chunk in
              let what = String.concat " " (what :: chunk) in
              let out = Filename.temp_file "dphls_cli" ".tsv" in
              let code =
                Sys.command
                  (Filename.quote_command dphls_exe ~stdin:Filename.null ~stdout:out
                     ~stderr:Filename.null args)
              in
              let rows = In_channel.with_open_text out In_channel.input_all in
              Sys.remove out;
              Alcotest.(check int) (what ^ ": exit 2") 2 code;
              Alcotest.(check bool) (what ^ ": pair 0's row on stdout") true
                (contains rows "\n0\tq0\tr0\t"))
            [ [ "--chunk"; "1" ]; [] ]))
    [
      ("odd record count", ">q0\nACGT\n>r0\nACGA\n>q1\nACGT\n");
      ("X in r1", ">q0\nACGT\n>r0\nACGA\n>q1\nACGT\n>r1\nACGX\n");
    ];
  expect "align -q ''"
    [ "align"; "-k"; "1"; "-q"; ""; "-r"; "ACGT" ]
    "qry and ref must be non-empty"

let suite =
  [
    Alcotest.test_case "myers word-boundary lengths" `Quick test_myers_boundaries;
    qtest prop_myers_unbanded;
    qtest prop_myers_banded;
    qtest prop_doubled_mapping;
    qtest prop_bitpar_backend_vs_golden;
    Alcotest.test_case "registry ports are bit-identical" `Quick
      test_registry_port_identity;
    Alcotest.test_case "auto dispatch: catalog, one fast-path hit" `Quick
      test_auto_dispatch_catalog;
    Alcotest.test_case "registry lookup and caps" `Quick test_registry_lookup;
    Alcotest.test_case "unsupported requests refused" `Quick
      test_unsupported_paths;
    Alcotest.test_case "align API: Bitpar and Auto" `Quick test_align_api_engines;
    Alcotest.test_case "cli: --engine bogus exits 2" `Quick test_cli_engine_bogus;
    Alcotest.test_case "cli: --engine bitpar on #19" `Quick test_cli_engine_bitpar;
    Alcotest.test_case "cli: --engine auto falls back" `Quick
      test_cli_engine_auto_fallback;
    Alcotest.test_case "cli: --engine bitpar refusal" `Quick
      test_cli_engine_bitpar_refusal;
    Alcotest.test_case "cli: bad band values exit 2" `Quick test_cli_bad_band;
    Alcotest.test_case "cli: bad counts exit 2" `Quick test_cli_bad_counts;
    qtest prop_auto_equals_systolic;
    Alcotest.test_case "bitpar admission: each refusal names its reason" `Quick
      test_bitpar_admission_reasons;
    qtest prop_maxplus_through_auto;
    Alcotest.test_case "cli: align -k 15 reads amino acids" `Quick
      test_cli_align_protein;
    Alcotest.test_case "cli: align refuses kernels with no text form" `Quick
      test_cli_align_no_text_form;
    Alcotest.test_case "cli: align --vcd needs the simulator" `Quick
      test_cli_align_vcd;
    Alcotest.test_case "cli: align exits 2 on a letter outside the alphabet" `Quick
      test_cli_align_bad_letter;
    Alcotest.test_case "cli: batch --overlap on auto == systolic" `Quick
      test_cli_batch_overlap_engines;
    Alcotest.test_case "cli: malformed input exits 2" `Quick test_cli_malformed_input;
    Alcotest.test_case "cli: unknown kernel exits 2" `Quick test_cli_unknown_kernel;
  ]
