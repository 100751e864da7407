(* Compiled flat datapath tests: saturating Mul/Abs at width-62 extremes,
   compile-pass structure (CSE, constant folding, strict binding), an
   allocation regression pinning the O(1)-words-per-wavefront property of
   the compiled hot path, the golden engine's under-a-word-per-cell
   allocation (both on the generated and on the bytecode PE) and the
   16-bit pointer guard both exact engines share, a catalog-wide
   differential fuzz of the compiled planes both engines run against the
   boxed interpreter, and the systolic engine's allocation on the
   generated and the generic wave: its per-alignment state, sized to the
   rows present, and nothing per cell or per wavefront; the golden
   engine's per-domain ring and plane: reused runs equal fresh ones, and
   a domain retains no more than the cap; and a warm simulator run,
   whose pointers go to the same per-domain plane. *)
open Dphls_core
module Score = Dphls_util.Score
module Datapath = Dphls_core.Datapath

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Saturating Mul/Abs: the Score ops and the regression that both the
   interpreter and the compiled evaluator route through them.          *)

let big = max_int / 8

let test_score_mul_abs_extremes () =
  Alcotest.(check bool) "mul overflow saturates positive" true
    (Score.is_pos_inf (Score.mul big 100));
  Alcotest.(check bool) "mul overflow saturates negative" true
    (Score.is_neg_inf (Score.mul big (-100)));
  Alcotest.(check bool) "mul neg*neg overflow saturates positive" true
    (Score.is_pos_inf (Score.mul (-big) (-100)));
  Alcotest.(check bool) "infinity absorbing with sign" true
    (Score.is_neg_inf (Score.mul Score.pos_inf (-2)));
  Alcotest.(check bool) "neg_inf * neg flips to pos_inf" true
    (Score.is_pos_inf (Score.mul Score.neg_inf (-2)));
  Alcotest.(check int) "mul 0 pos_inf = 0" 0 (Score.mul 0 Score.pos_inf);
  Alcotest.(check int) "mul neg_inf 0 = 0" 0 (Score.mul Score.neg_inf 0);
  Alcotest.(check int) "in-range product exact" (-42) (Score.mul 6 (-7));
  Alcotest.(check bool) "abs neg_inf = pos_inf" true
    (Score.is_pos_inf (Score.abs Score.neg_inf));
  Alcotest.(check int) "abs in range" 5 (Score.abs (-5))

(* A two-layer cell exercising Mul and Abs; evaluated at extreme inputs
   through the interpreter AND the compiled evaluator, both must
   saturate identically (the historical bug: eval used raw [( * )] and
   an unsaturated [abs]). *)
let mul_abs_cell =
  {
    Datapath.layers = [| Datapath.Mul (Datapath.Up 0, Datapath.Left 0);
                         Datapath.Abs (Datapath.Diag 1) |];
    tb_fields = [];
  }

let test_mul_abs_datapath_saturates () =
  let bindings = { Datapath.params = []; tables = [] } in
  let input =
    { Pe.up = [| big; 0 |]; diag = [| 0; Score.neg_inf |]; left = [| 100; 0 |];
      qry = [| 0 |]; rf = [| 0 |]; row = 1; col = 1 }
  in
  let out = (Datapath.eval mul_abs_cell bindings) input in
  Alcotest.(check bool) "eval: Mul saturates" true
    (Score.is_pos_inf out.Pe.scores.(0));
  Alcotest.(check bool) "eval: Abs neg_inf -> pos_inf" true
    (Score.is_pos_inf out.Pe.scores.(1));
  let flat = Datapath.flat (Datapath.compile mul_abs_cell bindings) in
  let buf = Pe.create_buffers ~n_layers:2 in
  buf.Pe.b_up <- input.Pe.up;
  buf.Pe.b_diag <- input.Pe.diag;
  buf.Pe.b_left <- input.Pe.left;
  buf.Pe.b_qry <- input.Pe.qry;
  buf.Pe.b_rf <- input.Pe.rf;
  buf.Pe.b_row <- 1;
  buf.Pe.b_col <- 1;
  flat buf;
  Alcotest.(check (array int)) "compiled == interpreted at extremes"
    out.Pe.scores buf.Pe.b_scores

(* ------------------------------------------------------------------ *)
(* Compile pass structure.                                             *)

let no_bindings = { Datapath.params = []; tables = [] }

let test_compile_constant_folding () =
  let cell =
    { Datapath.layers = [| Datapath.Add (Datapath.Const 2, Datapath.Const 3) |];
      tb_fields = [] }
  in
  let p = Datapath.compile cell no_bindings in
  Alcotest.(check int) "constant layer folds to one instruction" 1
    (Datapath.program_insts p);
  let buf = Pe.create_buffers ~n_layers:1 in
  Datapath.flat p buf;
  Alcotest.(check int) "folded value" 5 buf.Pe.b_scores.(0)

let test_compile_cse () =
  let shared = Datapath.Add (Datapath.Up 0, Datapath.Const 1) in
  let dup =
    Datapath.compile
      { Datapath.layers = [| Datapath.Add (shared, shared) |]; tb_fields = [] }
      no_bindings
  in
  (* Up 0, fused add-immediate (once), top Add — the folded Const leaf
     is dead-code-eliminated *)
  Alcotest.(check int) "shared subexpression emitted once" 3
    (Datapath.program_insts dup);
  let distinct =
    Datapath.compile
      { Datapath.layers =
          [| Datapath.Add (shared, Datapath.Add (Datapath.Up 0, Datapath.Const 2)) |];
        tb_fields = [] }
      no_bindings
  in
  Alcotest.(check bool) "distinct subexpressions cost more" true
    (Datapath.program_insts dup < Datapath.program_insts distinct)

let test_compile_guards () =
  let unbound = { Datapath.layers = [| Datapath.Param "nope" |]; tb_fields = [] } in
  Alcotest.(check bool) "unbound param rejected at compile time" true
    (try ignore (Datapath.compile unbound no_bindings); false
     with Invalid_argument _ -> true);
  let one_layer =
    Datapath.compile
      { Datapath.layers = [| Datapath.Const 7 |]; tb_fields = [] }
      no_bindings
  in
  let wrong = Pe.create_buffers ~n_layers:2 in
  Alcotest.(check bool) "layer-count mismatch rejected at exec" true
    (try Datapath.exec one_layer (Array.make 16 0) wrong; false
     with Invalid_argument _ -> true);
  (* a row evaluator checks its interval against the ring once per call:
     the generated row (#2 at its defaults) and the generic one (#2 at a
     match score the table does not hold) alike *)
  let module K02 = Dphls_kernels.K02_global_affine in
  let w = K02.gen (Dphls_util.Rng.create 1) ~len:8 in
  let reference = w.Workload.reference in
  let ref_len = Array.length reference in
  let stride = (ref_len + 1) * 3 in
  List.iter
    (fun p ->
      let row = Kernel.flat_row K02.kernel p in
      List.iter
        (fun (what, above, base, lo, hi) ->
          Alcotest.check_raises what (Invalid_argument "Pe: row interval outside the ring")
            (fun () ->
              row ~ring:(Array.make (2 * stride) 0) ~above ~base ~qry:w.Workload.query.(0)
                ~reference ~tb:Bytes.empty ~row:0 ~lo ~hi))
        [
          ("lo below column 0", 0, stride, -1, 0);
          ("hi past the last column", 0, stride, 0, ref_len);
          ("row past the ring's end", 0, stride + 3, 0, ref_len - 1);
          ("row above before the ring", -3, stride, 0, 0);
          ("offset that would overflow", max_int - 1, stride, 0, 0);
        ])
    [ K02.default; { K02.default with match_ = 3 } ]

(* ------------------------------------------------------------------ *)
(* Allocation regression: the systolic wavefront loop with a compiled
   datapath must allocate O(1) minor words per run — strictly less than
   one word per cell (an interpreted PE boxes input/output records and
   score arrays per cell). Both tests run K02 twice: at its defaults,
   where [Kernel.flat_pe] returns the generated evaluator, and at a
   match score the generated table does not hold, where it returns the
   bytecode loop. *)

module K02 = Dphls_kernels.K02_global_affine

let k02_paths () =
  let miss = { K02.default with match_ = 3 } in
  let hits p =
    let cell, bindings = K02.kernel.Kernel.datapath p in
    Option.is_some (Pe_gen.find (Datapath.compile cell bindings))
  in
  Alcotest.(check (pair bool bool)) "defaults hit, match 3 misses" (true, false)
    (hits K02.default, hits miss);
  [ ("generated", K02.default); ("bytecode", miss) ]

(* Every reading starts right after a full major collection: a
   collection inside the measured call inflates the runtime's counters
   (by up to a minor heap's worth of words), so without it a reading
   depends on what the suites before it allocated. *)
let minor_words_of f =
  Gc.full_major ();
  let before = Gc.minor_words () in
  let r = f () in
  ignore (Sys.opaque_identity r);
  int_of_float (Gc.minor_words () -. before)

(* Words [f ()] allocates on both heaps. *)
let words_of f =
  Gc.full_major ();
  let minor0, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let minor1, promoted1, major1 = Gc.counters () in
  int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let test_allocation_regression () =
  let len = 160 in
  let rng = Dphls_util.Rng.create 404 in
  let w =
    Workload.of_bases
      ~query:(Dphls_alphabet.Dna.random rng len)
      ~reference:(Dphls_alphabet.Dna.random rng len)
  in
  let cfg = Dphls_systolic.Config.create ~n_pe:16 in
  List.iter
    (fun (path, p) ->
      let run () = Dphls_systolic.Engine.run cfg K02.kernel p w in
      ignore (run ()) (* warm-up *);
      let compiled = minor_words_of run in
      let cells = len * len in
      Alcotest.(check bool)
        (Printf.sprintf "%s run allocates < 1 word/cell (%d words, %d cells)" path
           compiled cells)
        true (compiled < cells))
    (k02_paths ())

(* The golden engine keeps a ring of score rows and a 2-byte-per-cell
   traceback plane, never the score matrix: a whole unbanded K02 run,
   counting major-heap allocations (the plane) as well as minor ones,
   stays under one word per cell. A full n_layers x q x r score matrix
   alone would be three. The ring and the plane are the domain's,
   reused from the warm-up: a steady-state run allocates less than the
   plane alone would take. *)
let test_golden_allocation () =
  let len = 256 in
  let rng = Dphls_util.Rng.create 405 in
  let w =
    Workload.of_bases
      ~query:(Dphls_alphabet.Dna.random rng len)
      ~reference:(Dphls_alphabet.Dna.random rng len)
  in
  List.iter
    (fun (path, p) ->
      let run () = Dphls_reference.Ref_engine.run K02.kernel p w in
      ignore (run ()) (* warm-up *);
      let words = words_of run in
      let cells = len * len in
      Alcotest.(check bool)
        (Printf.sprintf "golden %s run allocates < 1 word/cell (%d words, %d cells)"
           path words cells)
        true (words < cells);
      let plane_words = 2 * cells / (Sys.word_size / 8) in
      Alcotest.(check bool)
        (Printf.sprintf "golden %s run allocates no plane (%d words, plane %d)" path
           words plane_words)
        true (words < plane_words))
    (k02_paths ())

(* A PE pointer that does not fit the 16-bit traceback plane is an
   error naming the cell, never a silent truncation, and the same error
   from both exact engines: the golden rows, the simulator's waves at
   N_PE 1, 2 and 32, and the simulator through the engine registry. *)
let test_golden_wide_pointer () =
  let module K01 = Dphls_kernels.K01_global_linear in
  (* kernel #1's cell with a 17-bit pointer field that only cell (2,1)
     of ACGT x ACGT — the one G (2) against the one C (1) — fills *)
  let wide =
    {
      K01.kernel with
      Kernel.datapath =
        (fun p ->
          let cell, bindings = K01.kernel.Kernel.datapath p in
          let ptr = (List.hd cell.Datapath.tb_fields).Datapath.value in
          let at_2_1 =
            Datapath.(
              Ite
                ( Eq (Qry 0, Const 2),
                  Ite (Eq (Ref 0, Const 1), Const 0x10000, ptr),
                  ptr ))
          in
          ( { cell with Datapath.tb_fields = [ { bits = 17; value = at_2_1 } ] },
            bindings ));
    }
  in
  let w =
    Workload.of_bases ~query:(Dphls_alphabet.Dna.of_string "ACGT")
      ~reference:(Dphls_alphabet.Dna.of_string "ACGT")
  in
  let refusal =
    Invalid_argument
      "PE traceback pointer 65536 at cell (2,1) does not fit the 16-bit traceback plane"
  in
  Alcotest.check_raises "names the cell" refusal (fun () ->
      ignore (Dphls_reference.Ref_engine.run wide K01.default w));
  List.iter
    (fun n_pe ->
      Alcotest.check_raises
        (Printf.sprintf "simulator at N_PE %d names the cell" n_pe)
        refusal
        (fun () ->
          ignore
            (Dphls_systolic.Engine.run (Dphls_systolic.Config.create ~n_pe) wide K01.default w)))
    [ 1; 2; 32 ];
  Alcotest.check_raises "simulator through the registry names the cell" refusal (fun () ->
      ignore (Dphls_engines.Engines.run_batch (Systolic 32) wide K01.default [| w |]))

(* ------------------------------------------------------------------ *)
(* Catalog-wide differential fuzz: each engine's run of the compiled
   planes is captured cell by cell and replayed through the boxed
   interpreter [Datapath.eval], which must reproduce every recorded cell
   from its recorded neighbours; the two engines must agree cell by cell
   and on the alignment. Ids 16-18 put the adaptive band in the loop:
   the band window is decided from run-time scores, so any score
   divergence would cascade into a different pruned cell set. *)

let prop_compiled_vs_boxed id =
  QCheck.Test.make
    ~name:(Printf.sprintf "kernel #%d compiled == boxed through both engines" id)
    ~count:20
    QCheck.(pair (int_range 8 72) (int_range 1 16))
    (fun (len, n_pe) ->
      let module Capture = Dphls_vectors.Capture in
      let module Replay = Dphls_vectors.Replay in
      let module Stream = Dphls_vectors.Stream in
      let e = Dphls_kernels.Catalog.find id in
      let (Registry.Packed (k, p)) = e.packed in
      let rng = Dphls_util.Rng.create ((id * 733) + (len * 29) + n_pe) in
      let w = e.Dphls_kernels.Catalog.gen rng ~len in
      let check = function
        | Ok _ -> ()
        | Error d -> QCheck.Test.fail_report (Stream.describe d)
      in
      let v_gold, gold = Capture.reference k p ~n_pe w in
      let v_sys, sys = Capture.systolic k p ~n_pe w in
      List.iter (fun v -> check (Replay.run ~evaluator:`Eval k p v)) [ v_gold; v_sys ];
      (match Stream.diff ~expected:v_gold ~actual:v_sys with
      | None -> ()
      | Some d -> QCheck.Test.fail_report (Stream.describe d));
      Result.equal_alignment gold sys)

let differential_tests =
  List.map (fun id -> qtest (prop_compiled_vs_boxed id)) Dphls_kernels.Catalog.ids

(* A steady-state systolic run allocates its per-alignment state only.
   At N_PE 1 every wavefront holds one cell, so one word per wavefront
   or per cell would be [cells] words; the run stays under a quarter of
   that on the minor heap at N_PE 1 and 16, both on K02's generated
   wave and on the generic wave around the bytecode (K02 at a match
   score the table does not hold). The preserved row, a per-alignment
   array of more than a few hundred words, lives on the major heap. *)
let test_systolic_allocation () =
  let len = 256 in
  let rng = Dphls_util.Rng.create 406 in
  let w =
    Workload.of_bases
      ~query:(Dphls_alphabet.Dna.random rng len)
      ~reference:(Dphls_alphabet.Dna.random rng len)
  in
  let waves p =
    let cell, bindings = K02.kernel.Kernel.datapath p in
    Option.is_some (Pe_gen.find_wave (Datapath.compile cell bindings))
  in
  List.iter
    (fun (path, p) ->
      Alcotest.(check bool) (path ^ " wave") (path = "generated") (waves p);
      List.iter
        (fun n_pe ->
          let cfg = Dphls_systolic.Config.create ~n_pe in
          let run () = Dphls_systolic.Engine.run cfg K02.kernel p w in
          ignore (run ()) (* warm-up *);
          let words = minor_words_of run and cells = len * len in
          Alcotest.(check bool)
            (Printf.sprintf "%s wave at N_PE %d allocates %d minor words for %d cells" path
               n_pe words cells)
            true
            (words < cells / 4))
        [ 1; 16 ])
    (k02_paths ())

(* Per-alignment state is sized to the PEs that own a row: an array far
   taller than the query keeps its modeled banks, depth, slots and
   cycles, its result is the same, and it allocates no more than an
   array exactly as tall as the query, which has the same rows: 924
   more PEs cost fewer than 924 more words, where any state sized by
   N_PE would cost at least a word per PE. *)
let test_tall_array_sized_to_rows () =
  let module Engine = Dphls_systolic.Engine in
  let len = 100 in
  let rng = Dphls_util.Rng.create 57 in
  let w =
    Workload.of_bases
      ~query:(Dphls_alphabet.Dna.random rng len)
      ~reference:(Dphls_alphabet.Dna.random rng len)
  in
  let run n_pe = Engine.run (Dphls_systolic.Config.create ~n_pe) K02.kernel K02.default w in
  let words n_pe =
    ignore (run n_pe) (* warm-up *);
    words_of (fun () -> run n_pe)
  in
  let exact = words len and tall = words 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "N_PE 1024 allocates %d words, N_PE %d (the same rows) %d" tall len exact)
    true
    (tall < exact + (1024 - len));
  let r_exact, _ = run len and r1024, s = run 1024 in
  Alcotest.(check bool) "same result" true (r_exact = r1024);
  Alcotest.(check bool) "golden result" true
    (Result.equal_alignment r1024 (Dphls_reference.Ref_engine.run K02.kernel K02.default w));
  (* one chunk of 100 rows: 199 wavefronts of 1024 slots *)
  Alcotest.(check int) "pe_slots" (1024 * (len + len - 1)) s.Engine.pe_slots;
  Alcotest.(check int) "pe_fires" (len * len) s.Engine.pe_fires;
  Alcotest.(check int) "tb_words" (len * len) s.Engine.tb_words;
  let est =
    Engine.cycles_estimate (Dphls_systolic.Config.create ~n_pe:1024) K02.kernel K02.default
      ~qry_len:len ~ref_len:len ~tb_steps:s.Engine.cycles.Engine.traceback
  in
  Alcotest.(check bool) "cycles" true (est = s.Engine.cycles);
  let schedule = Dphls_systolic.Schedule.create ~n_pe:1024 ~qry_len:len ~ref_len:len in
  Alcotest.(check (pair int int)) "modeled banks and depth" (1024, len + 1023)
    (schedule.Dphls_systolic.Schedule.n_pe, Dphls_systolic.Schedule.tb_depth schedule)

(* The golden engine's per-domain ring and plane carry nothing from one
   alignment to the next: in a fresh domain, a long alignment followed
   by short ones and short ones followed by a long one equal runs on
   buffers of their own ([run_full]), on traceback kernels unbanded
   (#2, #3), under a fixed band (#11) and under an adaptive one (#16,
   whose ring holds every row). *)
let test_golden_reuse_equals_fresh () =
  let rng = Dphls_util.Rng.create 408 in
  let dna n = Dphls_alphabet.Dna.random rng n in
  let shapes = [ (150, 140); (10, 12); (3, 40); (40, 3); (1, 1); (60, 61); (140, 150) ] in
  let pairs = List.map (fun (q, r) -> Workload.of_bases ~query:(dna q) ~reference:(dna r)) shapes in
  let check (type p) (k : p Kernel.t) (p : p) =
    List.iteri
      (fun i w ->
        let reused = Dphls_reference.Ref_engine.run k p w in
        let fresh, _ = Dphls_reference.Ref_engine.run_full k p w in
        Alcotest.(check bool)
          (Printf.sprintf "#%d alignment %d on reused buffers == fresh" k.Kernel.id i)
          true (reused = fresh))
      (pairs @ List.rev pairs)
  in
  Domain.join
    (Domain.spawn (fun () ->
         List.iter
           (fun id ->
             let e = Dphls_kernels.Catalog.find id in
             let (Registry.Packed (k, p)) = e.packed in
             check k p)
           [ 2; 3; 11; 16 ]))

(* A workload whose plane is above the retention cap runs on a plane of
   its own: the domain keeps at most the cap of each buffer. *)
let test_golden_buffer_cap () =
  let module Ref_engine = Dphls_reference.Ref_engine in
  let module K01 = Dphls_kernels.K01_global_linear in
  let rng = Dphls_util.Rng.create 409 in
  let pair n =
    Workload.of_bases
      ~query:(Dphls_alphabet.Dna.random rng n)
      ~reference:(Dphls_alphabet.Dna.random rng n)
  in
  let big = 800 in
  let plane = 2 * big * big in
  Alcotest.(check bool) "the big plane is above the cap" true
    (plane > Ref_engine.retain_cap_bytes);
  Domain.join
    (Domain.spawn (fun () ->
         ignore (Ref_engine.run K01.kernel K01.default (pair 64));
         let small = Ref_engine.retained_bytes () in
         Alcotest.(check bool) "a small alignment's buffers are retained" true (small > 0);
         ignore (Ref_engine.run K01.kernel K01.default (pair big));
         let after = Ref_engine.retained_bytes () in
         Alcotest.(check bool)
           (Printf.sprintf "retains %d bytes after a %d-byte plane (cap %d each)" after
              plane Ref_engine.retain_cap_bytes)
           true
           (after <= 2 * Ref_engine.retain_cap_bytes && after < plane)))

(* The simulator stores its pointers in the domain's traceback plane,
   which a warm run reuses, so a steady 256 x 256 #2 alignment allocates
   only its wavefront planes, preserved row and per-PE trackers: under
   a word per eight cells at N_PE 1 and at N_PE 32, where a pointer
   store of its own, a word per pointer, would be a word per cell. *)
let test_systolic_alignment_words () =
  let len = 256 in
  let rng = Dphls_util.Rng.create 410 in
  let w =
    Workload.of_bases
      ~query:(Dphls_alphabet.Dna.random rng len)
      ~reference:(Dphls_alphabet.Dna.random rng len)
  in
  List.iter
    (fun n_pe ->
      let cfg = Dphls_systolic.Config.create ~n_pe in
      let run () = Dphls_systolic.Engine.run cfg K02.kernel K02.default w in
      ignore (run ()) (* warm-up *);
      let words = words_of run and cells = len * len in
      Alcotest.(check bool)
        (Printf.sprintf "N_PE %d allocates %d words for %d cells" n_pe words cells)
        true
        (words < cells / 8))
    [ 1; 32 ]

let suite =
  [
    Alcotest.test_case "Score.mul/abs extremes" `Quick test_score_mul_abs_extremes;
    Alcotest.test_case "Mul/Abs saturate in eval and compiled" `Quick
      test_mul_abs_datapath_saturates;
    Alcotest.test_case "compile folds constants" `Quick test_compile_constant_folding;
    Alcotest.test_case "compile shares subexpressions" `Quick test_compile_cse;
    Alcotest.test_case "compile/exec guards" `Quick test_compile_guards;
    Alcotest.test_case "compiled hot path is allocation-free" `Quick
      test_allocation_regression;
    Alcotest.test_case "golden engine allocates under a word per cell" `Quick
      test_golden_allocation;
    Alcotest.test_case "golden engine rejects pointers wider than 16 bits" `Quick
      test_golden_wide_pointer;
  ]
  @ differential_tests
  @ [
      Alcotest.test_case "systolic engine allocates nothing per wavefront" `Quick
        test_systolic_allocation;
      Alcotest.test_case "tall array sized to its rows" `Quick test_tall_array_sized_to_rows;
      Alcotest.test_case "golden reused buffers == fresh" `Quick
        test_golden_reuse_equals_fresh;
      Alcotest.test_case "golden buffers stay within the cap" `Quick test_golden_buffer_cap;
      Alcotest.test_case "systolic engine allocates under a word per 8 cells" `Quick
        test_systolic_alignment_words;
    ]
