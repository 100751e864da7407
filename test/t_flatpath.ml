(* Compiled flat datapath tests: saturating Mul/Abs at width-62 extremes,
   compile-pass structure (CSE, constant folding, strict binding), an
   allocation regression pinning the O(1)-words-per-wavefront property of
   the compiled hot path, the golden engine's under-a-word-per-cell
   allocation and its 16-bit pointer guard, and a catalog-wide
   differential fuzz of the compiled planes both engines run against the
   boxed interpreter. *)
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
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Allocation regression: the systolic wavefront loop with a compiled
   datapath must allocate O(1) minor words per run — strictly less than
   one word per cell (an interpreted PE boxes input/output records and
   score arrays per cell). *)

let minor_words_of f =
  let before = Gc.minor_words () in
  let r = f () in
  ignore (Sys.opaque_identity r);
  int_of_float (Gc.minor_words () -. before)

let test_allocation_regression () =
  let module K02 = Dphls_kernels.K02_global_affine in
  let len = 160 in
  let rng = Dphls_util.Rng.create 404 in
  let w =
    Workload.of_bases
      ~query:(Dphls_alphabet.Dna.random rng len)
      ~reference:(Dphls_alphabet.Dna.random rng len)
  in
  let cfg = Dphls_systolic.Config.create ~n_pe:16 in
  let run k = Dphls_systolic.Engine.run cfg k K02.default w in
  ignore (run K02.kernel) (* warm-up *);
  let compiled = minor_words_of (fun () -> run K02.kernel) in
  let cells = len * len in
  Alcotest.(check bool)
    (Printf.sprintf "compiled run allocates < 1 word/cell (%d words, %d cells)"
       compiled cells)
    true (compiled < cells)

(* The golden engine keeps a ring of score rows and a 2-byte-per-cell
   traceback plane, never the score matrix: a whole unbanded K02 run,
   counting major-heap allocations (the plane) as well as minor ones,
   stays under one word per cell. A full n_layers x q x r score matrix
   alone would be three. *)
let test_golden_allocation () =
  let module K02 = Dphls_kernels.K02_global_affine in
  let len = 256 in
  let rng = Dphls_util.Rng.create 405 in
  let w =
    Workload.of_bases
      ~query:(Dphls_alphabet.Dna.random rng len)
      ~reference:(Dphls_alphabet.Dna.random rng len)
  in
  let run () = Dphls_reference.Ref_engine.run K02.kernel K02.default w in
  ignore (run ()) (* warm-up *);
  let minor0, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (run ()));
  let minor1, promoted1, major1 = Gc.counters () in
  let words =
    int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  in
  let cells = len * len in
  Alcotest.(check bool)
    (Printf.sprintf "golden run allocates < 1 word/cell (%d words, %d cells)" words
       cells)
    true (words < cells)

(* A PE pointer that does not fit the golden engine's 16-bit traceback
   plane is an error naming the cell, never a silent truncation. *)
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
  Alcotest.check_raises "names the cell"
    (Invalid_argument
       "Ref_engine: PE traceback pointer 65536 at cell (2,1) does not fit the \
        16-bit traceback plane")
    (fun () -> ignore (Dphls_reference.Ref_engine.run wide K01.default w))

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
