(* Symbolic datapath tests: every catalog kernel's datapath evaluates
   bit-identically through the reference interpreter and the compiled
   program the engines run (the reproduction's C-sim vs RTL co-sim
   check), agrees cell by cell with an independent hand-written closure
   of its recurrence ([Pe_oracles]), validates structurally, and its
   operator counts agree with the declared resource traits to within
   2x. *)
open Dphls_core
module Datapath = Dphls_core.Datapath
module Score = Dphls_util.Score
module Rng = Dphls_util.Rng

let qtest = QCheck_alcotest.to_alcotest

(* PE-level differential: [Datapath.eval] and the compiled program must
   agree on every input. Neighbour layers are random scores of the
   kernel's width with +-inf and the width extremes mixed in; characters
   come from the kernel's own workload generator. *)
let eval_vs_compiled_prop id =
  let e = Dphls_kernels.Catalog.find id in
  let (Registry.Packed (k, p)) = e.packed in
  let n_layers = k.Kernel.n_layers in
  let cell, bindings = k.Kernel.datapath p in
  let eval = Datapath.eval cell bindings in
  let flat = Kernel.flat_pe k p in
  let bound = 1 lsl (k.Kernel.score_bits - 1) in
  let extremes = [| Score.neg_inf; Score.pos_inf; -bound; bound - 1; 0 |] in
  QCheck.Test.make
    ~name:(Printf.sprintf "kernel #%d eval == compiled" id)
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let w = e.Dphls_kernels.Catalog.gen rng ~len:(1 + Rng.int rng 16) in
      let score () =
        if Rng.int rng 4 = 0 then extremes.(Rng.int rng (Array.length extremes))
        else Rng.int rng (2 * bound) - bound
      in
      let layers () = Array.init n_layers (fun _ -> score ()) in
      let buf = Pe.create_buffers ~n_layers in
      List.for_all
        (fun _ ->
          let row = Rng.int rng (Array.length w.Workload.query)
          and col = Rng.int rng (Array.length w.Workload.reference) in
          let input =
            {
              Pe.up = layers ();
              diag = layers ();
              left = layers ();
              qry = w.Workload.query.(row);
              rf = w.Workload.reference.(col);
              row;
              col;
            }
          in
          let o = eval input in
          buf.Pe.b_up <- input.Pe.up;
          buf.Pe.b_diag <- input.Pe.diag;
          buf.Pe.b_left <- input.Pe.left;
          buf.Pe.b_qry <- input.Pe.qry;
          buf.Pe.b_rf <- input.Pe.rf;
          buf.Pe.b_row <- row;
          buf.Pe.b_col <- col;
          flat buf;
          o.Pe.scores = buf.Pe.b_scores && o.Pe.tb = buf.Pe.b_tb)
        [ 1; 2; 3; 4 ])

(* Engine-level differential against the hand-written closure: a golden
   run of the kernel's datapath, replayed cell by cell through the
   closure from the neighbours it recorded, must agree on every layer
   score (and on the pointer when the kernel keeps traceback). *)
let closure_prop id =
  QCheck.Test.make
    ~name:(Printf.sprintf "kernel #%d datapath == closure" id)
    ~count:25
    QCheck.(int_range 4 48)
    (fun len ->
      let e = Dphls_kernels.Catalog.find id in
      let (Registry.Packed (k, p)) = e.packed in
      let rng = Rng.create ((id * 71) + len) in
      let w = e.Dphls_kernels.Catalog.gen rng ~len in
      let v, _ =
        Dphls_vectors.Capture.reference k p ~n_pe:(Array.length w.Workload.query) w
      in
      match Dphls_vectors.Replay.run ~evaluator:(`Pe (Pe_oracles.for_id id)) k p v with
      | Ok n -> n > 0
      | Error d -> QCheck.Test.fail_report (Dphls_vectors.Stream.describe d))

let equivalence_tests =
  List.concat_map
    (fun id -> [ qtest (closure_prop id); qtest (eval_vs_compiled_prop id) ])
    Dphls_kernels.Catalog.ids

let test_all_validate () =
  List.iter
    (fun id ->
      let e = Dphls_kernels.Catalog.find id in
      let cell, _ = Registry.datapath e.packed in
      Datapath.validate cell ~n_layers:(Registry.n_layers e.packed))
    Dphls_kernels.Catalog.ids

let test_tb_widths_match_kernels () =
  List.iter
    (fun id ->
      let e = Dphls_kernels.Catalog.find id in
      let cell, _ = Registry.datapath e.packed in
      let dsl_bits =
        List.fold_left (fun acc f -> acc + f.Datapath.bits) 0 cell.Datapath.tb_fields
      in
      Alcotest.(check int)
        (Printf.sprintf "kernel #%d pointer width" id)
        (Registry.tb_bits e.packed) dsl_bits)
    Dphls_kernels.Catalog.ids

let test_counts_cross_check_traits () =
  List.iter
    (fun id ->
      let e = Dphls_kernels.Catalog.find id in
      let cell, _ = Registry.datapath e.packed in
      let traits = Registry.traits e.packed in
      let c = Datapath.count cell in
      (* declared traits may fold constant additions into DSP cascades
         (e.g. #8) or spend DSPs on adder chains (#9), so the check is a
         consistency band, not equality *)
      Alcotest.(check bool)
        (Printf.sprintf "#%d adders %d ~ trait %d" id c.Datapath.adders
           traits.Traits.adds_per_pe)
        true
        (c.Datapath.adders >= 1
        && c.Datapath.adders <= (4 * traits.Traits.adds_per_pe) + 4
        && traits.Traits.adds_per_pe <= 4 * c.Datapath.adders);
      Alcotest.(check bool)
        (Printf.sprintf "#%d multipliers %d ~ trait %d" id c.Datapath.multipliers
           traits.Traits.muls_per_pe)
        true
        (c.Datapath.multipliers <= (2 * traits.Traits.muls_per_pe) + 2))
    Dphls_kernels.Catalog.ids

let test_eval_guards () =
  let bad = { Datapath.layers = [| Datapath.Param "nope" |]; tb_fields = [] } in
  let pe = Datapath.eval bad { Datapath.params = []; tables = [] } in
  let input =
    {
      Pe.up = [| 0 |]; diag = [| 0 |]; left = [| 0 |];
      qry = [| 0 |]; rf = [| 0 |]; row = 0; col = 0;
    }
  in
  Alcotest.(check bool) "unbound param raises" true
    (try ignore (pe input); false with Invalid_argument _ -> true)

let test_validate_guards () =
  let cur_in_gap_layer =
    { Datapath.layers = [| Datapath.Const 0; Datapath.Cur 2; Datapath.Const 0 |];
      tb_fields = [] }
  in
  Alcotest.(check bool) "Cur in gap layer rejected" true
    (try Datapath.validate cur_in_gap_layer ~n_layers:3; false
     with Invalid_argument _ -> true);
  let bad_layer = { Datapath.layers = [| Datapath.Up 5 |]; tb_fields = [] } in
  Alcotest.(check bool) "layer out of range rejected" true
    (try Datapath.validate bad_layer ~n_layers:1; false
     with Invalid_argument _ -> true)

let test_select_first_best_semantics () =
  (* the first candidate attaining the optimum wins *)
  let mk values =
    let cands = List.mapi (fun i v -> (Datapath.Const v, i)) values in
    let expr =
      Dphls_kernels.Cells.select_first_best ~objective:Dphls_util.Score.Maximize
        cands
    in
    let pe =
      Datapath.eval
        { Datapath.layers = [| Datapath.Const 0 |]; tb_fields = [ { bits = 4; value = expr } ] }
        { Datapath.params = []; tables = [] }
    in
    let input =
      { Pe.up = [| 0 |]; diag = [| 0 |]; left = [| 0 |]; qry = [| 0 |]; rf = [| 0 |];
        row = 0; col = 0 }
    in
    (pe input).Pe.tb
  in
  Alcotest.(check int) "first wins ties" 0 (mk [ 5; 5; 5 ]);
  Alcotest.(check int) "strictly better later wins" 2 (mk [ 1; 2; 3 ]);
  Alcotest.(check int) "middle winner" 1 (mk [ 1; 7; 7 ]);
  Alcotest.(check int) "first max wins" 0 (mk [ 9; 7; 9 ])

let suite =
  equivalence_tests
  @ [
      Alcotest.test_case "all datapaths validate" `Quick test_all_validate;
      Alcotest.test_case "pointer widths match" `Quick test_tb_widths_match_kernels;
      Alcotest.test_case "counts cross-check traits" `Quick test_counts_cross_check_traits;
      Alcotest.test_case "eval guards" `Quick test_eval_guards;
      Alcotest.test_case "validate guards" `Quick test_validate_guards;
      Alcotest.test_case "select_first_best semantics" `Quick
        test_select_first_best_semantics;
    ]
