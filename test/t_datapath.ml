(* Symbolic datapath tests: every catalog kernel's datapath evaluates
   bit-identically through the reference interpreter, the generated
   straight-line evaluator, the compiled program's bytecode loop (the
   reproduction's C-sim vs RTL co-sim check), the row loops the golden
   engine runs and the wave loops the systolic engine runs (generated
   and generic), hits the generated table while programs outside it
   still run the bytecode,
   agrees cell by cell with an independent hand-written closure of its
   recurrence ([Pe_oracles]), validates structurally, and its operator
   counts agree with the declared resource traits to within 2x. *)
open Dphls_core
module Datapath = Dphls_core.Datapath
module Score = Dphls_util.Score
module Rng = Dphls_util.Rng

let qtest = QCheck_alcotest.to_alcotest

(* Random scores of width [score_bits], with +-inf and the width
   extremes mixed in. *)
let random_score rng ~score_bits =
  let bound = 1 lsl (score_bits - 1) in
  let extremes = [| Score.neg_inf; Score.pos_inf; -bound; bound - 1; 0 |] in
  fun () ->
    if Rng.int rng 4 = 0 then extremes.(Rng.int rng (Array.length extremes))
    else Rng.int rng (2 * bound) - bound

(* PE-level differential: every flat evaluator in [flats] must agree
   with [Datapath.eval] on four random cells. Neighbour layers are
   random scores ([random_score]); characters come from a workload of
   [gen]. *)
let agrees_with_eval ~gen ~score_bits ~n_layers eval flats seed =
  let rng = Rng.create seed in
  let w = gen rng ~len:(1 + Rng.int rng 16) in
  let score = random_score rng ~score_bits in
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
      List.for_all
        (fun flat ->
          (* sentinels: an output the evaluator fails to write shows *)
          Array.fill buf.Pe.b_scores 0 n_layers min_int;
          buf.Pe.b_tb <- -1;
          flat buf;
          o.Pe.scores = buf.Pe.b_scores && o.Pe.tb = buf.Pe.b_tb)
        flats)
    [ 1; 2; 3; 4 ]

(* Row-level differential: every row evaluator in [rows], run over a
   random interval [lo .. hi] of one row of a three-row ring of random
   scores ([random_score]), must leave the ring and the traceback plane
   exactly as [Datapath.eval] applied cell by cell in column order
   leaves them: each cell reads up and diag from the row above and left
   from its own row (the previous cell's output past [lo]), writes its
   layers at its own slot and its pointer at its plane entry, and
   nothing else changes. [lo > 0] and [hi < ref_len - 1], so both ends
   border cells the call must not touch; the plane starts as random
   bytes, and every run is repeated without a plane. [scores] draws the
   ring's scores (default [random_score]). *)
let row_agrees_with_eval ?(scores = random_score) ~gen ~score_bits ~n_layers eval rows seed =
  let rng = Rng.create (seed + 1_000_003) in
  let rec draw len =
    let w = gen rng ~len in
    if Array.length w.Workload.reference >= 3 then w else draw (len + 4)
  in
  let w = draw (3 + Rng.int rng 16) in
  let query = w.Workload.query and reference = w.Workload.reference in
  let qry_len = Array.length query and ref_len = Array.length reference in
  let score = scores rng ~score_bits in
  let stride = (ref_len + 1) * n_layers in
  let ring0 = Array.init (3 * stride) (fun _ -> score ()) in
  let slot = Rng.int rng 3 in
  let above = slot * stride and base = (slot + 1 + Rng.int rng 2) mod 3 * stride in
  let row = Rng.int rng qry_len in
  let lo = 1 + Rng.int rng (ref_len - 2) in
  let hi = lo + Rng.int rng (ref_len - 1 - lo) in
  let expected = Array.copy ring0 in
  let plane0 = Bytes.init (2 * qry_len * ref_len) (fun _ -> Char.chr (Rng.int rng 256)) in
  let plane = Bytes.copy plane0 in
  for col = lo to hi do
    let layers at = Array.sub expected at n_layers in
    let u = above + ((col + 1) * n_layers) and at = base + ((col + 1) * n_layers) in
    let o =
      eval
        {
          Pe.up = layers u;
          diag = layers (u - n_layers);
          left = layers (at - n_layers);
          qry = query.(row);
          rf = reference.(col);
          row;
          col;
        }
    in
    Array.blit o.Pe.scores 0 expected at n_layers;
    Bytes.set_uint16_le plane (2 * ((row * ref_len) + col)) o.Pe.tb
  done;
  List.for_all
    (fun (f : Pe.row) ->
      List.for_all
        (fun (tb, want) ->
          let ring = Array.copy ring0 in
          f ~ring ~above ~base ~qry:query.(row) ~reference ~tb ~row ~lo ~hi;
          ring = expected && Bytes.equal tb want)
        [ (Bytes.copy plane0, plane); (Bytes.empty, Bytes.empty) ])
    rows

(* Wave-level differential: every wave evaluator in [waves], run over a
   random PE interval [lo .. hi] of three random planes ([random_score])
   and a random traceback plane over query x reference, must leave the
   planes and the traceback plane exactly as [Datapath.eval] applied PE
   by PE leaves them: PE [p] reads up and diag from slot [p] of the
   previous two planes and left from slot [p + 1] of the previous one,
   writes its layers at slot [p + 1] of the new plane and its pointer at
   its cell [(row0 + p, wavefront - p)] of the traceback plane, and
   nothing else changes (the planes have a slot past [hi + 1], and
   slots below [lo] when [lo > 0]). Every run is repeated without a
   traceback plane. [scores] draws the planes' scores (default
   [random_score]). *)
let wave_agrees_with_eval ?(scores = random_score) ~gen ~score_bits ~n_layers eval waves seed =
  let rng = Rng.create (seed + 2_000_003) in
  let w = gen rng ~len:(2 + Rng.int rng 16) in
  let query = w.Workload.query and reference = w.Workload.reference in
  let qry_len = Array.length query and ref_len = Array.length reference in
  let score = scores rng ~score_bits in
  (* a run of up to 8 PEs that fits the matrix: rows row0 + lo .. row0 +
     hi of the query, columns wavefront - hi .. wavefront - lo *)
  let width = 1 + Rng.int rng (min 8 (min qry_len ref_len)) in
  let lo = Rng.int rng 3 in
  let hi = lo + width - 1 in
  let row0 = Rng.int rng (qry_len - width + 1) - lo in
  let wavefront = hi + Rng.int rng (ref_len - width + 1) in
  let slots = hi + 3 in
  let plane () = Array.init (slots * n_layers) (fun _ -> score ()) in
  let w1 = plane () and w2 = plane () and w_new0 = plane () in
  let tb0 = Bytes.init (2 * qry_len * ref_len) (fun _ -> Char.chr (Rng.int rng 256)) in
  let expected = Array.copy w_new0 and expected_tb = Bytes.copy tb0 in
  for p = lo to hi do
    let layers plane slot = Array.sub plane (slot * n_layers) n_layers in
    let row = row0 + p and col = wavefront - p in
    let o =
      eval
        {
          Pe.up = layers w1 p;
          diag = layers w2 p;
          left = layers w1 (p + 1);
          qry = query.(row);
          rf = reference.(col);
          row;
          col;
        }
    in
    Array.blit o.Pe.scores 0 expected ((p + 1) * n_layers) n_layers;
    Bytes.set_uint16_le expected_tb (2 * ((row * ref_len) + col)) o.Pe.tb
  done;
  let w1_0 = Array.copy w1 and w2_0 = Array.copy w2 in
  List.for_all
    (fun (f : Pe.wave) ->
      List.for_all
        (fun (tb, want) ->
          let w_new = Array.copy w_new0 in
          f ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi;
          w_new = expected && Bytes.equal tb want && w1 = w1_0 && w2 = w2_0)
        [ (Bytes.copy tb0, expected_tb); (Bytes.empty, Bytes.empty) ])
    waves

(* [Datapath.eval], what the engines run ([Kernel.flat_row] and
   [Kernel.flat_wave]: for a catalog kernel at its defaults, the
   generated row and wave loops), the generated straight-line PE
   ([Kernel.flat_pe]), the bytecode loop and the generic row and wave
   around it must agree on every input. *)
let eval_vs_compiled_prop id =
  let e = Dphls_kernels.Catalog.find id in
  let (Registry.Packed (k, p)) = e.packed in
  let cell, bindings = k.Kernel.datapath p in
  let n_layers = k.Kernel.n_layers and score_bits = k.Kernel.score_bits in
  let gen = e.Dphls_kernels.Catalog.gen and eval = Datapath.eval cell bindings in
  let bytecode () = Datapath.flat (Datapath.compile cell bindings) in
  let flats = [ Kernel.flat_pe k p; bytecode () ] in
  let rows = [ Kernel.flat_row k p; Pe.row_of_flat ~n_layers (bytecode ()) ] in
  let waves = [ Kernel.flat_wave k p; Pe.wave_of_flat ~n_layers (bytecode ()) ] in
  QCheck.Test.make
    ~name:(Printf.sprintf "kernel #%d eval == compiled" id)
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      agrees_with_eval ~gen ~score_bits ~n_layers eval flats seed
      && row_agrees_with_eval ~gen ~score_bits ~n_layers eval rows seed
      && wave_agrees_with_eval ~gen ~score_bits ~n_layers eval waves seed)

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

(* Every catalog kernel at its default parameters compiles to a program
   the generated table holds, PE, row and wave, so the engines never run
   its bytecode. *)
let test_generated_covers_catalog () =
  List.iter
    (fun id ->
      let cell, bindings = Registry.datapath (Dphls_kernels.Catalog.find id).packed in
      let p = Datapath.compile cell bindings in
      Alcotest.(check bool)
        (Printf.sprintf "kernel #%d hits the generated table" id)
        true
        (Option.is_some (Pe_gen.find p)
        && Option.is_some (Pe_gen.find_row p)
        && Option.is_some (Pe_gen.find_wave p)))
    Dphls_kernels.Catalog.ids

(* Programs the table does not hold run the bytecode, PE and generic
   row and wave, and still equal [Datapath.eval]: #2 at a non-default match score
   (an immediate differs), and #19's cell with a 1-bit match-flag
   pointer, which no catalog kernel has (#19 keeps no pointer). *)
let test_generated_misses () =
  let module K02 = Dphls_kernels.K02_global_affine in
  let module K19 = Dphls_kernels.K19_global_edit in
  let edit_with_ptr =
    {
      K19.kernel with
      Kernel.datapath =
        (fun p ->
          let cell, bindings = K19.kernel.Kernel.datapath p in
          let flag = Datapath.(Ite (Eq (Qry 0, Ref 0), Const 1, Const 0)) in
          ({ cell with Datapath.tb_fields = [ { bits = 1; value = flag } ] }, bindings));
    }
  in
  let check name k p gen =
    let cell, bindings = k.Kernel.datapath p in
    let program = Datapath.compile cell bindings in
    Alcotest.(check bool) (name ^ " misses the generated table") true
      (Option.is_none (Pe_gen.find program)
      && Option.is_none (Pe_gen.find_row program)
      && Option.is_none (Pe_gen.find_wave program));
    let score_bits = k.Kernel.score_bits and n_layers = k.Kernel.n_layers in
    let eval = Datapath.eval cell bindings in
    for seed = 0 to 199 do
      Alcotest.(check bool)
        (Printf.sprintf "%s: flat_pe == eval (seed %d)" name seed)
        true
        (agrees_with_eval ~gen ~score_bits ~n_layers eval [ Kernel.flat_pe k p ] seed);
      Alcotest.(check bool)
        (Printf.sprintf "%s: flat_row == eval (seed %d)" name seed)
        true
        (row_agrees_with_eval ~gen ~score_bits ~n_layers eval [ Kernel.flat_row k p ] seed);
      Alcotest.(check bool)
        (Printf.sprintf "%s: flat_wave == eval (seed %d)" name seed)
        true
        (wave_agrees_with_eval ~gen ~score_bits ~n_layers eval [ Kernel.flat_wave k p ] seed)
    done
  in
  check "#2 at match 3" K02.kernel { K02.default with match_ = 3 } K02.gen;
  check "#19 with a pointer" edit_with_ptr K19.default K19.gen

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

(* The saturation edges: 0, +-1, +-2, +-100, +-2^58 and +-2^59 (the
   fast path's bound and the half-bands' magnitude) and the half-bands
   themselves with +-1 around each, the sentinels, one past them, and
   the int extremes, each also +-3 (wrapping at the extremes). *)
let edge_grid =
  let around x = [ x - 1; x; x + 1 ] in
  let base =
    [ 0; 1; -1; 2; -2; 100; -100 ]
    @ List.concat_map around
        [ 1 lsl 58; -(1 lsl 58); 1 lsl 59; -(1 lsl 59); Score.neg_inf / 2; Score.pos_inf / 2 ]
    @ [ Score.neg_inf; Score.pos_inf; Score.neg_inf - 1; Score.pos_inf + 1 ]
    @ [ min_int; max_int; min_int + 1; max_int - 1 ]
  in
  Array.of_list (List.sort_uniq compare (List.concat_map (fun x -> [ x - 3; x; x + 3 ]) base))

let finite x = not (Score.is_neg_inf x || Score.is_pos_inf x)

(* Both fast paths against [Score.add]: every pair of the edge grid, the
   one-operand form for every finite second operand of it, and random
   pairs at every magnitude (a random word shifted right by 0 .. 62). *)
let test_sat_add_fast_paths () =
  let checked = ref 0 in
  let check a b =
    let want = Score.add a b in
    if Datapath.sat_add a b <> want then Alcotest.failf "sat_add %d %d <> Score.add" a b;
    if finite b && Datapath.sat_add_finite a b <> want then
      Alcotest.failf "sat_add_finite %d %d <> Score.add" a b;
    incr checked
  in
  Array.iter (fun a -> Array.iter (check a) edge_grid) edge_grid;
  let rng = Rng.create 58 in
  let draw () = Int64.to_int (Rng.int64 rng) asr Rng.int rng 63 in
  for _ = 1 to 1_000_000 do
    check (draw ()) (draw ())
  done;
  Alcotest.(check bool) "cases" true (!checked > 1_000_000)

(* The row and wave differentials with every ring and plane score drawn
   from the edge grid, where [random_score] draws only the sentinels,
   the width extremes and uniform values: cells whose operands sit on
   either side of the fast paths' bound. *)
let edge_scores rng ~score_bits:_ () = edge_grid.(Rng.int rng (Array.length edge_grid))

let edge_prop id =
  let e = Dphls_kernels.Catalog.find id in
  let (Registry.Packed (k, p)) = e.packed in
  let cell, bindings = k.Kernel.datapath p in
  let n_layers = k.Kernel.n_layers and score_bits = k.Kernel.score_bits in
  let gen = e.Dphls_kernels.Catalog.gen and eval = Datapath.eval cell bindings in
  let bytecode () = Datapath.flat (Datapath.compile cell bindings) in
  let rows = [ Kernel.flat_row k p; Pe.row_of_flat ~n_layers (bytecode ()) ] in
  let waves = [ Kernel.flat_wave k p; Pe.wave_of_flat ~n_layers (bytecode ()) ] in
  QCheck.Test.make
    ~name:(Printf.sprintf "kernel #%d rows and waves == eval at the saturation edges" id)
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      row_agrees_with_eval ~scores:edge_scores ~gen ~score_bits ~n_layers eval rows seed
      && wave_agrees_with_eval ~scores:edge_scores ~gen ~score_bits ~n_layers eval waves seed)

(* A generated row carries left and diag over from the cell before, so
   a call whose row above overlaps the row it writes is refused, the
   generic row's too. *)
let test_row_overlap_guard () =
  let module K02 = Dphls_kernels.K02_global_affine in
  let n_layers = K02.kernel.Kernel.n_layers in
  let w = K02.gen (Rng.create 5) ~len:8 in
  let reference = w.Workload.reference in
  let stride = (Array.length reference + 1) * n_layers in
  let ring = Array.make (3 * stride) 0 and tb = Bytes.empty in
  let cell, bindings = K02.kernel.Kernel.datapath K02.default in
  let rows =
    [
      ("generated", Kernel.flat_row K02.kernel K02.default);
      ("generic", Pe.row_of_flat ~n_layers (Datapath.flat (Datapath.compile cell bindings)));
    ]
  in
  List.iter
    (fun (name, (f : Pe.row)) ->
      List.iter
        (fun above ->
          Alcotest.(check bool)
            (Printf.sprintf "%s row, above at %d over base at %d: refused" name above stride)
            true
            (try
               f ~ring ~above ~base:stride ~qry:w.Workload.query.(0) ~reference ~tb ~row:0
                 ~lo:0 ~hi:3;
               false
             with Invalid_argument _ -> true))
        [ stride; stride - n_layers; stride + (2 * n_layers) ];
      f ~ring ~above:0 ~base:stride ~qry:w.Workload.query.(0) ~reference ~tb ~row:0 ~lo:0 ~hi:3)
    rows

let suite =
  equivalence_tests
  @ [
      Alcotest.test_case "all datapaths validate" `Quick test_all_validate;
      Alcotest.test_case "pointer widths match" `Quick test_tb_widths_match_kernels;
      Alcotest.test_case "counts cross-check traits" `Quick test_counts_cross_check_traits;
      Alcotest.test_case "generated PE table holds every catalog kernel" `Quick
        test_generated_covers_catalog;
      Alcotest.test_case "generated PE misses run the bytecode" `Quick
        test_generated_misses;
      Alcotest.test_case "eval guards" `Quick test_eval_guards;
      Alcotest.test_case "validate guards" `Quick test_validate_guards;
      Alcotest.test_case "select_first_best semantics" `Quick
        test_select_first_best_semantics;
      Alcotest.test_case "sat_add fast paths == Score.add" `Quick test_sat_add_fast_paths;
    ]
  @ List.map (fun id -> qtest (edge_prop id)) Dphls_kernels.Catalog.ids
  @ [ Alcotest.test_case "row overlap guard" `Quick test_row_overlap_guard ]
