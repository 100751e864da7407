(* Tests for the front-end core: banding, best-cell tracking, the
   traceback walker, rescoring and the kernel registry. *)
open Dphls_core
module Score = Dphls_util.Score

let qtest = QCheck_alcotest.to_alcotest

let test_banding () =
  let b = Some (Banding.fixed 2) in
  Alcotest.(check bool) "on diagonal" true (Banding.in_band b ~row:5 ~col:5);
  Alcotest.(check bool) "edge in" true (Banding.in_band b ~row:5 ~col:7);
  Alcotest.(check bool) "outside" false (Banding.in_band b ~row:5 ~col:8);
  Alcotest.(check bool) "virtual border follows rule" true
    (Banding.in_band b ~row:(-1) ~col:1);
  Alcotest.(check bool) "unbanded" true (Banding.in_band None ~row:0 ~col:999);
  Alcotest.(check int) "cells 3x3 band1"
    (3 * 3 - 2)
    (Banding.cells_in_band (Some (Banding.fixed 1)) ~qry_len:3 ~ref_len:3);
  Alcotest.check_raises "width 0 invalid"
    (Invalid_argument "Banding.fixed: width must be >= 1") (fun () ->
      ignore (Banding.fixed 0))

let test_banding_adaptive () =
  let a = Banding.adaptive ~threshold:7 3 in
  Alcotest.(check int) "width accessor" 3 (Banding.width a);
  Alcotest.(check int) "fixed width accessor" 5 (Banding.width (Banding.fixed 5));
  (match Banding.adaptive 4 with
  | Banding.Adaptive { width; threshold } ->
    Alcotest.(check int) "default width kept" 4 width;
    Alcotest.(check int) "default threshold" Banding.default_threshold threshold
  | Banding.Fixed _ -> Alcotest.fail "adaptive built a Fixed band");
  Alcotest.check_raises "adaptive width 0 invalid"
    (Invalid_argument "Banding.adaptive: width must be >= 1") (fun () ->
      ignore (Banding.adaptive 0));
  Alcotest.check_raises "negative threshold invalid"
    (Invalid_argument "Banding.adaptive: threshold must be >= 0") (fun () ->
      ignore (Banding.adaptive ~threshold:(-1) 4));
  (* static membership is undefined for adaptive bands: the window is a
     run-time quantity, so the predicate must refuse, not guess *)
  Alcotest.(check bool) "in_band refuses adaptive" true
    (try
       ignore (Banding.in_band (Some a) ~row:0 ~col:0);
       false
     with Invalid_argument _ -> true);
  (* the adaptive envelope equals the fixed band of the same width *)
  Alcotest.(check int) "envelope = fixed cells"
    (Banding.cells_in_band (Some (Banding.fixed 3)) ~qry_len:9 ~ref_len:7)
    (Banding.cells_in_band (Some a) ~qry_len:9 ~ref_len:7)

let prop_cells_in_band_matches_loop =
  QCheck.Test.make ~name:"cells_in_band equals nested-loop oracle" ~count:300
    QCheck.(triple (int_range 1 40) (int_range 1 40) (int_range 1 50))
    (fun (q, r, width) ->
      let counted = ref 0 in
      for row = 0 to q - 1 do
        for col = 0 to r - 1 do
          if abs (row - col) <= width then incr counted
        done
      done;
      Banding.cells_in_band (Some (Banding.fixed width)) ~qry_len:q ~ref_len:r
      = !counted
      && Banding.cells_in_band None ~qry_len:q ~ref_len:r = q * r)

let test_best_cell_tie_break () =
  let t = Traceback.Best_cell.create Score.Maximize in
  Traceback.Best_cell.observe t { Types.row = 3; col = 1 } 10;
  Traceback.Best_cell.observe t { Types.row = 1; col = 5 } 10;
  Traceback.Best_cell.observe t { Types.row = 1; col = 2 } 10;
  (match Traceback.Best_cell.get t with
  | Some (c, s) ->
    Alcotest.(check int) "score" 10 s;
    Alcotest.(check bool) "lowest (row,col) wins ties" true
      (c.Types.row = 1 && c.Types.col = 2)
  | None -> Alcotest.fail "no best cell");
  Traceback.Best_cell.observe t { Types.row = 9; col = 9 } 11;
  match Traceback.Best_cell.get t with
  | Some (c, s) ->
    Alcotest.(check int) "better score replaces" 11 s;
    Alcotest.(check int) "row" 9 c.Types.row
  | None -> Alcotest.fail "no best cell"

let test_best_cell_merge_order_independent () =
  let mk obs =
    let t = Traceback.Best_cell.create Score.Maximize in
    List.iter (fun (r, c, s) -> Traceback.Best_cell.observe t { Types.row = r; col = c } s) obs;
    t
  in
  let a = mk [ (0, 3, 5); (2, 2, 7) ] and b = mk [ (1, 1, 7) ] in
  let m1 = Traceback.Best_cell.merge a b and m2 = Traceback.Best_cell.merge b a in
  Alcotest.(check bool) "merge commutes" true
    (Traceback.Best_cell.get m1 = Traceback.Best_cell.get m2);
  match Traceback.Best_cell.get m1 with
  | Some (c, 7) -> Alcotest.(check bool) "tie to (1,1)" true (c.Types.row = 1 && c.Types.col = 1)
  | _ -> Alcotest.fail "unexpected merge result"

let test_best_cell_minimize () =
  let t = Traceback.Best_cell.create Score.Minimize in
  Traceback.Best_cell.observe t { Types.row = 0; col = 0 } 5;
  Traceback.Best_cell.observe t { Types.row = 1; col = 1 } 2;
  match Traceback.Best_cell.get t with
  | Some (_, s) -> Alcotest.(check int) "min kept" 2 s
  | None -> Alcotest.fail "no best cell"

(* A toy FSM that always walks diagonally. *)
let diag_fsm =
  {
    Traceback.n_states = 1;
    start_state = 0;
    transition = (fun _ ~ptr:_ -> (0, Traceback.Diag));
  }

let test_walker_global_completion () =
  (* from (1,3), two Diags reach (-1,1): At_origin must complete with
     2 insertions for the remaining reference prefix *)
  let outcome =
    Walker.walk ~fsm:diag_fsm ~stop:Traceback.At_origin
      ~ptr_at:(fun ~row:_ ~col:_ -> 0)
      ~start:{ Types.row = 1; col = 3 } ~qry_len:2 ~ref_len:4 ()
  in
  Alcotest.(check int) "path length" 4 (List.length outcome.Walker.path);
  Alcotest.(check bool) "prefix insertions" true
    (match outcome.Walker.path with
    | [ Traceback.Ins; Traceback.Ins; Traceback.Mmi; Traceback.Mmi ] -> true
    | _ -> false)

let test_walker_semi_global_stops_at_top () =
  let outcome =
    Walker.walk ~fsm:diag_fsm ~stop:Traceback.At_top_row
      ~ptr_at:(fun ~row:_ ~col:_ -> 0)
      ~start:{ Types.row = 1; col = 3 } ~qry_len:2 ~ref_len:4 ()
  in
  (* no completion: reference prefix is clipped *)
  Alcotest.(check int) "only consuming moves" 2 (List.length outcome.Walker.path)

let test_walker_stop_move () =
  let fsm =
    {
      Traceback.n_states = 1;
      start_state = 0;
      transition =
        (fun _ ~ptr -> if ptr = 3 then (0, Traceback.Stop) else (0, Traceback.Diag));
    }
  in
  let outcome =
    Walker.walk ~fsm ~stop:Traceback.On_stop_move
      ~ptr_at:(fun ~row ~col -> if row = 1 && col = 1 then 3 else 0)
      ~start:{ Types.row = 3; col = 3 } ~qry_len:4 ~ref_len:4 ()
  in
  Alcotest.(check int) "stopped after 2 diags" 2 (List.length outcome.Walker.path);
  Alcotest.(check bool) "end at stop cell" true
    (outcome.Walker.end_cell = { Types.row = 1; col = 1 })

let test_walker_stay_loop_detected () =
  let fsm =
    {
      Traceback.n_states = 1;
      start_state = 0;
      transition = (fun _ ~ptr:_ -> (0, Traceback.Stay));
    }
  in
  Alcotest.(check bool) "raises on stay loop" true
    (try
       ignore
         (Walker.walk ~fsm ~stop:Traceback.At_origin
            ~ptr_at:(fun ~row:_ ~col:_ -> 0)
            ~start:{ Types.row = 3; col = 3 } ~qry_len:4 ~ref_len:4 ());
       false
     with Failure _ -> true)

let test_rescore_linear () =
  let query = Types.seq_of_bases [| 0; 1; 2 |] in
  let reference = Types.seq_of_bases [| 0; 1; 3 |] in
  let sub q r = if Types.equal_ch q r then 2 else -1 in
  let score =
    Rescore.linear ~sub ~gap:(-2) ~query ~reference ~start_row:0 ~start_col:0
      [ Traceback.Mmi; Traceback.Mmi; Traceback.Mmi ]
  in
  Alcotest.(check int) "2+2-1" 3 score

let test_rescore_affine_gap_runs () =
  let query = Types.seq_of_bases [| 0; 0; 0 |] in
  let reference = Types.seq_of_bases [| 0; 0; 0; 0; 0 |] in
  let sub _ _ = 1 in
  (* M I I M M : one insertion run of length 2 *)
  let score =
    Rescore.affine ~sub ~gap_open:(-5) ~gap_extend:(-1) ~query ~reference
      ~start_row:0 ~start_col:0
      [ Traceback.Mmi; Traceback.Ins; Traceback.Ins; Traceback.Mmi; Traceback.Mmi ]
  in
  Alcotest.(check int) "3 matches - (5+2)" (-4) score;
  (* two separate runs cost two opens *)
  let score2 =
    Rescore.affine ~sub ~gap_open:(-5) ~gap_extend:(-1) ~query ~reference
      ~start_row:0 ~start_col:0
      [ Traceback.Mmi; Traceback.Ins; Traceback.Mmi; Traceback.Ins; Traceback.Mmi ]
  in
  Alcotest.(check int) "3 matches - 2*(5+1)" (-9) score2

let test_rescore_two_piece_picks_best () =
  let query = Types.seq_of_bases [| 0 |] in
  let reference = Types.seq_of_bases (Array.make 11 0) in
  let sub _ _ = 0 in
  let path = Traceback.Mmi :: List.init 10 (fun _ -> Traceback.Ins) in
  let score =
    Rescore.two_piece ~sub ~open1:(-4) ~extend1:(-2) ~open2:(-24) ~extend2:(-1)
      ~query ~reference ~start_row:0 ~start_col:0 path
  in
  (* gap of 10: piece1 = -24, piece2 = -34 -> -24 *)
  Alcotest.(check int) "best piece" (-24) score

let test_rescore_overrun () =
  let query = Types.seq_of_bases [| 0 |] in
  let reference = Types.seq_of_bases [| 0 |] in
  Alcotest.(check bool) "overrun raises" true
    (try
       ignore
         (Rescore.linear
            ~sub:(fun _ _ -> 0)
            ~gap:(-1) ~query ~reference ~start_row:0 ~start_col:0
            [ Traceback.Mmi; Traceback.Mmi ]);
       false
     with Invalid_argument _ -> true)

let test_result_cigar () =
  let r =
    {
      Result.score = 5;
      start_cell = None;
      end_cell = None;
      path = [ Traceback.Mmi; Traceback.Mmi; Traceback.Ins; Traceback.Mmi; Traceback.Del ];
      cells_computed = 0;
      tb_steps = 0;
    }
  in
  Alcotest.(check string) "cigar" "2M1I1M1D" (Result.cigar r);
  Alcotest.(check bool) "consumes" true (Result.path_consumes r = (4, 4))

let test_registry_all_valid () =
  List.iter
    (fun (e : Dphls_kernels.Catalog.entry) -> Registry.validate e.packed)
    Dphls_kernels.Catalog.all;
  Alcotest.(check int) "19 kernels" 19 (List.length Dphls_kernels.Catalog.all);
  Alcotest.(check (list int)) "ids 1..19" (List.init 19 (fun i -> i + 1))
    Dphls_kernels.Catalog.ids

let test_registry_lookup () =
  let e = Dphls_kernels.Catalog.find_by_name "dtw" in
  Alcotest.(check int) "dtw is #9" 9 (Registry.id e.packed);
  Alcotest.(check bool) "find raises" true
    (try
       ignore (Dphls_kernels.Catalog.find 99);
       false
     with Not_found -> true)

let test_kernel_validation_guards () =
  let k = Dphls_kernels.K01_global_linear.kernel in
  let bad = { k with Kernel.n_layers = 0 } in
  Alcotest.(check bool) "n_layers 0 invalid" true
    (try
       Kernel.validate bad Dphls_kernels.K01_global_linear.default;
       false
     with Invalid_argument _ -> true);
  let bad2 = { k with Kernel.tb_bits = 0 } in
  Alcotest.(check bool) "tb enabled but 0 bits invalid" true
    (try
       Kernel.validate bad2 Dphls_kernels.K01_global_linear.default;
       false
     with Invalid_argument _ -> true)

(* The engines' score-site protocol — every computed cell that
   [Score_site.observes] admits goes to a [Best_cell] as it retires, then
   [Score_site.resolve] — against an exhaustive scan of each start rule's
   candidate cells, written out independently. Cells are visited in a
   random order (the site must not depend on traversal order), about a
   quarter are pruned, and an all-pruned candidate set must resolve to
   the worst score at the bottom-right cell. *)
let prop_score_site_matches_exhaustive =
  QCheck.Test.make ~name:"score_site observes/resolve == scan" ~count:200
    QCheck.(triple (int_range 1 12) (int_range 1 12) (int_range 0 10_000))
    (fun (q, r, seed) ->
      let module Rng = Dphls_util.Rng in
      let rng = Rng.create seed in
      let scores = Array.init q (fun _ -> Array.init r (fun _ -> Rng.int rng 20)) in
      let pruned = Array.init q (fun _ -> Array.init r (fun _ -> Rng.int rng 4 = 0)) in
      let order = Array.init (q * r) (fun i -> (i / r, i mod r)) in
      Rng.shuffle rng order;
      let all = List.init (q * r) (fun i -> (i / r, i mod r)) in
      let candidates (rule : Traceback.start_rule) =
        match rule with
        | Bottom_right -> [ (q - 1, r - 1) ]
        | Global_best -> all
        | Last_row_best -> List.filter (fun (row, _) -> row = q - 1) all
        | Last_row_or_col_best ->
          List.filter (fun (row, col) -> row = q - 1 || col = r - 1) all
      in
      let expected objective rule =
        let live =
          List.filter (fun (row, col) -> not pruned.(row).(col)) (candidates rule)
        in
        match live with
        | [] -> ({ Types.row = q - 1; col = r - 1 }, Score.worst_value objective)
        | first :: _ ->
          let score_of (row, col) = scores.(row).(col) in
          let pick =
            match (objective : Score.objective) with
            | Maximize -> max
            | Minimize -> min
          in
          let top = List.fold_left (fun a c -> pick a (score_of c)) (score_of first) live in
          (* [all] is row-major, so the first cell at the top score is the
             lowest (row, col) *)
          let row, col = List.find (fun c -> score_of c = top) live in
          ({ Types.row; col }, top)
      in
      List.for_all
        (fun objective ->
          List.for_all
            (fun rule ->
              let best = Traceback.Best_cell.create objective in
              Array.iter
                (fun (row, col) ->
                  if
                    (not pruned.(row).(col))
                    && Score_site.observes rule ~qry_len:q ~ref_len:r ~row ~col
                  then
                    Traceback.Best_cell.observe_rc best ~row ~col scores.(row).(col))
                order;
              Score_site.resolve ~objective ~qry_len:q ~ref_len:r best
              = expected objective rule)
            Traceback.
              [ Bottom_right; Global_best; Last_row_best; Last_row_or_col_best ])
        Score.[ Maximize; Minimize ])

let suite =
  [
    Alcotest.test_case "banding" `Quick test_banding;
    Alcotest.test_case "banding adaptive" `Quick test_banding_adaptive;
    qtest prop_cells_in_band_matches_loop;
    Alcotest.test_case "best cell tie break" `Quick test_best_cell_tie_break;
    Alcotest.test_case "best cell merge" `Quick test_best_cell_merge_order_independent;
    Alcotest.test_case "best cell minimize" `Quick test_best_cell_minimize;
    Alcotest.test_case "walker global completion" `Quick test_walker_global_completion;
    Alcotest.test_case "walker semi-global stop" `Quick test_walker_semi_global_stops_at_top;
    Alcotest.test_case "walker stop move" `Quick test_walker_stop_move;
    Alcotest.test_case "walker stay loop" `Quick test_walker_stay_loop_detected;
    Alcotest.test_case "rescore linear" `Quick test_rescore_linear;
    Alcotest.test_case "rescore affine runs" `Quick test_rescore_affine_gap_runs;
    Alcotest.test_case "rescore two-piece" `Quick test_rescore_two_piece_picks_best;
    Alcotest.test_case "rescore overrun" `Quick test_rescore_overrun;
    Alcotest.test_case "result cigar" `Quick test_result_cigar;
    Alcotest.test_case "registry valid" `Quick test_registry_all_valid;
    Alcotest.test_case "registry lookup" `Quick test_registry_lookup;
    Alcotest.test_case "kernel validation" `Quick test_kernel_validation_guards;
    qtest prop_score_site_matches_exhaustive;
  ]
