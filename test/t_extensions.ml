(* Tests for the framework extensions: X-Drop adaptive banding,
   heterogeneous kernel linking, alignment views and the ablation
   experiments. *)
open Dphls_core
module B = Dphls_baselines

let qtest = QCheck_alcotest.to_alcotest

(* ---------- X-Drop ---------- *)

let prop_xdrop_bounded_by_full =
  QCheck.Test.make ~name:"xdrop score never exceeds full SWG" ~count:60
    QCheck.(pair (int_range 0 100000) (int_range 0 80))
    (fun (seed, x) ->
      let rng = Dphls_util.Rng.create seed in
      let q = Dphls_alphabet.Dna.random rng (5 + Dphls_util.Rng.int rng 40) in
      let r = Dphls_alphabet.Dna.random rng (5 + Dphls_util.Rng.int rng 40) in
      let full =
        B.Seqan_like.score
          (B.Seqan_like.dna_scoring ~match_:2 ~mismatch:(-2)
             ~gap:(B.Seqan_like.Affine { open_ = -3; extend = -1 })
             ~mode:B.Seqan_like.Local)
          ~query:q ~reference:r
      in
      let xd =
        B.Xdrop.align ~match_:2 ~mismatch:(-2) ~gap_open:(-3) ~gap_extend:(-1) ~x
          ~query:q ~reference:r
      in
      xd.B.Xdrop.score <= full && xd.B.Xdrop.score >= 0)

let test_xdrop_large_x_is_exact () =
  for seed = 1 to 20 do
    let rng = Dphls_util.Rng.create (seed * 97) in
    let r = Dphls_alphabet.Dna.random rng 48 in
    let q = Dphls_seqgen.Dna_gen.mutate_point rng r ~rate:0.1 in
    let full =
      B.Seqan_like.score
        (B.Seqan_like.dna_scoring ~match_:2 ~mismatch:(-2)
           ~gap:(B.Seqan_like.Affine { open_ = -3; extend = -1 })
           ~mode:B.Seqan_like.Local)
        ~query:q ~reference:r
    in
    let xd =
      B.Xdrop.align ~match_:2 ~mismatch:(-2) ~gap_open:(-3) ~gap_extend:(-1)
        ~x:10000 ~query:q ~reference:r
    in
    Alcotest.(check int) (Printf.sprintf "seed %d" seed) full xd.B.Xdrop.score
  done

let test_xdrop_prunes_cells () =
  let rng = Dphls_util.Rng.create 7 in
  let q = Dphls_alphabet.Dna.random rng 150 in
  let r = Dphls_alphabet.Dna.random rng 150 in
  let tight =
    B.Xdrop.align ~match_:2 ~mismatch:(-2) ~gap_open:(-3) ~gap_extend:(-1) ~x:4
      ~query:q ~reference:r
  in
  Alcotest.(check bool) "tight X explores fewer cells" true
    (tight.B.Xdrop.cells_explored < 150 * 150)

let test_xdrop_invalid () =
  Alcotest.(check bool) "negative x rejected" true
    (try
       ignore
         (B.Xdrop.align ~match_:2 ~mismatch:(-2) ~gap_open:(-3) ~gap_extend:(-1)
            ~x:(-1) ~query:[| 0 |] ~reference:[| 0 |]);
       false
     with Invalid_argument _ -> true)

(* ---------- heterogeneous linking ---------- *)

module Link = Dphls_experiments.Link

let instance id n_pe n_b =
  {
    Link.packed = (Dphls_kernels.Catalog.find id).packed;
    n_pe;
    n_b;
    max_len = 256;
  }

let test_link_valid_plan () =
  match Link.plan [ instance 1 32 4; instance 3 32 4; instance 14 32 4 ] with
  | Error msg -> Alcotest.fail msg
  | Ok plan ->
    Alcotest.(check int) "three channels" 3 (List.length (Link.instances plan));
    let p = Link.percent plan in
    Alcotest.(check bool) "uses some LUTs" true (p.Dphls_resource.Device.lut_pct > 0.01);
    let tp = Link.throughput plan ~cycles_of:(fun _ -> 3000.0) in
    Alcotest.(check bool) "aggregate throughput" true (tp > 0.0)

let test_link_rejects_oversize () =
  (* 8 channels of 64 blocks of the DSP-hungry profile kernel cannot fit *)
  match Link.plan (List.init 8 (fun _ -> instance 8 32 64)) with
  | Ok _ -> Alcotest.fail "oversized plan accepted"
  | Error msg -> Alcotest.(check bool) "diagnostic mentions device" true
      (String.length msg > 0)

let test_link_rejects_bad_instance () =
  match Link.plan [ { (instance 1 32 4) with n_pe = 0 } ] with
  | Ok _ -> Alcotest.fail "bad instance accepted"
  | Error _ -> ()

let test_link_empty () =
  match Link.plan [] with
  | Ok _ -> Alcotest.fail "empty plan accepted"
  | Error _ -> ()

(* ---------- alignment view ---------- *)

let test_view_stats () =
  let query = Types.seq_of_bases (Dphls_alphabet.Dna.of_string "ACGTAC") in
  let reference = Types.seq_of_bases (Dphls_alphabet.Dna.of_string "ACTTACG") in
  (* ACGTAC- vs ACTTACG : 5 match, 1 mismatch, 1 ins *)
  let path =
    [ Traceback.Mmi; Traceback.Mmi; Traceback.Mmi; Traceback.Mmi; Traceback.Mmi;
      Traceback.Mmi; Traceback.Ins ]
  in
  let s = Alignment_view.stats ~query ~reference ~start_row:0 ~start_col:0 path in
  Alcotest.(check int) "matches" 5 s.Alignment_view.matches;
  Alcotest.(check int) "mismatches" 1 s.Alignment_view.mismatches;
  Alcotest.(check int) "insertions" 1 s.Alignment_view.insertions;
  Alcotest.(check (float 1e-6)) "identity" (5.0 /. 7.0) s.Alignment_view.identity;
  Alcotest.(check (float 1e-6)) "query coverage" 1.0 s.Alignment_view.query_coverage

let test_view_render () =
  let query = Types.seq_of_bases (Dphls_alphabet.Dna.of_string "ACGT") in
  let reference = Types.seq_of_bases (Dphls_alphabet.Dna.of_string "AGT") in
  let path = [ Traceback.Mmi; Traceback.Del; Traceback.Mmi; Traceback.Mmi ] in
  let text =
    Alignment_view.render ~decode:(fun c -> Dphls_alphabet.Dna.decode c.(0)) ~query
      ~reference ~start_row:0 ~start_col:0 path
  in
  Alcotest.(check string) "three-line view" "qry  ACGT\n     | ||\nref  A-GT\n" text

let test_view_wrap () =
  let n = 150 in
  let bases = Array.make n 0 in
  let query = Types.seq_of_bases bases and reference = Types.seq_of_bases bases in
  let path = List.init n (fun _ -> Traceback.Mmi) in
  let text =
    Alignment_view.render ~width:60
      ~decode:(fun c -> Dphls_alphabet.Dna.decode c.(0))
      ~query ~reference ~start_row:0 ~start_col:0 path
  in
  (* 3 chunks of 3 lines separated by blank lines *)
  Alcotest.(check int) "chunked" 3 (List.length (String.split_on_char 'q' text) - 1)

let test_view_first_consumed () =
  let r =
    {
      Result.score = 4;
      start_cell = Some { Types.row = 9; col = 7 };
      end_cell = Some { Types.row = 6; col = 5 };
      path = [ Traceback.Mmi; Traceback.Mmi; Traceback.Ins; Traceback.Mmi ];
      cells_computed = 0;
      tb_steps = 0;
    }
  in
  (* consumes 3 query, 4 reference: first = (7, 4) *)
  Alcotest.(check (option (pair int int))) "first consumed" (Some (7, 4))
    (Alignment_view.first_consumed r)

(* views agree with engine output on real alignments *)
let test_view_matches_engine () =
  let e = Dphls_kernels.Catalog.find 3 in
  let (Registry.Packed (k, p)) = e.packed in
  let rng = Dphls_util.Rng.create 404 in
  let w = e.Dphls_kernels.Catalog.gen rng ~len:60 in
  let res = Dphls_reference.Ref_engine.run k p w in
  match Alignment_view.first_consumed res with
  | None -> Alcotest.fail "local result should have a path"
  | Some (row0, col0) ->
    let s =
      Alignment_view.stats ~query:w.Workload.query ~reference:w.Workload.reference
        ~start_row:row0 ~start_col:col0 res.Result.path
    in
    (* rescoring from view stats must reproduce the engine's score *)
    let rescored =
      (2 * s.Alignment_view.matches)
      + (-2 * s.Alignment_view.mismatches)
      + (-2 * (s.Alignment_view.insertions + s.Alignment_view.deletions))
    in
    Alcotest.(check int) "stats consistent with score" res.Result.score rescored

(* ---------- ablations ---------- *)

let test_banding_ablation_shape () =
  let pts = Dphls_experiments.Ablations.banding ~len:96 () in
  let cycles =
    List.map (fun (p : Dphls_experiments.Ablations.band_point) -> p.cycles) pts
  in
  Alcotest.(check bool) "cycles increase with band" true
    (List.sort compare cycles = cycles);
  let (last : Dphls_experiments.Ablations.band_point) =
    List.nth pts (List.length pts - 1)
  in
  Alcotest.(check bool) "widest band recovers optimum" true (last.recovery >= 0.999)

let test_arbiter_ablation_shape () =
  let pts = Dphls_experiments.Ablations.arbiter ~len:128 () in
  let tp =
    List.map (fun (p : Dphls_experiments.Ablations.arbiter_point) -> p.throughput) pts
  in
  Alcotest.(check bool) "throughput grows with bandwidth" true
    (List.sort compare tp = tp);
  let (first : Dphls_experiments.Ablations.arbiter_point) = List.hd pts in
  Alcotest.(check bool) "1 B/cycle is bandwidth bound" true first.bandwidth_bound

let test_score_width_monotone () =
  let pts = Dphls_experiments.Ablations.score_width () in
  let luts =
    List.map (fun (p : Dphls_experiments.Ablations.width_point) -> p.lut) pts
  in
  Alcotest.(check bool) "LUTs grow with width" true (List.sort compare luts = luts)

let test_ii_ablation_shape () =
  let pts = Dphls_experiments.Ablations.initiation_interval ~len:64 () in
  match pts with
  | [ (a : Dphls_experiments.Ablations.ii_point); b; c ] ->
    Alcotest.(check bool) "cycles grow with II" true
      (a.cycles < b.cycles && b.cycles < c.cycles)
  | _ -> Alcotest.fail "expected three II points"

let suite =
  [
    qtest prop_xdrop_bounded_by_full;
    Alcotest.test_case "xdrop exact at large X" `Quick test_xdrop_large_x_is_exact;
    Alcotest.test_case "xdrop prunes" `Quick test_xdrop_prunes_cells;
    Alcotest.test_case "xdrop invalid" `Quick test_xdrop_invalid;
    Alcotest.test_case "link valid plan" `Quick test_link_valid_plan;
    Alcotest.test_case "link rejects oversize" `Quick test_link_rejects_oversize;
    Alcotest.test_case "link rejects bad instance" `Quick test_link_rejects_bad_instance;
    Alcotest.test_case "link empty" `Quick test_link_empty;
    Alcotest.test_case "view stats" `Quick test_view_stats;
    Alcotest.test_case "view render" `Quick test_view_render;
    Alcotest.test_case "view wrap" `Quick test_view_wrap;
    Alcotest.test_case "view first consumed" `Quick test_view_first_consumed;
    Alcotest.test_case "view matches engine" `Quick test_view_matches_engine;
    Alcotest.test_case "banding ablation shape" `Quick test_banding_ablation_shape;
    Alcotest.test_case "arbiter ablation shape" `Quick test_arbiter_ablation_shape;
    Alcotest.test_case "score width monotone" `Quick test_score_width_monotone;
    Alcotest.test_case "II ablation shape" `Quick test_ii_ablation_shape;
  ]
