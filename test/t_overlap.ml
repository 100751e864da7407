(* Prologue overlap changes only accounting: Engine.run_batch
   ~overlap:true runs the same stages in the same order as
   ~overlap:false, so results and per-alignment cycle breakdowns are
   bit-identical across the full catalog (including the adaptive-band
   variants 16-18), and only the batch accounting differs: it hides
   cycles exactly when there is a predecessor's compute to hide them
   under. The capture test pins the one state the simulator carries
   between alignments, the domain's traceback plane. *)
open Dphls_core
module Engine = Dphls_systolic.Engine
module Config = Dphls_systolic.Config
module Catalog = Dphls_kernels.Catalog
module Capture = Dphls_vectors.Capture
module Stream = Dphls_vectors.Stream

let qtest = QCheck_alcotest.to_alcotest

let catalog_ids =
  List.map (fun (e : Catalog.entry) -> Registry.id e.Catalog.packed)
    Catalog.all

let run_both ~n_pe (e : Catalog.entry) ws =
  let (Registry.Packed (k, p)) = e.Catalog.packed in
  let cfg = Config.create ~n_pe in
  let seq, seq_batch = Engine.run_batch ~overlap:false cfg k p ws in
  let ov, ov_batch = Engine.run_batch ~overlap:true cfg k p ws in
  ((seq, seq_batch), (ov, ov_batch))

let check_identical name (seq, seq_batch) (ov, ov_batch) =
  Array.iteri
    (fun i (r_seq, (s_seq : Engine.stats)) ->
      let r_ov, (s_ov : Engine.stats) = ov.(i) in
      if not (Result.equal_alignment r_seq r_ov) then
        Alcotest.failf "%s: alignment %d diverges between modes" name i;
      if s_seq.Engine.cycles <> s_ov.Engine.cycles then
        Alcotest.failf "%s: alignment %d cycle breakdown diverges" name i;
      if
        s_seq.Engine.pe_fires <> s_ov.Engine.pe_fires
        || s_seq.Engine.tb_words <> s_ov.Engine.tb_words
      then Alcotest.failf "%s: alignment %d stats diverge" name i)
    seq;
  (* both modes see the same per-alignment totals; only the hidden
     portion differs *)
  if seq_batch.Engine.seq_cycles <> ov_batch.Engine.seq_cycles then
    Alcotest.failf "%s: sequential totals differ between modes" name;
  if seq_batch.Engine.hidden_cycles <> 0 then
    Alcotest.failf "%s: sequential mode hid %d cycles" name
      seq_batch.Engine.hidden_cycles

(* Every catalog kernel, a 3-alignment batch at a deliberately awkward
   N_PE (multiple chunks, partial last chunk). *)
let test_catalog_bit_identity () =
  List.iter
    (fun (e : Catalog.entry) ->
      let id = Registry.id e.Catalog.packed in
      let rng = Dphls_util.Rng.create (1000 + id) in
      let ws = Array.init 3 (fun _ -> e.Catalog.gen rng ~len:24) in
      let b, o = run_both ~n_pe:5 e ws in
      check_identical (Printf.sprintf "kernel %d" id) b o)
    Catalog.all

(* The capture stream — every cell score, traceback pointer and band
   window in emission order — of an alignment that runs right after a
   longer one of the same kernel in the same domain, on the traceback
   plane that run left behind, equals its capture in a fresh domain:
   the reused plane leaks nothing. One kernel per recurrence family the
   back-end treats differently, plus a 40 x 3 fixed-band alignment
   whose walk leaves the band, after a 100 x 5 one that stored
   pointers where that walk reads: the case a plane not reset between
   alignments gets wrong. *)
let test_capture_bit_identity () =
  let in_fresh_domain f = Domain.join (Domain.spawn f) in
  let catalog id seed len = (Catalog.find id).Catalog.gen (Dphls_util.Rng.create seed) ~len in
  let rng = Dphls_util.Rng.create 2011 in
  let dna qry_len ref_len =
    Workload.of_bases
      ~query:(Dphls_alphabet.Dna.random rng qry_len)
      ~reference:(Dphls_alphabet.Dna.random rng ref_len)
  in
  List.iter
    (fun (id, longer, w) ->
      let (Registry.Packed (k, p)) = (Catalog.find id).Catalog.packed in
      if Workload.cells longer <= Workload.cells w then
        Alcotest.failf "kernel %d: the first alignment is not the longer one" id;
      let v_lone, r_lone = in_fresh_domain (fun () -> Capture.systolic k p ~n_pe:4 w) in
      let v_after, r_after =
        in_fresh_domain (fun () ->
            ignore (Engine.run (Config.create ~n_pe:4) k p longer);
            Capture.systolic k p ~n_pe:4 w)
      in
      (match Stream.diff ~expected:v_lone ~actual:v_after with
      | None -> ()
      | Some d ->
        Alcotest.failf "kernel %d: capture after a longer alignment diverges: %s" id
          (Stream.describe d));
      if not (Result.equal_alignment r_lone r_after) then
        Alcotest.failf "kernel %d: capture results diverge" id)
    (List.map
       (fun (id, len) -> (id, catalog id (3000 + id) (2 * len), catalog id (2000 + id) len))
       [ (1, 32); (2, 24); (9, 24); (11, 32); (16, 32) ]
    @ [ (11, dna 100 5, dna 40 3) ])

let test_empty_batch () =
  let e = Catalog.find 1 in
  let (Registry.Packed (k, p)) = e.Catalog.packed in
  let results, b = Engine.run_batch ~overlap:true (Config.create ~n_pe:4) k p [||] in
  Alcotest.(check int) "no results" 0 (Array.length results);
  Alcotest.(check int) "no alignments" 0 b.Engine.alignments;
  Alcotest.(check int) "no cycles" 0 b.Engine.seq_cycles;
  Alcotest.(check int) "nothing hidden" 0 b.Engine.hidden_cycles

(* Random kernel, batch size, lengths and width: results bit-identical,
   overlapped total never above sequential, and equality exactly when
   there is nothing to hide (batch size <= 1 — every alignment has a
   positive prologue and positive compute, so any predecessor hides a
   positive slice). *)
let prop_overlap_differential =
  QCheck.Test.make ~name:"overlap differential across catalog" ~count:60
    QCheck.(
      quad (oneofl catalog_ids) (int_range 1 4) (int_range 1 8)
        (int_range 8 40))
    (fun (id, n, n_pe, len) ->
      let e = Catalog.find id in
      let rng = Dphls_util.Rng.create (id + (n * 131) + (n_pe * 17) + len) in
      let ws = Array.init n (fun _ -> e.Catalog.gen rng ~len) in
      let ((seq, _) as b), ((ov, ov_batch) as o) = run_both ~n_pe e ws in
      check_identical (Printf.sprintf "kernel %d" id) b o;
      ignore seq;
      ignore ov;
      ov_batch.Engine.overlapped_cycles
      = ov_batch.Engine.seq_cycles - ov_batch.Engine.hidden_cycles
      && ov_batch.Engine.overlapped_cycles <= ov_batch.Engine.seq_cycles
      && (ov_batch.Engine.hidden_cycles > 0) = (n > 1))

(* Overlap hides the clamp the RTL baselines share: in a batch of two
   equal alignments the second prologue hides under the first compute,
   min(prologue, compute) cycles, so the second alignment costs
   fill + max(prologue, compute) + reduction + traceback — equal to its
   sequential total exactly when there is no compute to hide under
   (never here, so strictly less whenever prologue > 0). *)
let prop_batch_overlap_clamp =
  QCheck.Test.make ~name:"batch overlap is the shared clamp" ~count:100
    QCheck.(
      quad (int_range 0 500) (int_range 1 500) (int_range 0 50)
        (int_range 0 200))
    (fun (prologue, compute, reduction, traceback) ->
      let c =
        Engine.assemble_cycles ~prologue ~compute ~reduction ~traceback
          ~fill:12
      in
      let b = Engine.batch_stats_of ~overlap:true [| c; c |] in
      c.Engine.total = prologue + compute + reduction + traceback + 12
      && b.Engine.seq_cycles = 2 * c.Engine.total
      && b.Engine.hidden_cycles = min prologue compute
      && b.Engine.overlapped_cycles
         = c.Engine.total + max prologue compute + reduction + traceback + 12
      && (b.Engine.overlapped_cycles = b.Engine.seq_cycles)
         = (min prologue compute = 0))

let suite =
  [
    Alcotest.test_case "catalog bit identity" `Quick
      test_catalog_bit_identity;
    Alcotest.test_case "capture bit identity" `Quick
      test_capture_bit_identity;
    Alcotest.test_case "empty batch" `Quick test_empty_batch;
    qtest prop_overlap_differential;
    qtest prop_batch_overlap_clamp;
  ]
