(* Quickstart: align two DNA sequences with the Needleman-Wunsch kernel
   (#1) on the systolic back-end, then inspect score, alignment and the
   device-cycle breakdown.

   Run with:  dune exec examples/quickstart.exe *)

open Dphls_core
module K1 = Dphls_kernels.K01_global_linear

let () =
  let query = Dphls_alphabet.Dna.of_string "GATTACAGATTACAGGGATTACA" in
  let reference = Dphls_alphabet.Dna.of_string "GATTACAGATTTACAGGATTACA" in
  let workload = Workload.of_bases ~query ~reference in

  (* The back-end knob: how many processing elements the systolic array
     has. Everything else about the hardware mapping is automatic. *)
  let config = Dphls_systolic.Config.create ~n_pe:8 in
  let result, stats =
    Dphls_systolic.Engine.run config K1.kernel K1.default workload
  in

  Printf.printf "query     : %s\n" (Dphls_alphabet.Dna.to_string query);
  Printf.printf "reference : %s\n" (Dphls_alphabet.Dna.to_string reference);
  Printf.printf "score     : %s\n" (Dphls_util.Score.to_string result.Result.score);
  Printf.printf "cigar     : %s\n" (Result.cigar result);

  let c = stats.Dphls_systolic.Engine.cycles in
  Printf.printf "cycles    : %d total = %d prologue + %d compute + %d reduction + %d traceback + %d fill\n"
    c.Dphls_systolic.Engine.total c.Dphls_systolic.Engine.prologue
    c.Dphls_systolic.Engine.compute c.Dphls_systolic.Engine.reduction
    c.Dphls_systolic.Engine.traceback c.Dphls_systolic.Engine.fill;

  (* The golden engine must agree bit-for-bit. *)
  let golden = Dphls_reference.Ref_engine.run K1.kernel K1.default workload in
  assert (Result.equal_alignment result golden);
  print_endline "golden engine agrees.";

  (* Render the alignment and its accuracy statistics. *)
  let qseq = workload.Workload.query and rseq = workload.Workload.reference in
  print_newline ();
  print_string
    (Alignment_view.render
       ~decode:(fun c -> Dphls_alphabet.Dna.decode c.(0))
       ~query:qseq ~reference:rseq ~start_row:0 ~start_col:0 result.Result.path);
  let s = Alignment_view.stats ~query:qseq ~reference:rseq ~start_row:0 ~start_col:0
      result.Result.path
  in
  Printf.printf "identity %.1f%% (%d matches, %d mismatches, %d indels)\n"
    (100.0 *. s.Alignment_view.identity)
    s.Alignment_view.matches s.Alignment_view.mismatches
    (s.Alignment_view.insertions + s.Alignment_view.deletions)
