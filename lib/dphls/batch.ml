module Pool = Dphls_host.Pool
module Sim = Dphls_systolic.Engine

type kind = Align.kind =
  | Global | Global_affine | Local | Semi_global | Protein_local

let kind_of_string = function
  | "global" -> Global
  | "global-affine" -> Global_affine
  | "local" -> Local
  | "semi-global" -> Semi_global
  | "protein-local" -> Protein_local
  | s -> invalid_arg (Printf.sprintf "Batch.kind_of_string: %S" s)

(* The one pool path: one task per pair, each answer with its modeled
   cycles. Observability stops at the pool's per-chunk spans, through
   the mutex-protected tracer: Metrics sinks are not domain-safe, so
   per-alignment engine counters are never threaded into tasks that run
   on worker domains. *)
let run_in_pool ?band ?engine ?tracer ~kind pool pairs =
  Pool.run ?tracer pool
    (fun i ->
      let query, reference = pairs.(i) in
      Align.run ?band ?engine kind ~query ~reference)
    (Array.length pairs)

let sum_batch_stats (a : Sim.batch_stats) (b : Sim.batch_stats) =
  Sim.
    {
      alignments = a.alignments + b.alignments;
      seq_cycles = a.seq_cycles + b.seq_cycles;
      overlapped_cycles = a.overlapped_cycles + b.overlapped_cycles;
      hidden_cycles = a.hidden_cycles + b.hidden_cycles;
    }

let zero_batch_stats =
  Sim.{ alignments = 0; seq_cycles = 0; overlapped_cycles = 0; hidden_cycles = 0 }

(* Prologue overlap per host channel: the answers cut into contiguous
   per-worker slices, each slice one stream in which an alignment's
   prologue hides under its predecessor's compute. Answers without
   modeled cycles (golden, bit-parallel) add nothing. *)
let overlap_stats ~workers answers =
  Array.fold_left
    (fun acc slice ->
      sum_batch_stats acc
        (Sim.batch_stats_of ~overlap:true
           (Array.of_seq (Seq.filter_map snd (Array.to_seq slice)))))
    zero_batch_stats
    (Pool.slices workers answers)

let align_all_overlap_report ?band ?engine ?tracer ?(kind = Global) ?workers
    pairs =
  Pool.with_pool ?workers (fun pool ->
      let answers, stats = run_in_pool ?band ?engine ?tracer ~kind pool pairs in
      ( Array.map fst answers,
        stats,
        overlap_stats ~workers:(Pool.workers pool) answers ))

let align_all ?band ?engine ?kind ?workers pairs =
  let results, _, _ =
    align_all_overlap_report ?band ?engine ?kind ?workers pairs
  in
  results

let iter_fasta_file ?band ?engine ?(kind = Global) ?workers
    ?(chunk = 256) ~path ~f () =
  if chunk < 1 then invalid_arg "Batch.iter_fasta_file: chunk < 1";
  Pool.with_pool ?workers (fun pool ->
      let overlap = ref zero_batch_stats in
      let emit base records =
        let pairs =
          Array.map
            (fun (q, r) ->
              (q.Dphls_io.Fasta.sequence, r.Dphls_io.Fasta.sequence))
            records
        in
        let answers, _ = run_in_pool ?band ?engine ~kind pool pairs in
        overlap :=
          sum_batch_stats !overlap
            (overlap_stats ~workers:(Pool.workers pool) answers);
        Array.iteri
          (fun i (a, _) ->
            let q, r = records.(i) in
            f (base + i) q r a)
          answers
      in
      let emit_buffered base buf =
        if buf <> [] then emit base (Array.of_list (List.rev buf))
      in
      (* a fault (a record the kind cannot align, an odd record count)
         is raised after the complete pairs read before it have been
         answered, whatever the chunk size *)
      let refuse base buf fmt =
        Printf.ksprintf
          (fun msg ->
            emit_buffered base buf;
            failwith ("Batch.iter_fasta_file: " ^ msg))
          fmt
      in
      (* fold the file record by record, flushing a chunk of pairs at a
         time so only [chunk] pairs are ever resident; [n] counts the
         buffered pairs *)
      let base, pending_pair, (buffered, _) =
        Dphls_io.Fasta.fold_file path ~init:(0, None, ([], 0))
          ~f:(fun (base, pending, (buf, n)) (record : Dphls_io.Fasta.record) ->
            (match Align.alignable kind record.sequence with
            | Ok () -> ()
            | Error why -> refuse base buf "record %S in %s: %s" record.id path why);
            match pending with
            | None -> (base, Some record, (buf, n))
            | Some q ->
              let buf = (q, record) :: buf and n = n + 1 in
              if n >= chunk then begin
                emit_buffered base buf;
                (base + n, None, ([], 0))
              end
              else (base, None, (buf, n)))
      in
      (match pending_pair with
      | Some q ->
        refuse base buffered "odd record count in %s (unpaired %S)" path
          q.Dphls_io.Fasta.id
      | None -> emit_buffered base buffered);
      !overlap)
