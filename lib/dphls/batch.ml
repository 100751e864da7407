module Pool = Dphls_host.Pool
module Throughput = Dphls_host.Throughput

type kind = Global | Global_affine | Local | Semi_global | Protein_local

let kind_of_string = function
  | "global" -> Global
  | "global-affine" -> Global_affine
  | "local" -> Local
  | "semi-global" -> Semi_global
  | "protein-local" -> Protein_local
  | s -> invalid_arg (Printf.sprintf "Batch.kind_of_string: %S" s)

let align_one ?band ?engine kind ~query ~reference =
  match kind with
  | Global -> Align.global ?band ?engine ~query ~reference ()
  | Global_affine -> Align.global_affine ?band ?engine ~query ~reference ()
  | Local -> Align.local ?band ?engine ~query ~reference ()
  | Semi_global -> Align.semi_global ?band ?engine ~query ~reference ()
  | Protein_local -> Align.protein_local ?band ?engine ~query ~reference ()

let align_slice ?band ?engine kind pairs =
  match kind with
  | Global -> Align.global_batch ?band ?engine ~overlap:true pairs
  | Global_affine -> Align.global_affine_batch ?band ?engine ~overlap:true pairs
  | Local -> Align.local_batch ?band ?engine ~overlap:true pairs
  | Semi_global -> Align.semi_global_batch ?band ?engine ~overlap:true pairs
  | Protein_local -> Align.protein_local_batch ?band ?engine ~overlap:true pairs

let sum_batch_stats acc = function
  | None -> acc
  | Some (b : Dphls_systolic.Engine.batch_stats) ->
    Dphls_systolic.Engine.
      {
        alignments = acc.alignments + b.alignments;
        seq_cycles = acc.seq_cycles + b.seq_cycles;
        overlapped_cycles = acc.overlapped_cycles + b.overlapped_cycles;
        hidden_cycles = acc.hidden_cycles + b.hidden_cycles;
      }

let zero_batch_stats =
  Dphls_systolic.Engine.
    { alignments = 0; seq_cycles = 0; overlapped_cycles = 0; hidden_cycles = 0 }

(* Observability stops at the pool layer here: Metrics sinks are not
   domain-safe, so per-alignment engine counters are never threaded into
   tasks that run on worker domains. The pool itself adds its counters
   on the calling thread and its per-chunk spans through the
   mutex-protected tracer. *)
let run_in_pool ?band ?engine ?metrics ?tracer ~kind pool pairs =
  Pool.run ?metrics ?tracer pool
    (fun i ->
      let query, reference = pairs.(i) in
      align_one ?band ?engine kind ~query ~reference)
    (Array.length pairs)

let align_all_report ?band ?engine ?metrics ?tracer ?(kind = Global) ?workers
    pairs =
  Pool.with_pool ?workers (fun pool ->
      run_in_pool ?band ?engine ?metrics ?tracer ~kind pool pairs)

(* Pairs cut into contiguous per-worker slices, each slice one engine
   batch inside a single domain, so the batch accounting sees each
   alignment's predecessor; the slices' stats add up. *)
let align_all_overlap_report ?band ?engine ?metrics ?tracer ?(kind = Global)
    ?workers pairs =
  Pool.with_pool ?workers (fun pool ->
      let slices = Pool.slices (Pool.workers pool) pairs in
      let nested, stats =
        Pool.run ?metrics ?tracer pool ~chunk:1
          (fun s -> align_slice ?band ?engine kind slices.(s))
          (Array.length slices)
      in
      ( Array.concat (Array.to_list (Array.map fst nested)),
        stats,
        Array.fold_left (fun acc (_, b) -> sum_batch_stats acc b) zero_batch_stats
          nested ))

let align_all ?band ?engine ?kind ?workers pairs =
  fst (align_all_report ?band ?engine ?kind ?workers pairs)

let iter ?band ?engine ?(kind = Global) ?workers
    ?(chunk = 256) ~f seq =
  if chunk < 1 then invalid_arg "Batch.iter: chunk < 1";
  Pool.with_pool ?workers (fun pool ->
      let emit base pairs =
        let results, _ = run_in_pool ?band ?engine ~kind pool pairs in
        Array.iteri
          (fun i a ->
            let query, reference = pairs.(i) in
            f (base + i) ~query ~reference a)
          results
      in
      let rec go base seq =
        let buf = ref [] and taken = ref 0 and rest = ref seq in
        (* pull up to [chunk] pairs without forcing the rest *)
        let continue = ref true in
        while !continue && !taken < chunk do
          match Seq.uncons !rest with
          | None -> continue := false
          | Some (p, tl) ->
            buf := p :: !buf;
            incr taken;
            rest := tl
        done;
        if !taken > 0 then begin
          emit base (Array.of_list (List.rev !buf));
          if !continue then go (base + !taken) !rest
        end
      in
      go 0 seq)

let iter_fasta_file ?band ?engine ?(kind = Global) ?workers
    ?(chunk = 256) ~path ~f () =
  if chunk < 1 then invalid_arg "Batch.iter_fasta_file: chunk < 1";
  Pool.with_pool ?workers (fun pool ->
      let emit base records =
        let pairs =
          Array.map
            (fun (q, r) ->
              (q.Dphls_io.Fasta.sequence, r.Dphls_io.Fasta.sequence))
            records
        in
        let results, _ = run_in_pool ?band ?engine ~kind pool pairs in
        Array.iteri
          (fun i a ->
            let q, r = records.(i) in
            f (base + i) q r a)
          results
      in
      (* fold the file record by record, flushing a chunk of pairs at a
         time so only [chunk] pairs are ever resident; [n] counts the
         buffered pairs *)
      let base, pending_pair, (buffered, _) =
        Dphls_io.Fasta.fold_file path ~init:(0, None, ([], 0))
          ~f:(fun (base, pending, (buf, n)) record ->
            match pending with
            | None -> (base, Some record, (buf, n))
            | Some q ->
              let buf = (q, record) :: buf and n = n + 1 in
              if n >= chunk then begin
                emit base (Array.of_list (List.rev buf));
                (base + n, None, ([], 0))
              end
              else (base, None, (buf, n)))
      in
      (match pending_pair with
      | Some q ->
        failwith
          (Printf.sprintf
             "Batch.iter_fasta_file: odd record count in %s (unpaired %S)" path
             q.Dphls_io.Fasta.id)
      | None -> ());
      if buffered <> [] then emit base (Array.of_list (List.rev buffered)))

let scaling ?band ?engine ?kind ~workers pairs =
  let report w =
    snd
      (align_all_report ?band ?engine ?kind ~workers:w pairs)
  in
  let baseline = (report 1).Pool.report in
  Throughput.scaling ~baseline
    (List.map (fun w -> (w, (report w).Pool.report)) workers)
