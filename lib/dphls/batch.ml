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

let align_slice ?band ?engine ?overlap kind pairs =
  match kind with
  | Global -> Align.global_batch ?band ?engine ?overlap pairs
  | Global_affine ->
    Align.global_affine_batch ?band ?engine ?overlap pairs
  | Local -> Align.local_batch ?band ?engine ?overlap pairs
  | Semi_global ->
    Align.semi_global_batch ?band ?engine ?overlap pairs
  | Protein_local ->
    Align.protein_local_batch ?band ?engine ?overlap pairs

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
   mutex-protected tracer.

   With [overlap], pairs are cut into contiguous per-worker slices and
   each slice runs as one staged-engine batch inside a single domain —
   alignment i+1's prologue pipelined under alignment i's compute
   (Engine.run_batch) — the N_B-style block parallelism the paper's host
   model assumes. Results are ordered and byte-identical to the per-pair
   path; the aggregated batch stats quantify the hidden cycles. *)
let run_in_pool ?band ?engine ?(overlap = false) ?metrics ?tracer
    ~kind pool pairs =
  if not overlap then
    let results, stats =
      Pool.run ?metrics ?tracer pool
        (fun i ->
          let query, reference = pairs.(i) in
          align_one ?band ?engine kind ~query ~reference)
        (Array.length pairs)
    in
    (results, stats, zero_batch_stats)
  else begin
    let n = Array.length pairs in
    let n_slices = min (Pool.workers pool) (max 1 n) in
    let nested, stats =
      Pool.run ?metrics ?tracer pool ~chunk:1
        (fun s ->
          let lo = s * n / n_slices and hi = (s + 1) * n / n_slices in
          align_slice ?band ?engine ~overlap:true kind
            (Array.sub pairs lo (hi - lo)))
        n_slices
    in
    let results = Array.concat (Array.to_list (Array.map fst nested)) in
    let batch =
      Array.fold_left (fun acc (_, b) -> sum_batch_stats acc b) zero_batch_stats
        nested
    in
    (results, stats, batch)
  end

let align_all_report ?band ?engine ?overlap ?metrics ?tracer
    ?(kind = Global) ?workers pairs =
  let results, stats, _ =
    Pool.with_pool ?workers (fun pool ->
        run_in_pool ?band ?engine ?overlap ?metrics ?tracer ~kind
          pool pairs)
  in
  (results, stats)

let align_all_overlap_report ?band ?engine ?metrics ?tracer
    ?(kind = Global) ?workers pairs =
  Pool.with_pool ?workers (fun pool ->
      run_in_pool ?band ?engine ~overlap:true ?metrics ?tracer ~kind
        pool pairs)

let align_all ?band ?engine ?overlap ?kind ?workers pairs =
  fst (align_all_report ?band ?engine ?overlap ?kind ?workers pairs)

let iter ?band ?engine ?overlap ?(kind = Global) ?workers
    ?(chunk = 256) ~f seq =
  if chunk < 1 then invalid_arg "Batch.iter: chunk < 1";
  Pool.with_pool ?workers (fun pool ->
      let emit base pairs =
        let results, _, _ =
          run_in_pool ?band ?engine ?overlap ~kind pool pairs
        in
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

let iter_fasta_file ?band ?engine ?overlap ?(kind = Global) ?workers
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
        let results, _, _ =
          run_in_pool ?band ?engine ?overlap ~kind pool pairs
        in
        Array.iteri
          (fun i a ->
            let q, r = records.(i) in
            f (base + i) q r a)
          results
      in
      (* fold the file record by record, flushing a chunk of pairs at a
         time so only [chunk] pairs are ever resident *)
      let base, pending_pair, buffered =
        Dphls_io.Fasta.fold_file path ~init:(0, None, [])
          ~f:(fun (base, pending, buf) record ->
            match pending with
            | None -> (base, Some record, buf)
            | Some q ->
              let buf = (q, record) :: buf in
              if List.length buf >= chunk then begin
                emit base (Array.of_list (List.rev buf));
                (base + List.length buf, None, [])
              end
              else (base, None, buf))
      in
      (match pending_pair with
      | Some q ->
        failwith
          (Printf.sprintf
             "Batch.iter_fasta_file: odd record count in %s (unpaired %S)" path
             q.Dphls_io.Fasta.id)
      | None -> ());
      if buffered <> [] then emit base (Array.of_list (List.rev buffered)))

let scaling ?band ?engine ?overlap ?kind ~workers pairs =
  let report w =
    snd
      (align_all_report ?band ?engine ?overlap ?kind ~workers:w pairs)
  in
  let baseline = (report 1).Pool.report in
  Throughput.scaling ~baseline
    (List.map (fun w -> (w, (report w).Pool.report)) workers)
