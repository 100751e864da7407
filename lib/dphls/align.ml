open Dphls_core
module Engines = Dphls_engines.Engines

type engine = Engines.choice =
  | Golden
  | Systolic of int
  | Bitpar
  | Auto of int

type alignment = {
  score : int;
  cigar : string;
  identity : float;
  query_span : int * int;
  reference_span : int * int;
  view : string;
  device_cycles : int option;
}

let view_of_result (w : Workload.t) result cycles ~decode =
  let query = w.Workload.query and reference = w.Workload.reference in
  match Alignment_view.first_consumed result with
  | None ->
    {
      score = result.Result.score;
      cigar = "";
      identity = 0.0;
      query_span = (0, 0);
      reference_span = (0, 0);
      view = "";
      device_cycles = cycles;
    }
  | Some (row0, col0) ->
    let stats =
      Alignment_view.stats ~query ~reference ~start_row:row0 ~start_col:col0
        result.Result.path
    in
    let last =
      match result.Result.start_cell with Some c -> c | None -> assert false
    in
    {
      score = result.Result.score;
      cigar = Result.cigar result;
      identity = stats.Alignment_view.identity;
      query_span = (row0, last.Types.row + 1);
      reference_span = (col0, last.Types.col + 1);
      view =
        Alignment_view.render ~decode ~query ~reference ~start_row:row0
          ~start_col:col0 result.Result.path;
      device_cycles = cycles;
    }

let run_kernel_batch ?band ?overlap ?metrics ?tracer ~engine kernel params
    (ws : Workload.t array) ~decode =
  let ran, batch =
    Engines.run_batch ?overlap ?metrics ?tracer engine
      (Kernel.with_band kernel band) params ws
  in
  ( Array.mapi
      (fun i (r : Engines.ran) ->
        view_of_result ws.(i) r.Engines.result
          (Option.map
             (fun c -> c.Dphls_systolic.Engine.total)
             r.Engines.cycles)
          ~decode)
      ran,
    batch )

let run_kernel ?band ?metrics ?tracer ~engine kernel params w ~decode
    =
  (fst
     (run_kernel_batch ?band ?metrics ?tracer ~engine kernel params
        [| w |] ~decode)).(0)

let dna_workload ~query ~reference =
  Workload.of_bases
    ~query:(Dphls_alphabet.Dna.of_string query)
    ~reference:(Dphls_alphabet.Dna.of_string reference)

let dna_decode c = Dphls_alphabet.Dna.decode c.(0)
let protein_decode c = Dphls_alphabet.Protein.decode c.(0)

let global ?band ?metrics ?tracer ?(engine = Golden) ~query
    ~reference () =
  run_kernel ?band ?metrics ?tracer ~engine Dphls_kernels.K01_global_linear.kernel
    Dphls_kernels.K01_global_linear.default
    (dna_workload ~query ~reference)
    ~decode:dna_decode

let global_affine ?band ?metrics ?tracer ?(engine = Golden) ~query
    ~reference () =
  run_kernel ?band ?metrics ?tracer ~engine Dphls_kernels.K02_global_affine.kernel
    Dphls_kernels.K02_global_affine.default
    (dna_workload ~query ~reference)
    ~decode:dna_decode

let local ?band ?metrics ?tracer ?(engine = Golden) ~query
    ~reference () =
  run_kernel ?band ?metrics ?tracer ~engine Dphls_kernels.K03_local_linear.kernel
    Dphls_kernels.K03_local_linear.default
    (dna_workload ~query ~reference)
    ~decode:dna_decode

let semi_global ?band ?metrics ?tracer ?(engine = Golden) ~query
    ~reference () =
  run_kernel ?band ?metrics ?tracer ~engine Dphls_kernels.K07_semi_global.kernel
    Dphls_kernels.K07_semi_global.default
    (dna_workload ~query ~reference)
    ~decode:dna_decode

let protein_workload ~query ~reference =
  Workload.of_bases
    ~query:(Dphls_alphabet.Protein.of_string query)
    ~reference:(Dphls_alphabet.Protein.of_string reference)

let protein_local ?band ?metrics ?tracer ?(engine = Golden) ~query
    ~reference () =
  run_kernel ?band ?metrics ?tracer ~engine Dphls_kernels.K15_protein_local.kernel
    Dphls_kernels.K15_protein_local.default
    (protein_workload ~query ~reference)
    ~decode:protein_decode

(* Batched variants of the five entry points: one engine batch per
   call, whose batch accounting [?overlap] selects (see
   Engine.batch_stats_of). *)

let dna_workloads pairs =
  Array.map (fun (query, reference) -> dna_workload ~query ~reference) pairs

let global_batch ?band ?overlap ?metrics ?tracer ?(engine = Golden)
    pairs =
  run_kernel_batch ?band ?overlap ?metrics ?tracer ~engine
    Dphls_kernels.K01_global_linear.kernel
    Dphls_kernels.K01_global_linear.default (dna_workloads pairs)
    ~decode:dna_decode

let global_affine_batch ?band ?overlap ?metrics ?tracer
    ?(engine = Golden) pairs =
  run_kernel_batch ?band ?overlap ?metrics ?tracer ~engine
    Dphls_kernels.K02_global_affine.kernel
    Dphls_kernels.K02_global_affine.default (dna_workloads pairs)
    ~decode:dna_decode

let local_batch ?band ?overlap ?metrics ?tracer ?(engine = Golden)
    pairs =
  run_kernel_batch ?band ?overlap ?metrics ?tracer ~engine
    Dphls_kernels.K03_local_linear.kernel Dphls_kernels.K03_local_linear.default
    (dna_workloads pairs) ~decode:dna_decode

let semi_global_batch ?band ?overlap ?metrics ?tracer
    ?(engine = Golden) pairs =
  run_kernel_batch ?band ?overlap ?metrics ?tracer ~engine
    Dphls_kernels.K07_semi_global.kernel Dphls_kernels.K07_semi_global.default
    (dna_workloads pairs) ~decode:dna_decode

let protein_local_batch ?band ?overlap ?metrics ?tracer
    ?(engine = Golden) pairs =
  run_kernel_batch ?band ?overlap ?metrics ?tracer ~engine
    Dphls_kernels.K15_protein_local.kernel
    Dphls_kernels.K15_protein_local.default
    (Array.map
       (fun (query, reference) -> protein_workload ~query ~reference)
       pairs)
    ~decode:protein_decode
