let alignments_per_sec ~cycles_per_alignment ~freq_mhz ~n_b ~n_k =
  if cycles_per_alignment <= 0.0 then invalid_arg "Throughput: non-positive cycles";
  float_of_int (n_b * n_k) *. freq_mhz *. 1e6 /. cycles_per_alignment

let cells_per_sec ~cycles_per_alignment ~freq_mhz ~n_b ~n_k ~cells =
  alignments_per_sec ~cycles_per_alignment ~freq_mhz ~n_b ~n_k *. float_of_int cells

let iso_cost ~throughput ~cost_per_hour ~reference_cost_per_hour =
  if cost_per_hour <= 0.0 then invalid_arg "Throughput.iso_cost";
  throughput *. reference_cost_per_hour /. cost_per_hour

type band_run = {
  mode : string;
  width : int option;
  threshold : int option;
  score : int;
  cells_computed : int;
  total_cells : int;
  device_cycles : int;
  wall_ns : float;
}

let cells_fraction r =
  if r.total_cells <= 0 then invalid_arg "Throughput.cells_fraction";
  float_of_int r.cells_computed /. float_of_int r.total_cells

let band_json runs =
  let buf = Buffer.create 512 in
  let opt_int = function None -> "null" | Some v -> string_of_int v in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"mode\": %S, \"width\": %s, \"threshold\": %s, \"score\": %d, \
            \"cells_computed\": %d, \"total_cells\": %d, \"cells_fraction\": \
            %.6f, \"device_cycles\": %d, \"wall_ns\": %.0f}"
           r.mode (opt_int r.width) (opt_int r.threshold) r.score
           r.cells_computed r.total_cells (cells_fraction r) r.device_cycles
           r.wall_ns))
    runs;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

type pe_run = {
  kernel : string;
  cells : int;
  eval_ns : float;
  compiled_ns : float;
}

let pe_cells_per_sec ~cells ~ns =
  if ns <= 0.0 then invalid_arg "Throughput.pe_cells_per_sec";
  float_of_int cells /. (ns /. 1e9)

let pe_speedup r =
  if r.compiled_ns <= 0.0 then invalid_arg "Throughput.pe_speedup";
  r.eval_ns /. r.compiled_ns

let pe_json runs =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"kernel\": %S, \"cells\": %d, \"eval_ns\": %.0f, \
            \"compiled_ns\": %.0f, \"eval_cells_per_sec\": %.0f, \
            \"compiled_cells_per_sec\": %.0f, \"speedup\": %.3f}"
           r.kernel r.cells r.eval_ns r.compiled_ns
           (pe_cells_per_sec ~cells:r.cells ~ns:r.eval_ns)
           (pe_cells_per_sec ~cells:r.cells ~ns:r.compiled_ns)
           (pe_speedup r)))
    runs;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

type overlap_run = {
  kernel : string;
  n_pe : int;
  alignments : int;
  freq_mhz : float;
  seq_cycles : int;
  overlapped_cycles : int;
  hidden_cycles : int;
  seq_host_ns : float;
  overlap_host_ns : float;
}

let overlap_cycle_reduction r =
  if r.seq_cycles <= 0 then invalid_arg "Throughput.overlap_cycle_reduction";
  float_of_int r.hidden_cycles /. float_of_int r.seq_cycles

let overlap_device_ns r cycles =
  if r.freq_mhz <= 0.0 then invalid_arg "Throughput.overlap_device_ns";
  float_of_int cycles /. r.freq_mhz *. 1e3

let overlap_device_speedup r =
  if r.overlapped_cycles <= 0 then
    invalid_arg "Throughput.overlap_device_speedup";
  float_of_int r.seq_cycles /. float_of_int r.overlapped_cycles

let overlap_json runs =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"kernel\": %S, \"n_pe\": %d, \"alignments\": %d, \
            \"freq_mhz\": %.1f, \"seq_cycles\": %d, \"overlapped_cycles\": \
            %d, \"hidden_cycles\": %d, \"cycle_reduction\": %.6f, \
            \"seq_device_ns\": %.0f, \"overlap_device_ns\": %.0f, \
            \"device_wall_speedup\": %.3f, \"seq_host_ns\": %.0f, \
            \"overlap_host_ns\": %.0f}"
           r.kernel r.n_pe r.alignments r.freq_mhz r.seq_cycles
           r.overlapped_cycles r.hidden_cycles (overlap_cycle_reduction r)
           (overlap_device_ns r r.seq_cycles)
           (overlap_device_ns r r.overlapped_cycles)
           (overlap_device_speedup r) r.seq_host_ns r.overlap_host_ns))
    runs;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

type scaling_point = {
  workers : int;
  measured_speedup : float;
  modeled_speedup : float;
  efficiency : float;
}

let measured_speedup ~baseline ~parallel =
  if parallel.Scheduler.makespan <= 0 then invalid_arg "Throughput.measured_speedup";
  float_of_int baseline.Scheduler.makespan
  /. float_of_int parallel.Scheduler.makespan

let scaling ~baseline points =
  (* the analytical model is linear in N_K (channels never share
     anything), so modeled speedup at W workers is exactly the
     alignments_per_sec ratio N_K=W over N_K=1 *)
  let modeled w =
    alignments_per_sec ~cycles_per_alignment:1.0 ~freq_mhz:1.0 ~n_b:1 ~n_k:w
    /. alignments_per_sec ~cycles_per_alignment:1.0 ~freq_mhz:1.0 ~n_b:1 ~n_k:1
  in
  List.map
    (fun (workers, parallel) ->
      if workers < 1 then invalid_arg "Throughput.scaling: workers < 1";
      let measured = measured_speedup ~baseline ~parallel in
      let model = modeled workers in
      {
        workers;
        measured_speedup = measured;
        modeled_speedup = model;
        efficiency = measured /. model;
      })
    points

type fastpath_run = {
  fp_kernel : string;
  fp_qry_len : int;
  fp_ref_len : int;
  fp_cells : int;
  fp_n_pe : int;
  fp_systolic_ns : float;
  fp_bitpar_ns : float;
}

let fastpath_speedup r =
  if r.fp_bitpar_ns <= 0.0 then invalid_arg "fastpath_speedup: bitpar_ns <= 0";
  r.fp_systolic_ns /. r.fp_bitpar_ns

let fastpath_json runs =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"kernel\": %S, \"qry_len\": %d, \"ref_len\": %d, \
            \"cells\": %d, \"n_pe\": %d, \"systolic_ns\": %.0f, \
            \"bitpar_ns\": %.0f, \"systolic_mcells_s\": %.2f, \
            \"bitpar_mcells_s\": %.2f, \"speedup\": %.2f}"
           r.fp_kernel r.fp_qry_len r.fp_ref_len r.fp_cells r.fp_n_pe
           r.fp_systolic_ns r.fp_bitpar_ns
           (pe_cells_per_sec ~cells:r.fp_cells ~ns:r.fp_systolic_ns /. 1e6)
           (pe_cells_per_sec ~cells:r.fp_cells ~ns:r.fp_bitpar_ns /. 1e6)
           (fastpath_speedup r)))
    runs;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

type serve_soak = {
  sv_requests : int;
  sv_completed : int;
  sv_cache_hits : int;
  sv_rejected : int;
  sv_expired : int;
  sv_batches : int;
  sv_distinct_pairs : int;
  sv_wall_s : float;
  sv_p50_ms : float;
  sv_p99_ms : float;
  sv_max_ms : float;
  sv_slo_p99_ms : float;
  sv_rss_first_kb : int;
  sv_rss_last_kb : int;
}

let serve_req_per_sec s =
  if s.sv_wall_s <= 0.0 then invalid_arg "Throughput.serve_req_per_sec";
  float_of_int s.sv_completed /. s.sv_wall_s

let serve_json s =
  Printf.sprintf
    "{\"requests\": %d, \"completed\": %d, \"cache_hits\": %d, \
     \"cache_hit_rate\": %.4f, \"rejected\": %d, \"expired\": %d, \
     \"batches\": %d, \"distinct_pairs\": %d, \"wall_s\": %.3f, \
     \"req_per_s\": %.0f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, \
     \"max_ms\": %.4f, \"slo_p99_ms\": %.3f, \"rss_first_kb\": %d, \
     \"rss_last_kb\": %d}\n"
    s.sv_requests s.sv_completed s.sv_cache_hits
    (if s.sv_completed = 0 then 0.0
     else float_of_int s.sv_cache_hits /. float_of_int s.sv_completed)
    s.sv_rejected s.sv_expired s.sv_batches s.sv_distinct_pairs s.sv_wall_s
    (serve_req_per_sec s) s.sv_p50_ms s.sv_p99_ms s.sv_max_ms s.sv_slo_p99_ms
    s.sv_rss_first_kb s.sv_rss_last_kb
