module Json = Dphls_util.Json

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
  let opt_int = function None -> Json.Null | Some v -> Json.int v in
  Json.(
    to_string
      (Arr
         (List.map
            (fun r ->
              Obj
                [
                  ("mode", Str r.mode);
                  ("width", opt_int r.width);
                  ("threshold", opt_int r.threshold);
                  ("score", int r.score);
                  ("cells_computed", int r.cells_computed);
                  ("total_cells", int r.total_cells);
                  ("cells_fraction", Num (cells_fraction r));
                  ("device_cycles", int r.device_cycles);
                  ("wall_ns", Num r.wall_ns);
                ])
            runs)))

type pe_run = {
  kernel : string;
  cells : int;
  eval_ns : float;
  compiled_ns : float;
  generated_ns : float;
}

let pe_cells_per_sec ~cells ~ns =
  if ns <= 0.0 then invalid_arg "Throughput.pe_cells_per_sec";
  float_of_int cells /. (ns /. 1e9)

let pe_speedup r =
  if r.compiled_ns <= 0.0 then invalid_arg "Throughput.pe_speedup";
  r.eval_ns /. r.compiled_ns

let pe_json runs =
  Json.(
    to_string
      (Arr
         (List.map
            (fun r ->
              Obj
                [
                  ("kernel", Str r.kernel);
                  ("cells", int r.cells);
                  ("eval_ns", Num r.eval_ns);
                  ("compiled_ns", Num r.compiled_ns);
                  ("generated_ns", Num r.generated_ns);
                  ( "eval_cells_per_sec",
                    Num (pe_cells_per_sec ~cells:r.cells ~ns:r.eval_ns) );
                  ( "compiled_cells_per_sec",
                    Num (pe_cells_per_sec ~cells:r.cells ~ns:r.compiled_ns) );
                  ( "generated_cells_per_sec",
                    Num (pe_cells_per_sec ~cells:r.cells ~ns:r.generated_ns) );
                  ("speedup", Num (pe_speedup r));
                ])
            runs)))

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
  Json.(
    to_string
      (Arr
         (List.map
            (fun r ->
              Obj
                [
                  ("kernel", Str r.kernel);
                  ("n_pe", int r.n_pe);
                  ("alignments", int r.alignments);
                  ("freq_mhz", Num r.freq_mhz);
                  ("seq_cycles", int r.seq_cycles);
                  ("overlapped_cycles", int r.overlapped_cycles);
                  ("hidden_cycles", int r.hidden_cycles);
                  ("cycle_reduction", Num (overlap_cycle_reduction r));
                  ("seq_device_ns", Num (overlap_device_ns r r.seq_cycles));
                  ( "overlap_device_ns",
                    Num (overlap_device_ns r r.overlapped_cycles) );
                  ("device_wall_speedup", Num (overlap_device_speedup r));
                  ("seq_host_ns", Num r.seq_host_ns);
                  ("overlap_host_ns", Num r.overlap_host_ns);
                ])
            runs)))

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
  Json.(
    to_string
      (Arr
         (List.map
            (fun r ->
              Obj
                [
                  ("kernel", Str r.fp_kernel);
                  ("qry_len", int r.fp_qry_len);
                  ("ref_len", int r.fp_ref_len);
                  ("cells", int r.fp_cells);
                  ("n_pe", int r.fp_n_pe);
                  ("systolic_ns", Num r.fp_systolic_ns);
                  ("bitpar_ns", Num r.fp_bitpar_ns);
                  ( "systolic_mcells_s",
                    Num
                      (pe_cells_per_sec ~cells:r.fp_cells ~ns:r.fp_systolic_ns
                      /. 1e6) );
                  ( "bitpar_mcells_s",
                    Num
                      (pe_cells_per_sec ~cells:r.fp_cells ~ns:r.fp_bitpar_ns
                      /. 1e6) );
                  ("speedup", Num (fastpath_speedup r));
                ])
            runs)))

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
  Json.(
    to_string
      (Obj
         [
           ("requests", int s.sv_requests);
           ("completed", int s.sv_completed);
           ("cache_hits", int s.sv_cache_hits);
           ( "cache_hit_rate",
             Num
               (if s.sv_completed = 0 then 0.0
                else float_of_int s.sv_cache_hits /. float_of_int s.sv_completed) );
           ("rejected", int s.sv_rejected);
           ("expired", int s.sv_expired);
           ("batches", int s.sv_batches);
           ("distinct_pairs", int s.sv_distinct_pairs);
           ("wall_s", Num s.sv_wall_s);
           ("req_per_s", Num (serve_req_per_sec s));
           ("p50_ms", Num s.sv_p50_ms);
           ("p99_ms", Num s.sv_p99_ms);
           ("max_ms", Num s.sv_max_ms);
           ("slo_p99_ms", Num s.sv_slo_p99_ms);
           ("rss_first_kb", int s.sv_rss_first_kb);
           ("rss_last_kb", int s.sv_rss_last_kb);
         ]))
