module Json = Dphls_util.Json

let alignments_per_sec ~cycles_per_alignment ~freq_mhz ~n_b ~n_k =
  if cycles_per_alignment <= 0.0 then invalid_arg "Throughput: non-positive cycles";
  float_of_int (n_b * n_k) *. freq_mhz *. 1e6 /. cycles_per_alignment

let cells_per_sec ~cycles_per_alignment ~freq_mhz ~n_b ~n_k ~cells =
  alignments_per_sec ~cycles_per_alignment ~freq_mhz ~n_b ~n_k *. float_of_int cells

let iso_cost ~throughput ~cost_per_hour ~reference_cost_per_hour =
  if cost_per_hour <= 0.0 then invalid_arg "Throughput.iso_cost";
  throughput *. reference_cost_per_hour /. cost_per_hour

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

type row = {
  rung : string;
  kernel : string;
  len : int option;
  n_pe : int option;
  workers : int option;
  metric : string;
  unit : string;
  value : float;
}

let rows_json rows =
  let opt_int = function None -> Json.Null | Some v -> Json.int v in
  Json.(
    to_string
      (Arr
         (List.map
            (fun r ->
              Obj
                [
                  ("rung", Str r.rung);
                  ("kernel", Str r.kernel);
                  ("len", opt_int r.len);
                  ("n_pe", opt_int r.n_pe);
                  ("workers", opt_int r.workers);
                  ("metric", Str r.metric);
                  ("unit", Str r.unit);
                  ("value", Num r.value);
                ])
            rows)))
