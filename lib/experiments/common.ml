open Dphls_core

let default_seed = 20260706

let median_cycles packed ~gen ~n_pe ~len ~samples =
  let module Engine = Dphls_systolic.Engine in
  let (Registry.Packed (k, p)) = packed in
  let rng = Dphls_util.Rng.create default_seed in
  let cfg = Dphls_systolic.Config.create ~n_pe in
  let cycles =
    Array.init samples (fun _ ->
        let w = gen rng ~len in
        (snd (Engine.run cfg k p w)).Engine.cycles)
  in
  let median term = Dphls_util.Stats.median (Array.map (fun c -> float_of_int (term c)) cycles) in
  (median (fun c -> c.Engine.total), int_of_float (median (fun c -> c.Engine.traceback)))

let model_throughput packed ~gen ~n_pe ~n_b ~n_k ~len ~samples =
  let cycles, _ = median_cycles packed ~gen ~n_pe ~len ~samples in
  let freq_mhz = Dphls_resource.Estimate.max_frequency_mhz packed in
  Dphls_host.Throughput.alignments_per_sec ~cycles_per_alignment:cycles ~freq_mhz
    ~n_b ~n_k

let time_per_call f ~min_seconds =
  (* Warm up once, then batch until enough wall time has accumulated. *)
  f ();
  let calls = ref 0 in
  let start = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. start in
  while elapsed () < min_seconds do
    f ();
    incr calls
  done;
  elapsed () /. float_of_int (max 1 !calls)

let cpu_scaled_throughput ~per_call_seconds ~native_factor =
  float_of_int Dphls_baselines.Seqan_like.threads_scale
  *. native_factor /. per_call_seconds
