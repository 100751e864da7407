open Dphls_core
module Ref_engine = Dphls_reference.Ref_engine
module Sim = Dphls_systolic.Engine

type mismatch = {
  index : int;
  golden : Result.t;
  systolic : Result.t;
}

type report = {
  total : int;
  agreed : int;
  mismatches : mismatch list;
  truncated : bool;
  mean_cycles : float;
  mean_utilization : float;
}

let passed r = r.agreed = r.total

let verify ?(n_pe = 16) ?(max_mismatches = 8) ?alt_pe ?vectors kernel params
    workloads =
  (* [band_pe] replays the simulator's [n_pe]-row chunked traversal on
     the golden side, so adaptive bands prune the exact same cells *)
  let run_golden k w = Ref_engine.run ~band_pe:n_pe k params w in
  let array = Dphls_systolic.Config.create ~n_pe in
  let total = List.length workloads in
  let agreed = ref 0 in
  let mismatches = ref [] in
  let n_mismatches = ref 0 in
  let cycles_sum = ref 0.0 in
  let util_sum = ref 0.0 in
  List.iteri
    (fun index w ->
      let golden = run_golden kernel w in
      let trace =
        match vectors with
        | None -> Dphls_systolic.Trace.create ~enabled:false
        | Some _ -> Dphls_systolic.Trace.create_capture ()
      in
      let systolic, stats = Sim.run ~trace array kernel params w in
      (match vectors with
      | None -> ()
      | Some dir ->
        let v =
          Dphls_vectors.Capture.of_trace kernel params ~n_pe ~workload:w
            ~trace ~result:systolic
        in
        let path =
          Filename.concat dir
            (Printf.sprintf "cosim_%s_w%03d.dpv" kernel.Kernel.name index)
        in
        Dphls_vectors.Codec.write_file path v);
      cycles_sum := !cycles_sum +. float_of_int stats.Sim.cycles.Sim.total;
      util_sum := !util_sum +. stats.Sim.utilization;
      let alt_ok =
        match alt_pe with
        | None -> true
        | Some dp ->
          let alt = { kernel with Kernel.datapath = (fun _ -> dp) } in
          Result.equal_alignment golden (run_golden alt w)
      in
      if Result.equal_alignment golden systolic && alt_ok then
        incr agreed
      else begin
        incr n_mismatches;
        if List.length !mismatches < max_mismatches then
          mismatches := { index; golden; systolic } :: !mismatches
      end)
    workloads;
  {
    total;
    agreed = !agreed;
    mismatches = List.rev !mismatches;
    truncated = !n_mismatches > List.length !mismatches;
    mean_cycles = (if total = 0 then 0.0 else !cycles_sum /. float_of_int total);
    mean_utilization = (if total = 0 then 0.0 else !util_sum /. float_of_int total);
  }

let pp_report fmt r =
  Format.fprintf fmt "co-simulation: %d/%d agreed; mean %.0f cycles, %.0f%% PE utilization"
    r.agreed r.total r.mean_cycles (100.0 *. r.mean_utilization);
  List.iter
    (fun m ->
      Format.fprintf fmt "@\n  mismatch at workload %d:@\n    golden  %a@\n    systolic %a"
        m.index Result.pp m.golden Result.pp m.systolic)
    r.mismatches;
  if r.truncated then
    Format.fprintf fmt "@\n  ... and %d more mismatching workload%s not shown"
      (r.total - r.agreed - List.length r.mismatches)
      (if r.total - r.agreed - List.length r.mismatches = 1 then "" else "s")
