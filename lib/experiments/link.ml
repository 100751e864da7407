type instance = {
  packed : Dphls_core.Registry.packed;
  n_pe : int;
  n_b : int;
  max_len : int;
}

type plan = { list : instance list; total : Dphls_resource.Device.utilization }

let block_cfg inst =
  {
    Dphls_resource.Estimate.n_pe = inst.n_pe;
    max_qry = inst.max_len;
    max_ref = inst.max_len;
  }

let plan instances =
  if instances = [] then Error "empty link plan"
  else begin
    match
      List.find_opt
        (fun i -> i.n_pe < 1 || i.n_b < 1 || i.max_len < 1)
        instances
    with
    | Some bad ->
      Error
        (Printf.sprintf "invalid instance for kernel %s"
           (Dphls_core.Registry.name bad.packed))
    | None ->
      let total =
        List.fold_left
          (fun acc inst ->
            Dphls_resource.Device.add acc
              (Dphls_resource.Estimate.full inst.packed (block_cfg inst)
                 ~n_b:inst.n_b ~n_k:1))
          Dphls_resource.Device.zero instances
      in
      if Dphls_resource.Device.fits Dphls_resource.Device.xcvu9p total then
        Ok { list = instances; total }
      else
        Error
          (Printf.sprintf "combination exceeds the device (%.1f%% LUT, %.1f%% DSP)"
             (100.0 *. total.Dphls_resource.Device.lut
             /. float_of_int Dphls_resource.Device.xcvu9p.Dphls_resource.Device.luts)
             (100.0 *. total.Dphls_resource.Device.dsp
             /. float_of_int Dphls_resource.Device.xcvu9p.Dphls_resource.Device.dsps))
  end

let utilization p = p.total
let percent p = Dphls_resource.Device.percent_of Dphls_resource.Device.xcvu9p p.total
let instances p = p.list

let throughput p ~cycles_of =
  List.fold_left
    (fun acc inst ->
      let freq = Dphls_resource.Estimate.max_frequency_mhz inst.packed in
      acc
      +. Dphls_host.Throughput.alignments_per_sec
           ~cycles_per_alignment:(cycles_of inst) ~freq_mhz:freq ~n_b:inst.n_b
           ~n_k:1)
    0.0 p.list
