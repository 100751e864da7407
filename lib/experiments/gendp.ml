module B = Dphls_baselines
module Pretty = Dphls_util.Pretty

type row = {
  kernel_id : int;
  instructions : int;
  gendp_ii : int;
  dphls_throughput : float;
  gendp_throughput : float;
  throughput_ratio : float;
  lut_overhead : float;
}

let n_pe = 32
let lanes = 4

let compute ?(samples = 2) ?(kernels = [ 1; 2; 5; 15 ]) () =
  List.map
    (fun id ->
      let e = Dphls_kernels.Catalog.find id in
      let len = e.default_len in
      let dphls_cycles, tb_steps = Common.median_cycles e.packed ~gen:e.gen ~n_pe ~len ~samples in
      let freq = Dphls_resource.Estimate.max_frequency_mhz e.packed in
      let dphls_tp =
        Dphls_host.Throughput.alignments_per_sec ~cycles_per_alignment:dphls_cycles
          ~freq_mhz:freq ~n_b:1 ~n_k:1
      in
      let gendp_cycles =
        B.Gendp_model.cycles e.packed ~n_pe ~lanes ~qry_len:len ~ref_len:len
          ~tb_steps
      in
      let gendp_tp =
        Dphls_host.Throughput.alignments_per_sec
          ~cycles_per_alignment:(float_of_int gendp_cycles) ~freq_mhz:freq ~n_b:1
          ~n_k:1
      in
      let block_cfg = { Dphls_resource.Estimate.n_pe; max_qry = len; max_ref = len } in
      let dphls_lut =
        (Dphls_resource.Estimate.block e.packed block_cfg).Dphls_resource.Device.lut
      in
      let gendp_lut =
        (B.Gendp_model.utilization e.packed ~n_pe ~max_qry:len ~max_ref:len)
          .Dphls_resource.Device.lut
      in
      {
        kernel_id = id;
        instructions = B.Gendp_model.instructions_per_cell e.packed;
        gendp_ii = B.Gendp_model.effective_ii e.packed ~lanes;
        dphls_throughput = dphls_tp;
        gendp_throughput = gendp_tp;
        throughput_ratio = dphls_tp /. gendp_tp;
        lut_overhead = gendp_lut /. dphls_lut;
      })
    kernels

let run ?samples () =
  Pretty.print_table
    ~title:
      "GenDP-on-FPGA — circuit-specialized vs software-programmable PEs (N_PE=32, \
       4-lane PEs)"
    ~header:
      [ "#"; "insns/cell"; "gendp II"; "dphls aligns/s"; "gendp aligns/s"; "ratio";
        "LUT overhead" ]
    (List.map
       (fun r ->
         [
           string_of_int r.kernel_id;
           string_of_int r.instructions;
           string_of_int r.gendp_ii;
           Pretty.sci r.dphls_throughput;
           Pretty.sci r.gendp_throughput;
           Pretty.ratio r.throughput_ratio;
           Pretty.ratio r.lut_overhead;
         ])
       (compute ?samples ()))
