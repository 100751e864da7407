module Pretty = Dphls_util.Pretty
module B = Dphls_baselines

type point = {
  n_pe : int;
  dphls_throughput : float;
  gact_throughput : float;
  dphls_ff : float;
  gact_ff : float;
  dphls_lut : float;
  gact_lut : float;
}

let compute ?(samples = 3) () =
  let len = 256 in
  let e = Dphls_kernels.Catalog.find 2 in
  List.map
    (fun n_pe ->
      let dphls_cycles, tb_steps = Common.median_cycles e.packed ~gen:e.gen ~n_pe ~len ~samples in
      let freq = Dphls_resource.Estimate.max_frequency_mhz e.packed in
      let dphls_tp =
        Dphls_host.Throughput.alignments_per_sec ~cycles_per_alignment:dphls_cycles
          ~freq_mhz:freq ~n_b:1 ~n_k:1
      in
      let rtl = B.Gact_rtl.cycles ~n_pe ~qry_len:len ~ref_len:len ~tb_steps in
      let gact_tp =
        B.Rtl_model.throughput ~n_pe ~n_b:1 ~freq_mhz:B.Gact_rtl.freq_mhz
          ~cycles_total:rtl.B.Rtl_model.total
      in
      let block_cfg = { Dphls_resource.Estimate.n_pe; max_qry = len; max_ref = len } in
      let du =
        Dphls_resource.Device.percent_of Dphls_resource.Device.xcvu9p
          (Dphls_resource.Estimate.block e.packed block_cfg)
      in
      let gu =
        Dphls_resource.Device.percent_of Dphls_resource.Device.xcvu9p
          (B.Gact_rtl.utilization ~n_pe ~max_qry:len ~max_ref:len)
      in
      {
        n_pe;
        dphls_throughput = dphls_tp;
        gact_throughput = gact_tp;
        dphls_ff = 100.0 *. du.Dphls_resource.Device.ff_pct;
        gact_ff = 100.0 *. gu.Dphls_resource.Device.ff_pct;
        dphls_lut = 100.0 *. du.Dphls_resource.Device.lut_pct;
        gact_lut = 100.0 *. gu.Dphls_resource.Device.lut_pct;
      })
    [ 4; 8; 16; 32; 64 ]

let run ?samples () =
  Pretty.print_table
    ~title:"Fig 5 — kernel #2 vs GACT with increasing N_PE (N_B=1)"
    ~header:
      [ "N_PE"; "dphls aligns/s"; "GACT aligns/s"; "dphls FF%"; "GACT FF%";
        "dphls LUT%"; "GACT LUT%" ]
    (List.map
       (fun pt ->
         [
           string_of_int pt.n_pe;
           Pretty.sci pt.dphls_throughput;
           Pretty.sci pt.gact_throughput;
           Printf.sprintf "%.3f" pt.dphls_ff;
           Printf.sprintf "%.3f" pt.gact_ff;
           Printf.sprintf "%.3f" pt.dphls_lut;
           Printf.sprintf "%.3f" pt.gact_lut;
         ])
       (compute ?samples ()))
