module Pretty = Dphls_util.Pretty
module B = Dphls_baselines

type comparison = {
  kernel_id : int;
  baseline : string;
  dphls_throughput : float;
  rtl_throughput : float;
  gap_pct : float;
  paper_gap_pct : float;
  dphls_util : Dphls_resource.Device.percentages;
  rtl_util : Dphls_resource.Device.percentages;
}

let n_pe = 32

let percent u = Dphls_resource.Device.percent_of Dphls_resource.Device.xcvu9p u

let compare_one ~kernel_id ~baseline ~len ~samples ~rtl_cycles ~rtl_freq
    ~rtl_util ~paper_gap_pct =
  let e = Dphls_kernels.Catalog.find kernel_id in
  let dphls_total, tb_steps = Common.median_cycles e.packed ~gen:e.gen ~n_pe ~len ~samples in
  let freq = Dphls_resource.Estimate.max_frequency_mhz e.packed in
  let dphls_tp =
    Dphls_host.Throughput.alignments_per_sec ~cycles_per_alignment:dphls_total
      ~freq_mhz:freq ~n_b:1 ~n_k:1
  in
  let rtl_model = rtl_cycles ~tb_steps in
  let rtl_tp =
    B.Rtl_model.throughput ~n_pe ~n_b:1 ~freq_mhz:rtl_freq
      ~cycles_total:rtl_model.B.Rtl_model.total
  in
  let cfg = { Dphls_resource.Estimate.n_pe; max_qry = len; max_ref = len } in
  {
    kernel_id;
    baseline;
    dphls_throughput = dphls_tp;
    rtl_throughput = rtl_tp;
    gap_pct = (rtl_tp -. dphls_tp) /. rtl_tp *. 100.0;
    paper_gap_pct;
    dphls_util = percent (Dphls_resource.Estimate.block e.packed cfg);
    rtl_util = percent (rtl_util ~max_qry:len ~max_ref:len);
  }

let compute ?(samples = 3) () =
  let len = 256 in
  [
    compare_one ~kernel_id:2 ~baseline:"GACT" ~len ~samples
      ~rtl_cycles:(fun ~tb_steps ->
        B.Gact_rtl.cycles ~n_pe ~qry_len:len ~ref_len:len ~tb_steps)
      ~rtl_freq:B.Gact_rtl.freq_mhz
      ~rtl_util:(fun ~max_qry ~max_ref -> B.Gact_rtl.utilization ~n_pe ~max_qry ~max_ref)
      ~paper_gap_pct:7.7;
    compare_one ~kernel_id:12 ~baseline:"BSW" ~len ~samples
      ~rtl_cycles:(fun ~tb_steps:_ ->
        B.Bsw_rtl.cycles ~n_pe ~qry_len:len ~ref_len:len
          ~bandwidth:Dphls_kernels.K12_banded_local_affine.default_bandwidth)
      ~rtl_freq:B.Bsw_rtl.freq_mhz
      ~rtl_util:(fun ~max_qry ~max_ref -> B.Bsw_rtl.utilization ~n_pe ~max_qry ~max_ref)
      ~paper_gap_pct:16.8;
    compare_one ~kernel_id:14 ~baseline:"SquiggleFilter" ~len ~samples
      ~rtl_cycles:(fun ~tb_steps:_ ->
        B.Squigglefilter_rtl.cycles ~n_pe ~qry_len:len ~ref_len:len)
      ~rtl_freq:B.Squigglefilter_rtl.freq_mhz
      ~rtl_util:(fun ~max_qry ~max_ref ->
        B.Squigglefilter_rtl.utilization ~n_pe ~max_qry ~max_ref)
      ~paper_gap_pct:8.16;
  ]

let run ?samples () =
  let rows = compute ?samples () in
  Pretty.print_table
    ~title:"Fig 4 — DP-HLS vs hand-written RTL (N_PE=32, one block)"
    ~header:
      [ "#"; "baseline"; "dphls aligns/s"; "rtl aligns/s"; "gap%"; "paper gap%";
        "dphls LUT/FF/BRAM%"; "rtl LUT/FF/BRAM%" ]
    (List.map
       (fun c ->
         let u (p : Dphls_resource.Device.percentages) =
           Printf.sprintf "%.2f/%.2f/%.2f" (100.0 *. p.lut_pct) (100.0 *. p.ff_pct)
             (100.0 *. p.bram_pct)
         in
         [
           string_of_int c.kernel_id;
           c.baseline;
           Pretty.sci c.dphls_throughput;
           Pretty.sci c.rtl_throughput;
           Printf.sprintf "%.1f" c.gap_pct;
           Printf.sprintf "%.1f" c.paper_gap_pct;
           u c.dphls_util;
           u c.rtl_util;
         ])
       rows)
