module B = Dphls_baselines

type result = {
  dphls_throughput : float;
  hls_throughput : float;
  gain_pct : float;
  paper_gain_pct : float;
}

let n_pe = 32
let n_b = 32

let compute ?(samples = 3) () =
  let e = Dphls_kernels.Catalog.find 3 in
  let len = e.default_len in
  let dphls_cycles, tb_steps = Common.median_cycles e.packed ~gen:e.gen ~n_pe ~len ~samples in
  let freq = Dphls_resource.Estimate.max_frequency_mhz e.packed in
  let dphls =
    Dphls_host.Throughput.alignments_per_sec ~cycles_per_alignment:dphls_cycles
      ~freq_mhz:freq ~n_b ~n_k:1
  in
  let hls = B.Vitis_hls_model.throughput ~n_pe ~n_b ~qry_len:len ~ref_len:len ~tb_steps in
  {
    dphls_throughput = dphls;
    hls_throughput = hls;
    gain_pct = (dphls -. hls) /. hls *. 100.0;
    paper_gain_pct = Paper_data.sec7_5_hls_gain_pct;
  }

let run ?samples () =
  let r = compute ?samples () in
  Dphls_util.Pretty.print_table
    ~title:"Sec 7.5 — kernel #3 vs Vitis Genomics HLS baseline (N_PE=32, N_B=32)"
    ~header:[ "dphls aligns/s"; "hls aligns/s"; "gain%"; "paper gain%" ]
    [
      [
        Dphls_util.Pretty.sci r.dphls_throughput;
        Dphls_util.Pretty.sci r.hls_throughput;
        Printf.sprintf "%.1f" r.gain_pct;
        Printf.sprintf "%.1f" r.paper_gain_pct;
      ];
    ]
