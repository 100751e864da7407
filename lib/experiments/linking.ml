module Pretty = Dphls_util.Pretty

type channel = {
  kernel_id : int;
  n_pe : int;
  n_b : int;
  throughput : float;
}

type result = {
  channels : channel list;
  total_throughput : float;
  lut_pct : float;
  bram_pct : float;
  dsp_pct : float;
  fits : bool;
}

(* The mixed pipeline: sDTW read filter, semi-global mapper, global
   affine polisher, sharing one device. *)
let mix = [ (14, 32, 8); (7, 32, 8); (2, 32, 8) ]

let compute ?(samples = 2) () =
  let instances =
    List.map
      (fun (id, n_pe, n_b) ->
        let e = Dphls_kernels.Catalog.find id in
        { Link.packed = e.packed; n_pe; n_b; max_len = e.default_len })
      mix
  in
  match Link.plan instances with
  | Error msg -> failwith ("Linking.compute: " ^ msg)
  | Ok plan ->
    let cycles_table = Hashtbl.create 4 in
    List.iter
      (fun (id, n_pe, _) ->
        let e = Dphls_kernels.Catalog.find id in
        let cycles, _ = Common.median_cycles e.packed ~gen:e.gen ~n_pe ~len:e.default_len ~samples in
        Hashtbl.replace cycles_table id cycles)
      mix;
    let cycles_of (inst : Link.instance) =
      Hashtbl.find cycles_table (Dphls_core.Registry.id inst.Link.packed)
    in
    let channels =
      List.map
        (fun (id, n_pe, n_b) ->
          let e = Dphls_kernels.Catalog.find id in
          let freq = Dphls_resource.Estimate.max_frequency_mhz e.packed in
          {
            kernel_id = id;
            n_pe;
            n_b;
            throughput =
              Dphls_host.Throughput.alignments_per_sec
                ~cycles_per_alignment:(Hashtbl.find cycles_table id) ~freq_mhz:freq
                ~n_b ~n_k:1;
          })
        mix
    in
    let p = Link.percent plan in
    {
      channels;
      total_throughput = Link.throughput plan ~cycles_of;
      lut_pct = 100.0 *. p.Dphls_resource.Device.lut_pct;
      bram_pct = 100.0 *. p.Dphls_resource.Device.bram_pct;
      dsp_pct = 100.0 *. p.Dphls_resource.Device.dsp_pct;
      fits = true;
    }

let run ?samples () =
  let r = compute ?samples () in
  Pretty.print_table
    ~title:
      "Linking — heterogeneous device: sDTW filter + semi-global mapper + global \
       polisher (one F1 card)"
    ~header:[ "kernel"; "N_PE"; "N_B"; "aligns/s" ]
    (List.map
       (fun c ->
         [
           Printf.sprintf "#%d" c.kernel_id;
           string_of_int c.n_pe;
           string_of_int c.n_b;
           Pretty.sci c.throughput;
         ])
       r.channels);
  Printf.printf
    "aggregate %s alignments/s; device: %.1f%% LUT, %.1f%% BRAM, %.2f%% DSP (fits: %b)\n"
    (Pretty.sci r.total_throughput) r.lut_pct r.bram_pct r.dsp_pct r.fits
