open Dphls_core
module B = Dphls_baselines
module K11 = Dphls_kernels.K11_banded_global_linear
module Pretty = Dphls_util.Pretty

(* ---------- banding width ---------- *)

type band_point = {
  bandwidth : int;
  cycles : int;
  score : int;
  full_score : int;
  recovery : float;
  xdrop_cells : int;
  band_cells : int;
  a_score : int;  (** adaptive band at the same width, default threshold *)
  a_cells : int;
}

let banding ?(len = 192) ?(seed = Common.default_seed) () =
  let rng = Dphls_util.Rng.create seed in
  let reference = Dphls_alphabet.Dna.random rng len in
  (* indel-rich read so the optimal GLOBAL path drifts off the main
     diagonal; narrow bands must pay gap detours to stay inside *)
  let query =
    let reads =
      Dphls_seqgen.Read_sim.simulate rng ~genome:reference
        ~profile:(Dphls_seqgen.Read_sim.scaled Dphls_seqgen.Read_sim.pacbio_30 0.25)
        ~read_length:len ~count:1
    in
    let raw = (List.hd reads).Dphls_seqgen.Read_sim.sequence in
    (* equal lengths keep the bottom-right corner inside every band *)
    if Array.length raw >= len then Array.sub raw 0 len
    else Array.append raw (Array.sub reference 0 (len - Array.length raw))
  in
  let w = Workload.of_bases ~query ~reference in
  let p = K11.default in
  let full_score =
    B.Seqan_like.score
      (B.Seqan_like.dna_scoring ~match_:p.K11.match_ ~mismatch:p.mismatch
         ~gap:(B.Seqan_like.Linear p.gap) ~mode:B.Seqan_like.Global)
      ~query ~reference
  in
  let xdrop =
    B.Xdrop.align ~match_:p.K11.match_ ~mismatch:p.mismatch ~gap_open:0
      ~gap_extend:p.gap ~x:40 ~query ~reference
  in
  List.map
    (fun bandwidth ->
      let cfg = Dphls_systolic.Config.create ~n_pe:16 in
      let kernel = K11.kernel_with ~bandwidth in
      let result, stats = Dphls_systolic.Engine.run cfg kernel p w in
      let a_result, a_stats =
        Dphls_systolic.Engine.run cfg
          (K11.adaptive_with ~bandwidth ~threshold:Banding.default_threshold)
          p w
      in
      {
        bandwidth;
        cycles = stats.Dphls_systolic.Engine.cycles.Dphls_systolic.Engine.total;
        score = result.Result.score;
        full_score;
        recovery = float_of_int result.Result.score /. float_of_int (max 1 (abs full_score));
        xdrop_cells = xdrop.B.Xdrop.cells_explored;
        band_cells = stats.Dphls_systolic.Engine.pe_fires;
        a_score = a_result.Result.score;
        a_cells = a_stats.Dphls_systolic.Engine.pe_fires;
      })
    [ 2; 4; 8; 16; 32; 64 ]

(* ---------- tiling geometry ---------- *)

type tiling_point = {
  tile : int;
  overlap : int;
  recovery : float;
  total_cycles : int;
}

let tiling ?(read_length = 768) ?(seed = Common.default_seed) () =
  let module K2 = Dphls_kernels.K02_global_affine in
  let rng = Dphls_util.Rng.create seed in
  let genome = Dphls_seqgen.Dna_gen.genome rng (read_length * 2) in
  let read =
    List.hd
      (Dphls_seqgen.Read_sim.simulate rng ~genome
         ~profile:(Dphls_seqgen.Read_sim.scaled Dphls_seqgen.Read_sim.pacbio_30 0.12)
         ~read_length ~count:1)
  in
  let qb, rb = Dphls_seqgen.Read_sim.pair_for_alignment read in
  let p = K2.default in
  let exact =
    B.Gact_rtl.score ~match_:p.K2.match_ ~mismatch:p.K2.mismatch
      ~gap_open:p.K2.gap_open ~gap_extend:p.K2.gap_extend ~query:qb ~reference:rb
  in
  let query = Types.seq_of_bases qb and reference = Types.seq_of_bases rb in
  let run_tile =
    Dphls_systolic.Engine.tile_runner
      (Dphls_systolic.Config.create ~n_pe:16)
      K2.kernel p
  in
  List.map
    (fun (tile, overlap) ->
      let outcome =
        Dphls_tiling.Tiling.align { Dphls_tiling.Tiling.tile; overlap } ~run:run_tile
          ~query ~reference
      in
      let score =
        Rescore.affine
          ~sub:(fun q r -> if q.(0) = r.(0) then p.K2.match_ else p.K2.mismatch)
          ~gap_open:p.K2.gap_open ~gap_extend:p.K2.gap_extend ~query ~reference
          ~start_row:0 ~start_col:0 outcome.Dphls_tiling.Tiling.path
      in
      {
        tile;
        overlap;
        recovery = float_of_int score /. float_of_int (max 1 exact);
        total_cycles =
          List.fold_left (fun a (_, _, c) -> a + c) 0
            outcome.Dphls_tiling.Tiling.tile_stats;
      })
    [ (64, 8); (64, 24); (128, 8); (128, 32); (256, 32) ]

(* ---------- host arbiter bandwidth ---------- *)

type arbiter_point = {
  bytes_per_cycle : int;
  throughput : float;
  bandwidth_bound : bool;
}

let arbiter ?(len = 256) () =
  let e = Dphls_kernels.Catalog.find 1 in
  let (Registry.Packed (k, p)) = e.packed in
  let rng = Dphls_util.Rng.create Common.default_seed in
  let w = e.Dphls_kernels.Catalog.gen rng ~len in
  let _, stats =
    Dphls_systolic.Engine.run (Dphls_systolic.Config.create ~n_pe:32) k p w
  in
  let compute = stats.Dphls_systolic.Engine.cycles.Dphls_systolic.Engine.total in
  List.map
    (fun bytes_per_cycle ->
      let job =
        Dphls_host.Scheduler.job_for ~qry_len:len ~ref_len:len ~compute
          ~path_len:(2 * len) ~bytes_per_cycle
      in
      let jobs = List.init 64 (fun _ -> job) in
      let report = Dphls_host.Scheduler.run_channel ~n_b:16 jobs in
      {
        bytes_per_cycle;
        throughput =
          Dphls_host.Scheduler.device_throughput ~n_k:1 ~n_b:16 ~freq_mhz:250.0 jobs;
        bandwidth_bound = report.Dphls_host.Scheduler.bandwidth_bound;
      })
    [ 1; 4; 16; 64 ]

(* ---------- score bit-width (#2) ---------- *)

type width_point = { score_bits : int; lut : float; ff : float }

let score_width ?(len = 256) () =
  let base = Dphls_kernels.K02_global_affine.kernel in
  let p = Dphls_kernels.K02_global_affine.default in
  let cfg = { Dphls_resource.Estimate.n_pe = 32; max_qry = len; max_ref = len } in
  List.map
    (fun score_bits ->
      let k = { base with Kernel.score_bits } in
      let u = Dphls_resource.Estimate.block (Registry.Packed (k, p)) cfg in
      {
        score_bits;
        lut = u.Dphls_resource.Device.lut;
        ff = u.Dphls_resource.Device.ff;
      })
    [ 8; 12; 16; 24; 32 ]

(* ---------- initiation interval (#8) ---------- *)

type ii_point = { ii : int; cycles : int; alignments_per_sec : float }

let initiation_interval ?(len = 128) () =
  let module K8 = Dphls_kernels.K08_profile in
  let rng = Dphls_util.Rng.create Common.default_seed in
  let e = Dphls_kernels.Catalog.find 8 in
  let w = e.Dphls_kernels.Catalog.gen rng ~len in
  List.map
    (fun ii ->
      let kernel =
        { K8.kernel with Kernel.traits = { K8.kernel.Kernel.traits with Traits.ii } }
      in
      let _, stats =
        Dphls_systolic.Engine.run (Dphls_systolic.Config.create ~n_pe:16) kernel
          K8.default w
      in
      let cycles = stats.Dphls_systolic.Engine.cycles.Dphls_systolic.Engine.total in
      {
        ii;
        cycles;
        alignments_per_sec =
          Dphls_host.Throughput.alignments_per_sec
            ~cycles_per_alignment:(float_of_int cycles) ~freq_mhz:166.7 ~n_b:1 ~n_k:1;
      })
    [ 1; 2; 4 ]

let run ?(quick = false) () =
  let len = if quick then 96 else 192 in
  Pretty.print_table
    ~title:"Ablation — banding width (#11, global): fixed vs adaptive vs full NW and X-Drop"
    ~header:
      [ "band"; "cycles"; "score"; "full"; "recovery"; "band cells";
        "adaptive score"; "adaptive cells"; "xdrop cells" ]
    (List.map
       (fun p ->
         [
           string_of_int p.bandwidth;
           string_of_int p.cycles;
           string_of_int p.score;
           string_of_int p.full_score;
           Printf.sprintf "%.3f" p.recovery;
           string_of_int p.band_cells;
           (* a pruned-away corner makes global alignment fail outright *)
           (if p.a_score = Dphls_util.Score.worst_value Dphls_util.Score.Maximize
            then "fail"
            else string_of_int p.a_score);
           string_of_int p.a_cells;
           string_of_int p.xdrop_cells;
         ])
       (banding ~len ()));
  Pretty.print_table ~title:"Ablation — tiling geometry (#2)"
    ~header:[ "tile"; "overlap"; "recovery"; "cycles" ]
    (List.map
       (fun p ->
         [
           string_of_int p.tile;
           string_of_int p.overlap;
           Printf.sprintf "%.4f" p.recovery;
           string_of_int p.total_cycles;
         ])
       (tiling ~read_length:(if quick then 512 else 768) ()));
  Pretty.print_table ~title:"Ablation — host arbiter bandwidth (#1, N_B=16)"
    ~header:[ "bytes/cycle"; "aligns/s"; "bandwidth bound" ]
    (List.map
       (fun p ->
         [
           string_of_int p.bytes_per_cycle;
           Pretty.sci p.throughput;
           string_of_bool p.bandwidth_bound;
         ])
       (arbiter ()));
  Pretty.print_table
    ~title:"Ablation — score bit-width (#2, arbitrary-precision datapath)"
    ~header:[ "score bits"; "LUT/block"; "FF/block" ]
    (List.map
       (fun p ->
         [
           string_of_int p.score_bits;
           Printf.sprintf "%.0f" p.lut;
           Printf.sprintf "%.0f" p.ff;
         ])
       (score_width ()));
  Pretty.print_table ~title:"Ablation — initiation interval (#8)"
    ~header:[ "II"; "cycles"; "aligns/s (1 block)" ]
    (List.map
       (fun p ->
         [ string_of_int p.ii; string_of_int p.cycles; Pretty.sci p.alignments_per_sec ])
       (initiation_interval ()))
