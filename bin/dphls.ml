(* dphls — command-line front-end to the DP-HLS reproduction.

   Subcommands:
     list                      show the Table 1 kernel catalog
     align                     align two sequences on a chosen kernel
     resources                 print the resource/frequency estimate
     experiment [NAME]         run one or all experiments *)

open Cmdliner
open Dphls_core

(* -k takes a catalog number or a kernel name, as the serve protocol's
   "kernel" field does; an unknown one exits 2 *)
let find_kernel spec =
  match Dphls_kernels.Catalog.lookup spec with
  | Some e -> e
  | None ->
    Printf.eprintf "unknown kernel %S; `dphls list` shows the catalog\n" spec;
    exit 2

(* ---- list ---- *)

let list_cmd =
  let run () =
    Dphls_util.Pretty.print_table ~title:"DP-HLS kernel catalog (Table 1)"
      ~header:[ "#"; "name"; "alphabet"; "layers"; "tb bits"; "application" ]
      (List.map
         (fun (e : Dphls_kernels.Catalog.entry) ->
           [
             string_of_int (Registry.id e.packed);
             Registry.name e.packed;
             e.alphabet;
             string_of_int (Registry.n_layers e.packed);
             string_of_int (Registry.tb_bits e.packed);
             e.application;
           ])
         Dphls_kernels.Catalog.all)
  in
  Cmd.v (Cmd.info "list" ~doc:"Show the 19-kernel catalog")
    Term.(const run $ const ())

(* ---- align ---- *)

(* --band none|fixed|adaptive overrides the kernel's own banding;
   "kernel" (the default) keeps it (None). One term for every command
   that takes a band, each with its own width default. An unknown mode
   or a width or threshold Banding rejects exits 2 with the reason. *)
let band_term ~width_default =
  let mode =
    Arg.(
      value & opt string "kernel"
      & info [ "band" ]
          ~doc:"Band override: kernel (keep), none, fixed or adaptive")
  in
  let width =
    Arg.(
      value & opt int width_default
      & info [ "band-width" ] ~doc:"Band half-width W")
  in
  let threshold =
    Arg.(
      value
      & opt int Banding.default_threshold
      & info [ "band-threshold" ] ~doc:"Adaptive-band score drop threshold")
  in
  let override mode width threshold =
    try
      match mode with
      | "kernel" -> None
      | "none" -> Some None
      | "fixed" -> Some (Some (Banding.fixed width))
      | "adaptive" -> Some (Some (Banding.adaptive ~threshold width))
      | other ->
        Printf.eprintf
          "unknown band mode %S (kernel | none | fixed | adaptive)\n" other;
        exit 2
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  Term.(const override $ mode $ width $ threshold)

(* Count flags: a value below 1, or above [max] where the flag has one,
   exits 2 naming the flag and its range, like a bad band or engine
   value, instead of failing inside an engine. A [None] default means
   "not given". *)
let count_opt ?max ?(short = []) ~doc name default =
  let check v =
    if v < 1 || Option.fold max ~none:false ~some:(fun m -> v > m) then begin
      Printf.eprintf "--%s must be %s (got %d)\n" name
        (match max with
        | Some m -> Printf.sprintf "in 1..%d" m
        | None -> ">= 1")
        v;
      exit 2
    end;
    v
  in
  let arg = Arg.(value & opt (some int) default & info (short @ [ name ]) ~doc) in
  Term.(const (Option.map check) $ arg)

let count ?max ?short ~doc name default =
  let given = count_opt ?max ?short ~doc name (Some default) in
  Term.(const Option.get $ given)

(* --n-pe, one definition for every command; where the command runs the
   systolic engine it is also capped at the Systolic.Config range *)
let n_pe_opt ?(systolic = true) ?(doc = "Processing elements") default =
  let max = if systolic then Some Dphls_systolic.Config.max_n_pe else None in
  count_opt ?max ~doc "n-pe" default

let n_pe ?systolic default =
  let given = n_pe_opt ?systolic (Some default) in
  Term.(const Option.get $ given)

(* --engine names an Engines.choice; "auto" defers to Engines.select per
   workload. Unknown names exit 2 listing the valid values, like the
   other enum flags. *)
let engine_choice ~n_pe mode =
  match Dphls_engines.Engines.of_string ~n_pe mode with
  | Ok choice -> choice
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

let engine_doc =
  "Engine: auto (fast path when provably safe), systolic, reference or bitpar"

(* An engine that refuses the kernel (bitpar on a traceback kernel)
   exits 2 with the reason, like a bad flag value. *)
let refusing f =
  try f ()
  with Dphls_engines.Engine_intf.Unsupported msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

let align_run kernel_spec query reference n_pe vcd_path band engine_mode =
  let e = find_kernel kernel_spec in
  let id = Registry.id e.packed in
  let encode =
    match Dphls_kernels.Catalog.text_encoder e with
    | Some encode -> encode
    | None ->
      Printf.eprintf
        "kernel #%d takes %s input; use the examples/ programs for signal and \
         profile workloads\n"
        id e.Dphls_kernels.Catalog.alphabet;
      exit 2
  in
  let w =
    try
      if query = "" || reference = "" then invalid_arg "qry and ref must be non-empty";
      Workload.of_bases ~query:(encode query) ~reference:(encode reference)
    with Invalid_argument msg ->
      (* an empty sequence or a letter outside the kernel's alphabet,
         as Server.admit answers it *)
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let (Registry.Packed (k, p)) = e.packed in
  let k = Kernel.with_band k band in
  let choice = engine_choice ~n_pe engine_mode in
  let qry_len, ref_len = Workload.sizes w in
  let engine = Dphls_engines.Engines.resolve ~qry_len ~ref_len choice k p in
  let engine_name = Dphls_engines.Engines.name engine in
  if vcd_path <> None && engine != Dphls_engines.Engines.systolic then begin
    Printf.eprintf
      "--vcd needs the systolic engine's capture stream (engine is %s)\n"
      engine_name;
    exit 2
  end;
  let { Dphls_engines.Engines.result; cycles; stats; _ } =
    match vcd_path with
    | None ->
      (* the shared dispatch, auto's modeled cycles included *)
      refusing (fun () ->
          (Dphls_engines.Engines.run_batch choice k p [| w |]).(0))
    | Some path ->
      (* the choice resolved to the simulator: run it here, filling the
         capture stream *)
      let trace = Dphls_systolic.Trace.create ~enabled:true in
      let result, stats =
        Dphls_systolic.Engine.run ~trace
          (Dphls_systolic.Config.create ~n_pe) k p w
      in
      Dphls_systolic.Vcd.write_file path trace ~n_pe;
      Printf.eprintf "wrote waveform %s\n" path;
      {
        Dphls_engines.Engines.result;
        engine = engine_name;
        cycles = Some stats.Dphls_systolic.Engine.cycles;
        stats = Some stats;
      }
  in
  Printf.printf "kernel      : #%d %s\n" id (Registry.name e.packed);
  (* only non-default requests print the engine line, keeping the
     historical output stable for scripts that parse it *)
  if engine_mode <> "systolic" then
    Printf.printf "engine      : %s%s\n" engine_name
      (match choice with Dphls_engines.Engines.Auto _ -> " (auto)" | _ -> "");
  Printf.printf "score       : %s\n" (Dphls_util.Score.to_string result.Result.score);
  if result.Result.path <> [] then
    Printf.printf "cigar       : %s\n" (Result.cigar result);
  (match result.Result.start_cell with
  | Some c -> Printf.printf "start cell  : (%d,%d)\n" c.Types.row c.Types.col
  | None -> ());
  (match cycles with
  | None -> ()
  | Some c ->
    Printf.printf "cycles      : %d (prologue %d, compute %d, traceback %d)\n"
      c.Dphls_systolic.Engine.total c.Dphls_systolic.Engine.prologue
      c.Dphls_systolic.Engine.compute c.Dphls_systolic.Engine.traceback);
  (match stats with
  | None -> ()
  | Some stats ->
    Printf.printf "PE util     : %.2f over %d PEs\n"
      stats.Dphls_systolic.Engine.utilization n_pe);
  match engine_name with
  | "reference" -> ()
  | "bitpar" ->
    (* score-only engine: certify the score against the canonical golden
       run (same kernel banding, so fixed bands compare like-for-like) *)
    let golden = Dphls_reference.Ref_engine.run k p w in
    Printf.printf "golden check: %s\n"
      (if result.Result.score = golden.Result.score then "score match"
       else "score MISMATCH")
  | _ ->
    let golden = Dphls_reference.Ref_engine.run ~band_pe:n_pe k p w in
    Printf.printf "golden check: %s\n"
      (if Result.equal_alignment result golden then "match" else "MISMATCH")

let align_cmd =
  let kernel =
    Arg.(required & opt (some string) None & info [ "k"; "kernel" ] ~doc:"Kernel id or name")
  in
  let query = Arg.(required & opt (some string) None & info [ "q"; "query" ] ~doc:"Query sequence") in
  let reference =
    Arg.(required & opt (some string) None & info [ "r"; "reference" ] ~doc:"Reference sequence")
  in
  let vcd =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~doc:"Write a VCD waveform")
  in
  let engine =
    Arg.(value & opt string "systolic" & info [ "engine" ] ~doc:engine_doc)
  in
  Cmd.v
    (Cmd.info "align" ~doc:"Align two sequences on the systolic simulator")
    Term.(
      const align_run $ kernel $ query $ reference $ n_pe 32 $ vcd
      $ band_term ~width_default:32 $ engine)

(* ---- resources ---- *)

let resources_run kernel_spec n_pe n_b n_k max_len =
  let e = find_kernel kernel_spec in
  let cfg = { Dphls_resource.Estimate.n_pe; max_qry = max_len; max_ref = max_len } in
  let u = Dphls_resource.Estimate.full e.packed cfg ~n_b ~n_k in
  let p = Dphls_resource.Device.percent_of Dphls_resource.Device.xcvu9p u in
  Printf.printf "kernel #%d %s on %s, N_PE=%d N_B=%d N_K=%d max_len=%d\n"
    (Registry.id e.packed) (Registry.name e.packed)
    Dphls_resource.Device.xcvu9p.Dphls_resource.Device.name n_pe n_b n_k max_len;
  Printf.printf "LUT  %.2f%%  FF %.2f%%  BRAM %.2f%%  DSP %.3f%%\n"
    (100.0 *. p.Dphls_resource.Device.lut_pct)
    (100.0 *. p.ff_pct) (100.0 *. p.bram_pct) (100.0 *. p.dsp_pct);
  Printf.printf "max clock: %.1f MHz\n"
    (Dphls_resource.Estimate.max_frequency_mhz e.packed);
  Printf.printf "fits device: %b\n"
    (Dphls_resource.Estimate.fits_device e.packed cfg ~n_b ~n_k)

let resources_cmd =
  let kernel =
    Arg.(required & opt (some string) None & info [ "k"; "kernel" ] ~doc:"Kernel id or name")
  in
  let n_b = count "n-b" 1 ~doc:"Blocks per kernel" in
  let n_k = count "n-k" 1 ~doc:"Kernel channels" in
  let max_len = count "max-len" 256 ~doc:"Max sequence length" in
  Cmd.v
    (Cmd.info "resources" ~doc:"Estimate FPGA resources for a configuration")
    Term.(
      const resources_run $ kernel $ n_pe ~systolic:false 32 $ n_b $ n_k
      $ max_len)

(* ---- gen ---- *)

let gen_run kind count length error_rate seed output =
  let rng = Dphls_util.Rng.create seed in
  let records =
    match kind with
    | "genome" ->
      [ { Dphls_io.Fasta.id = "genome"; description = "synthetic";
          sequence = Dphls_alphabet.Dna.to_string (Dphls_seqgen.Dna_gen.genome rng length) } ]
    | "reads" ->
      let genome = Dphls_seqgen.Dna_gen.genome rng (max (length * 4) (length + 1)) in
      let profile =
        Dphls_seqgen.Read_sim.scaled Dphls_seqgen.Read_sim.pacbio_30 error_rate
      in
      List.map
        (fun (r : Dphls_seqgen.Read_sim.read) ->
          { Dphls_io.Fasta.id = Printf.sprintf "read%d" r.id;
            description = Printf.sprintf "origin=%d" r.origin;
            sequence = Dphls_alphabet.Dna.to_string r.sequence })
        (Dphls_seqgen.Read_sim.simulate rng ~genome ~profile ~read_length:length
           ~count)
    | "protein" ->
      List.init count (fun i ->
          { Dphls_io.Fasta.id = Printf.sprintf "prot%d" i; description = "";
            sequence =
              Dphls_alphabet.Protein.to_string
                (Dphls_seqgen.Protein_gen.sample rng length) })
    | other ->
      Printf.eprintf "unknown kind %S (genome | reads | protein)\n" other;
      exit 2
  in
  match output with
  | None -> print_string (Dphls_io.Fasta.to_string records)
  | Some path ->
    Dphls_io.Fasta.write_file path records;
    Printf.eprintf "wrote %d records to %s\n" (List.length records) path

let gen_cmd =
  let kind =
    Arg.(value & pos 0 string "reads" & info [] ~docv:"KIND" ~doc:"genome | reads | protein")
  in
  let n = count "count" 10 ~short:[ "n" ] ~doc:"Record count" in
  let length = count "length" 256 ~short:[ "l" ] ~doc:"Sequence length" in
  let error_rate =
    Arg.(value & opt float 0.1 & info [ "e"; "error" ] ~doc:"Read error rate")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"FASTA file") in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate synthetic FASTA datasets (the paper's workloads)")
    Term.(const gen_run $ kind $ n $ length $ error_rate $ seed $ output)

(* ---- map ---- *)

let map_run reads_path reference_path n_pe =
  let references = Dphls_io.Fasta.read_file reference_path in
  let reads = Dphls_io.Fasta.read_file reads_path in
  if references = [] then begin
    Printf.eprintf "no reference sequences in %s\n" reference_path;
    exit 2
  end;
  let target = List.hd references in
  let reference_b = Dphls_io.Fasta.dna_of_record target in
  let reference = Types.seq_of_bases reference_b in
  let module K7 = Dphls_kernels.K07_semi_global in
  let cfg = Dphls_systolic.Config.create ~n_pe in
  List.iter
    (fun (read : Dphls_io.Fasta.record) ->
      let query_b = Dphls_io.Fasta.dna_of_record read in
      let query = Types.seq_of_bases query_b in
      let w = Workload.of_seqs ~query ~reference in
      let result, _ = Dphls_systolic.Engine.run cfg K7.kernel K7.default w in
      match Alignment_view.first_consumed result with
      | None -> Printf.eprintf "%s: unmapped\n" read.Dphls_io.Fasta.id
      | Some (row0, col0) ->
        let stats =
          Alignment_view.stats ~query ~reference ~start_row:row0 ~start_col:col0
            result.Result.path
        in
        let mapq =
          min 60 (int_of_float (60.0 *. stats.Alignment_view.identity))
        in
        let record =
          Dphls_io.Paf.of_alignment ~query_name:read.Dphls_io.Fasta.id
            ~query_length:(Array.length query_b)
            ~target_name:target.Dphls_io.Fasta.id
            ~target_length:(Array.length reference_b) ~result ~stats ~mapq
        in
        print_endline (Dphls_io.Paf.to_line record))
    reads

let map_cmd =
  let reads =
    Arg.(required & opt (some file) None & info [ "reads" ] ~doc:"FASTA reads file")
  in
  let reference =
    Arg.(required & opt (some file) None & info [ "reference" ] ~doc:"FASTA reference file")
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Map FASTA reads semi-globally and emit PAF records")
    Term.(const map_run $ reads $ reference $ n_pe 32)

(* ---- batch ---- *)

let batch_run pairs_path kind_s workers n_pe chunk compare overlap band
    engine_mode =
  let kind =
    try Dphls.Batch.kind_of_string kind_s
    with Invalid_argument _ ->
      Printf.eprintf
        "unknown kind %S (global | global-affine | local | semi-global | \
         protein-local)\n"
        kind_s;
      exit 2
  in
  let engine =
    match engine_mode with
    (* no --engine keeps the historical mapping: --n-pe selects the
       systolic engine, its absence the golden one *)
    | None -> (
      match n_pe with
      | None -> Dphls.Align.Golden
      | Some n -> Dphls.Align.Systolic n)
    | Some mode -> engine_choice ~n_pe:(Option.value n_pe ~default:32) mode
  in
  let workers =
    (* default to real parallelism even on boxes that report one core *)
    match workers with
    | Some w -> w
    | None -> max 2 (Domain.recommended_domain_count ())
  in
  (* the streamed rows and the --compare re-runs run the chosen engine;
     --overlap changes no row, it prints the streamed pass's overlap
     accounting *)
  refusing @@ fun () ->
  print_endline "#idx\tquery\treference\tscore\tcigar\tidentity\tcycles";
  let b =
    try
      Dphls.Batch.iter_fasta_file ?band ~engine ~kind ~workers ~chunk
        ~path:pairs_path
        ~f:(fun idx q r (a : Dphls.Align.alignment) ->
          Printf.printf "%d\t%s\t%s\t%d\t%s\t%.4f\t%s\n" idx
            q.Dphls_io.Fasta.id r.Dphls_io.Fasta.id a.Dphls.Align.score
            a.Dphls.Align.cigar a.Dphls.Align.identity
            (match a.Dphls.Align.device_cycles with
            | Some c -> string_of_int c
            | None -> "-"))
        ()
    with Failure msg ->
      (* a malformed pair file, refused by iter_fasta_file before an
         engine sees the record. A broken engine invariant raises
         Invalid_argument and stays an internal error; the one engine
         Failure, the walker's step limit, needs an FSM with a stay
         cycle, which no kind has. *)
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let read_pairs () =
    (* the streamed pass refused an odd record count *)
    let rec pair_up = function
      | q :: r :: rest -> (q.Dphls_io.Fasta.sequence, r.Dphls_io.Fasta.sequence) :: pair_up rest
      | _ -> []
    in
    Array.of_list (pair_up (Dphls_io.Fasta.read_file pairs_path))
  in
  if overlap then begin
    let seq = b.Dphls_systolic.Engine.seq_cycles in
    let ov = b.Dphls_systolic.Engine.overlapped_cycles in
    Printf.eprintf
      "overlap      : %d alignments, modeled %d -> %d device cycles (%d \
       hidden, %.1f%%)\n"
      b.Dphls_systolic.Engine.alignments seq ov
      b.Dphls_systolic.Engine.hidden_cycles
      (if seq > 0 then
         100.0 *. float_of_int b.Dphls_systolic.Engine.hidden_cycles
         /. float_of_int seq
       else 0.0)
  end;
  if compare then begin
    (* re-run the whole batch at [workers] domains, then at 1 for the
       baseline, to line the measured wall clock up against the
       analytical N_K model *)
    let pairs = read_pairs () in
    let pool_stats w =
      let _, stats, _ =
        Dphls.Batch.align_all_overlap_report ?band ~engine ~kind ~workers:w
          pairs
      in
      stats
    in
    let stats = pool_stats workers in
    let report = stats.Dphls_host.Pool.report in
    Printf.eprintf "workers      : %d\n" workers;
    Printf.eprintf "alignments   : %d\n" report.Dphls_host.Scheduler.jobs;
    Printf.eprintf "makespan     : %.3f ms\n"
      (float_of_int report.Dphls_host.Scheduler.makespan /. 1e6);
    Array.iteri
      (fun i busy ->
        Printf.eprintf "worker %d busy: %.3f ms\n" i (float_of_int busy /. 1e6))
      stats.Dphls_host.Pool.worker_busy_ns;
    List.iter
      (fun (p : Dphls_host.Throughput.scaling_point) ->
        Printf.eprintf
          "scaling      : %d workers, measured %.2fx vs N_K model %.2fx \
           (efficiency %.2f)\n"
          p.Dphls_host.Throughput.workers
          p.Dphls_host.Throughput.measured_speedup
          p.Dphls_host.Throughput.modeled_speedup
          p.Dphls_host.Throughput.efficiency)
      (Dphls_host.Throughput.scaling
         ~baseline:(pool_stats 1).Dphls_host.Pool.report
         [ (workers, report) ])
  end

let batch_cmd =
  let pairs =
    Arg.(
      required
      & opt (some file) None
      & info [ "pairs" ] ~doc:"FASTA pair file: records 2i and 2i+1 align")
  in
  let kind =
    Arg.(
      value & opt string "global"
      & info [ "kind" ]
          ~doc:"global | global-affine | local | semi-global | protein-local")
  in
  let workers =
    count_opt "workers" None ~doc:"Worker domains (default: auto, at least 2)"
  in
  let n_pe =
    n_pe_opt ~doc:"Run on the systolic engine with this many PEs" None
  in
  let chunk = count "chunk" 256 ~doc:"Pairs per work chunk" in
  let compare =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:"Also report measured vs modeled N_K scaling on stderr")
  in
  let overlap =
    Arg.(
      value & flag
      & info [ "overlap" ]
          ~doc:
            "Also report on stderr the modeled cycles recovered by hiding \
             each alignment's prologue under its predecessor's compute \
             (per-worker slices of each --chunk of pairs, so a file of \
             more than --chunk pairs adds a slice start at every chunk \
             boundary); the rows are unchanged")
  in
  let engine =
    Arg.(value & opt (some string) None & info [ "engine" ] ~doc:engine_doc)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Align a FASTA pair file in parallel across CPU domains")
    Term.(
      const batch_run $ pairs $ kind $ workers $ n_pe $ chunk $ compare
      $ overlap $ band_term ~width_default:32 $ engine)

(* ---- cosim ---- *)

let cosim_run kernel_spec n_pe trials len vectors =
  let e = find_kernel kernel_spec in
  let (Registry.Packed (k, p)) = e.packed in
  let rng = Dphls_util.Rng.create 2026 in
  let workloads =
    List.init trials (fun _ -> e.Dphls_kernels.Catalog.gen rng ~len)
  in
  (match vectors with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  let report = Dphls_cosim.Cosim.verify ~n_pe ?vectors k p workloads in
  Format.printf "%a@." Dphls_cosim.Cosim.pp_report report;
  exit (if Dphls_cosim.Cosim.passed report then 0 else 1)

let cosim_cmd =
  let kernel =
    Arg.(required & opt (some string) None & info [ "k"; "kernel" ] ~doc:"Kernel id or name")
  in
  let trials = count "trials" 25 ~doc:"Workloads to verify" in
  let len = count "len" 128 ~doc:"Workload length" in
  let vectors =
    Arg.(
      value
      & opt (some string) None
      & info [ "vectors" ] ~docv:"DIR"
          ~doc:"Capture one golden-vector (.dpv) file per workload into $(docv)")
  in
  Cmd.v
    (Cmd.info "cosim"
       ~doc:"Verify the golden engine against the systolic engine")
    Term.(const cosim_run $ kernel $ n_pe 16 $ trials $ len $ vectors)

(* ---- vectors ---- *)

module Vectors = Dphls_vectors

let vectors_gen_run kernel_spec corpus_dir output n_pe len seed band =
  match corpus_dir with
  | Some dir ->
    (* Regenerate the standard committed corpus. *)
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let failed = ref false in
    List.iter
      (fun spec ->
        match Vectors.Harness.generate spec with
        | Ok (v, name) ->
          let path = Filename.concat dir name in
          Vectors.Codec.write_file path v;
          Printf.printf "wrote %s\n" path
        | Error msg ->
          Printf.eprintf "dphls vectors gen: %s\n" msg;
          failed := true)
      Vectors.Harness.corpus;
    if !failed then exit 2
  | None -> (
    let kernel_spec =
      match kernel_spec with
      | Some s -> s
      | None ->
        Printf.eprintf "dphls vectors gen: need --kernel or --corpus DIR\n";
        exit 2
    in
    let e = find_kernel kernel_spec in
    let spec =
      {
        Vectors.Harness.kernel_id = Registry.id e.packed;
        n_pe;
        len;
        band;
        seed;
      }
    in
    match Vectors.Harness.generate spec with
    | Error msg ->
      Printf.eprintf "dphls vectors gen: %s\n" msg;
      exit 2
    | Ok (v, default_name) ->
      let path = Option.value output ~default:default_name in
      Vectors.Codec.write_file path v;
      Printf.printf "wrote %s\n" path)

let vectors_gen_cmd =
  let kernel =
    Arg.(value & opt (some string) None & info [ "k"; "kernel" ] ~doc:"Kernel id or name")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Regenerate the standard committed corpus into $(docv)")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file")
  in
  let len = count "len" 32 ~doc:"Workload length" in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload RNG seed") in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate golden vector files")
    Term.(
      const vectors_gen_run $ kernel $ corpus $ output $ n_pe 4 $ len $ seed
      $ band_term ~width_default:16)

let vectors_check_run files =
  if files = [] then begin
    Printf.eprintf "dphls vectors check: no vector files given\n";
    exit 2
  end;
  let load_failed = ref false and diverged = ref false in
  List.iter
    (fun path ->
      match Vectors.Harness.check_file path with
      | Ok o ->
        Printf.printf "%s: ok (%d cells, %d windows, %d replayed)\n" path
          o.Vectors.Harness.o_cells o.Vectors.Harness.o_windows
          o.Vectors.Harness.o_replayed
      | Error msg ->
        (* Distinguish unreadable/corrupt files (exit 2) from vectors
           that load but diverge from this build (exit 1). *)
        (match Vectors.Codec.read_file path with
        | Error _ -> load_failed := true
        | Ok _ -> diverged := true);
        Printf.eprintf "%s: FAIL: %s\n" path msg)
    files;
  if !load_failed then exit 2 else if !diverged then exit 1

let vectors_check_cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Vector files")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify vector files against the current build (re-run, replay \
          through the compiled datapath and its interpreter); non-zero exit \
          on divergence (1) or unreadable files (2)")
    Term.(const vectors_check_run $ files)

let vectors_regen_run out_dir files =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let failed = ref false in
  List.iter
    (fun path ->
      match Vectors.Codec.read_file path with
      | Error msg ->
        Printf.eprintf "%s: %s\n" path msg;
        failed := true
      | Ok v -> (
        let h = v.Vectors.Stream.header in
        match Dphls_kernels.Catalog.find h.Vectors.Stream.kernel_id with
        | exception Not_found ->
          Printf.eprintf "%s: unknown kernel id %d\n" path
            h.Vectors.Stream.kernel_id;
          failed := true
        | e ->
          let (Registry.Packed (k, p)) = e.packed in
          let k = { k with Kernel.banding = h.Vectors.Stream.band } in
          let w =
            Workload.of_seqs ~query:h.Vectors.Stream.query
              ~reference:h.Vectors.Stream.reference
          in
          let regen, _ =
            Vectors.Capture.systolic k p ~n_pe:h.Vectors.Stream.n_pe w
          in
          let dst = Filename.concat out_dir (Filename.basename path) in
          Vectors.Codec.write_file dst regen;
          Printf.printf "wrote %s\n" dst))
    files;
  if !failed then exit 2

let vectors_regen_cmd =
  let out_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory")
  in
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Vector files")
  in
  Cmd.v
    (Cmd.info "regen"
       ~doc:
         "Re-record vectors from their embedded workloads on this build \
          (what CI uploads when the drift gate fails)")
    Term.(const vectors_regen_run $ out_dir $ files)

let vectors_diff_run file_a file_b =
  match (Vectors.Codec.read_file file_a, Vectors.Codec.read_file file_b) with
  | Error msg, _ | _, Error msg ->
    Printf.eprintf "dphls vectors diff: %s\n" msg;
    exit 2
  | Ok a, Ok b -> (
    match Vectors.Stream.diff ~expected:a ~actual:b with
    | None -> Printf.printf "vectors agree\n"
    | Some d ->
      Printf.printf "first divergence: %s\n" (Vectors.Stream.describe d);
      exit 1)

let vectors_diff_cmd =
  let file_a =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"EXPECTED")
  in
  let file_b =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"ACTUAL")
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"First divergence between two vector files")
    Term.(const vectors_diff_run $ file_a $ file_b)

let vectors_cmd =
  Cmd.group
    (Cmd.info "vectors"
       ~doc:
         "Golden-vector harness: record, check and diff per-wavefront \
          engine streams")
    [ vectors_gen_cmd; vectors_check_cmd; vectors_regen_cmd; vectors_diff_cmd ]

(* ---- rtl ---- *)

let rtl_run kernel_spec n_pe n_b n_k max_len output =
  let e = find_kernel kernel_spec in
  let cell, bindings = Registry.datapath e.packed in
  let (Registry.Packed (k, _)) = e.packed in
  let design =
    Dphls_rtl.Emit.emit ~kernel_name:(Registry.name e.packed) ~cell ~bindings
      ~n_layers:k.Kernel.n_layers ~score_bits:k.Kernel.score_bits
      ~tb_bits:k.Kernel.tb_bits
      ~char_bits:(max 1 (k.Kernel.traits.Traits.char_bits / max 1 (Dphls_rtl.Pe_gen.char_arity cell)))
      ~n_pe ~n_b ~n_k ~max_qry:max_len ~max_ref:max_len
  in
  let text = Dphls_rtl.Emit.to_text design in
  (match output with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.eprintf "wrote %s (%d bytes)\n" path (String.length text));
  Printf.eprintf
    "PE datapath: %d adders, %d multipliers, %d comparators, %d lookups; TB depth %d\n"
    design.Dphls_rtl.Emit.ops.Datapath.adders
    design.Dphls_rtl.Emit.ops.Datapath.multipliers
    design.Dphls_rtl.Emit.ops.Datapath.comparators
    design.Dphls_rtl.Emit.ops.Datapath.lookups design.Dphls_rtl.Emit.tb_depth

let rtl_cmd =
  let kernel =
    Arg.(required & opt (some string) None & info [ "k"; "kernel" ] ~doc:"Kernel id or name")
  in
  let n_b = count "n-b" 1 ~doc:"Blocks per kernel" in
  let n_k = count "n-k" 1 ~doc:"Kernel channels" in
  let max_len = count "max-len" 256 ~doc:"Max sequence length" in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output .v file")
  in
  Cmd.v
    (Cmd.info "rtl" ~doc:"Emit structural Verilog for a kernel's systolic design")
    Term.(
      const rtl_run $ kernel $ n_pe ~systolic:false 32 $ n_b $ n_k $ max_len
      $ output)

(* ---- profile ---- *)

let profile_run kernel_spec n_pe trials len band workers json trace_path
    engine_mode =
  let e = find_kernel kernel_spec in
  let (Registry.Packed (k, p)) = e.packed in
  let k = Kernel.with_band k band in
  let choice = engine_choice ~n_pe engine_mode in
  let metrics = Dphls_obs.Metrics.create () in
  let tracer = Dphls_obs.Tracer.create () in
  (* auto re-decides per workload, each decision bumping a dispatch
     counter into [metrics] when one is given *)
  let run ?metrics ?tracer ws =
    refusing (fun () ->
        ignore (Dphls_engines.Engines.run_batch ?metrics ?tracer choice k p ws))
  in
  let rng = Dphls_util.Rng.create 2026 in
  let workloads =
    Array.init trials (fun _ -> e.Dphls_kernels.Catalog.gen rng ~len)
  in
  (* Sequential phase: engine counters and phase spans, the workloads
     run one after another through Engines.run_batch. The closed-form
     expected cell count is summed per workload because generated
     lengths can differ from [len] for some kernels. *)
  let expected_cells = ref 0 in
  Array.iter
    (fun w ->
      expected_cells :=
        !expected_cells
        + Banding.cells_in_band k.Kernel.banding
            ~qry_len:(Array.length w.Workload.query)
            ~ref_len:(Array.length w.Workload.reference))
    workloads;
  run ~metrics ~tracer workloads;
  (* Optional pool phase: re-run the same workloads as a parallel batch
     to exercise the pool's task/steal/idle counters and per-worker
     chunk spans. Engine metrics stay out of the worker tasks — the
     counter sink is not domain-safe (see Dphls_host.Pool.run). *)
  (match workers with
  | Some workers ->
    Dphls_host.Pool.with_pool ~workers (fun pool ->
        let _, _ =
          Dphls_host.Pool.run ~metrics ~tracer pool
            (* no sink in the tasks: the counter sink is not domain-safe,
               so auto decisions inside workers go unrecorded *)
            (fun i -> run [| workloads.(i) |])
            trials
        in
        ())
  | None -> ());
  let summary = Dphls_obs.Summary.build ~metrics ~tracer () in
  if json then print_endline (Dphls_obs.Summary.to_json summary)
  else begin
    Printf.printf "kernel      : #%d %s (n_pe=%d, %d trial%s, len %d)\n"
      (Registry.id e.packed) (Registry.name e.packed) n_pe trials
      (if trials = 1 then "" else "s")
      len;
    print_string (Dphls_obs.Summary.to_text summary)
  end;
  (match trace_path with
  | Some path ->
    Dphls_obs.Chrome.write_file path tracer;
    Printf.eprintf
      "wrote %s (%d spans) — load in Perfetto (ui.perfetto.dev) or \
       chrome://tracing\n"
      path
      (Dphls_obs.Tracer.count tracer)
  | None -> ());
  (* The sequential phase computes every in-band cell exactly once, so
     the counter must equal the closed form for static bands; an
     adaptive band's realized window is only bounded by the envelope. *)
  let cells = Dphls_obs.Metrics.get metrics Dphls_obs.Counter.Cells_evaluated in
  match k.Kernel.banding with
  | Some (Banding.Adaptive _) ->
    Printf.eprintf "cells check : skipped (adaptive band: %d <= envelope %d)\n"
      cells !expected_cells;
    if cells > !expected_cells then exit 1
  | Some (Banding.Fixed _) | None ->
    if cells = !expected_cells then
      Printf.eprintf "cells check : match (%d cells)\n" cells
    else begin
      Printf.eprintf "cells check : MISMATCH (counter %d, closed form %d)\n"
        cells !expected_cells;
      exit 1
    end

let profile_cmd =
  let kernel =
    Arg.(
      required
      & opt (some string) None
      & info [ "k"; "kernel" ] ~doc:"Kernel id or name")
  in
  let trials = count "trials" 8 ~doc:"Workloads to profile" in
  let len = count "len" 128 ~doc:"Workload length" in
  let workers =
    count_opt "workers" None
      ~doc:"Also run a pool batch phase on this many domains"
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"JSON summary on stdout")
  in
  let trace =
    Arg.(
      value
      & opt (some string) (Some "profile.trace.json")
      & info [ "trace" ]
          ~doc:"Chrome trace_event output file (Perfetto-loadable)")
  in
  let engine =
    Arg.(value & opt string "systolic" & info [ "engine" ] ~doc:engine_doc)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run workloads with performance counters and span tracing enabled; \
          print a counter/latency summary and export a Chrome trace")
    Term.(
      const profile_run $ kernel $ n_pe 32 $ trials $ len
      $ band_term ~width_default:32 $ workers $ json $ trace $ engine)

(* ---- experiment ---- *)

let experiment_run name quick =
  match name with
  | None -> Dphls_experiments.Runner.run_all ~quick ()
  | Some n -> (
    try Dphls_experiments.Runner.run_one ~quick n
    with Not_found ->
      Printf.eprintf "unknown experiment %S; available: %s\n" n
        (String.concat ", " Dphls_experiments.Runner.names);
      exit 2)

let experiment_cmd =
  let exp_name =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Experiment name")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sample counts") in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run paper experiments (all when no name given)")
    Term.(const experiment_run $ exp_name $ quick)

(* ---- serve ---- *)

module Serve = Dphls_serve.Server
module Serve_proto = Dphls_serve.Proto

let serve_run socket max_conns queue_depth batch_max cache_capacity max_len
    deadline_ms n_pe workers slo_p99_ms check json trace_path =
  let metrics = Dphls_obs.Metrics.create () in
  let tracer =
    match trace_path with
    | Some _ -> Dphls_obs.Tracer.create ()
    | None -> Dphls_obs.Tracer.disabled
  in
  let cfg =
    {
      (Serve.default_config ()) with
      Serve.queue_depth;
      batch_max;
      cache_capacity;
      max_seq_len = max_len;
      default_deadline_ms = (if deadline_ms > 0.0 then Some deadline_ms else None);
      n_pe;
      workers;
      slo_p99_ms;
      metrics;
      tracer;
    }
  in
  let server = Serve.create cfg in
  let respond oc responses =
    List.iter
      (fun r ->
        output_string oc (Serve_proto.response_line r);
        output_char oc '\n')
      responses;
    flush oc
  in
  (* one client session: a response line per request line, everything
     still queued flushed (in admission order) at EOF *)
  let session ic oc =
    let rec loop () =
      match input_line ic with
      | line ->
        if String.trim line <> "" then respond oc (Serve.submit server line);
        loop ()
      | exception End_of_file -> respond oc (Serve.flush server)
    in
    loop ()
  in
  (match socket with
  | None -> session stdin stdout
  | Some path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind sock (Unix.ADDR_UNIX path);
    Unix.listen sock 8;
    Printf.eprintf "dphls serve: listening on %s\n%!" path;
    let conns = ref 0 in
    while max_conns = 0 || !conns < max_conns do
      let fd, _ = Unix.accept sock in
      incr conns;
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      (try session ic oc with Sys_error _ | Unix.Unix_error _ -> ());
      close_out_noerr oc
    done;
    Unix.close sock;
    (try Unix.unlink path with Unix.Unix_error _ -> ()));
  let s = Serve.summary server in
  if json then prerr_endline (Serve.summary_to_json s)
  else prerr_string (Serve.summary_to_text s);
  (match trace_path with
  | Some p ->
    Dphls_obs.Chrome.write_file p ~process_name:"dphls serve" tracer;
    Printf.eprintf "trace written to %s — load it in Perfetto\n" p
  | None -> ());
  Serve.close server;
  if check && not s.Serve.slo_ok then exit 1

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket instead of stdin/stdout \
             (connections are served sequentially)")
  in
  let max_conns =
    Arg.(
      value & opt int 0
      & info [ "max-conns" ]
          ~doc:"With --socket: exit after this many connections (0 = forever)")
  in
  let queue_depth =
    count "queue-depth" 256
      ~doc:
        "Bounded pending-request queue per (kernel, band, engine) group; a \
         request beyond it is answered $(b,overloaded)"
  in
  let batch_max =
    count "batch" 64 ~doc:"Coalesce up to this many requests per engine batch"
  in
  let cache_capacity =
    Arg.(
      value & opt int 4096
      & info [ "cache" ] ~doc:"Result-cache entries, LRU-evicted (0 disables)")
  in
  let max_len =
    count "max-len" 4096
      ~doc:"Per-sequence length cap; above it is $(b,oversized)"
  in
  let deadline_ms =
    Arg.(
      value & opt float 0.0
      & info [ "deadline-ms" ]
          ~doc:
            "Default per-request deadline in ms (0 = none); requests may \
             override with their own $(b,deadline_ms) field")
  in
  let workers =
    count "workers" 1 ~doc:"Slice large batches across this many worker domains"
  in
  let slo_p99_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-p99-ms" ]
          ~doc:
            "Latency objective: report p99 attainment in the shutdown summary")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Exit non-zero if the p99 SLO was violated")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the shutdown summary as JSON (stderr)")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Export admit/compute/request spans as a Chrome trace_event file \
             (Perfetto-loadable)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent alignment service: one JSON request per line on \
          stdin (or a Unix socket), one JSON response per line out, with \
          dynamic batching, bounded queues, a result cache, deadlines and an \
          SLO-gated shutdown summary")
    Term.(
      const serve_run $ socket $ max_conns $ queue_depth $ batch_max
      $ cache_capacity $ max_len $ deadline_ms $ n_pe 32 $ workers $ slo_p99_ms
      $ check $ json $ trace)

(* ---- check ---- *)

let check_entry ~max_len (e : Dphls_kernels.Catalog.entry) =
  let max_len =
    match max_len with Some l -> l | None -> e.Dphls_kernels.Catalog.max_len
  in
  let rng = Dphls_util.Rng.create 7 in
  let sample = e.gen rng ~len:(min 64 max_len) in
  let chars = Dphls_analysis.Check.chars_of_workload sample in
  Dphls_analysis.Check.run ~n_pe:e.optimal.n_pe ~max_len ~chars e.packed

let explain_run spec what =
  let e = find_kernel spec in
  let (Dphls_core.Registry.Packed (k, _)) = e.Dphls_kernels.Catalog.packed in
  let cell, bindings = Dphls_core.Registry.datapath e.packed in
  let ppf = Format.std_formatter in
  Format.fprintf ppf "kernel #%d %s — %s derivation@\n"
    k.Dphls_core.Kernel.id k.Dphls_core.Kernel.name
    (match what with
    | `Depend -> "dependence footprint"
    | `Ii -> "recurrence-II"
    | `Fastpath -> "fast-path eligibility");
  (match what with
  | `Depend ->
    Dphls_analysis.Depend.explain ppf
      (Dphls_analysis.Depend.analyze cell
         ~n_layers:k.Dphls_core.Kernel.n_layers)
  | `Ii -> (
    match Dphls_analysis.Ii.analyze cell bindings with
    | Ok ii ->
      Dphls_analysis.Ii.explain ppf ii ~traits:k.Dphls_core.Kernel.traits
    | Error msg ->
      Format.fprintf ppf "datapath does not compile: %s@\n" msg;
      Format.pp_print_flush ppf ();
      exit 1)
  | `Fastpath ->
    Dphls_bitpar.Eligibility.explain ppf
      (Dphls_bitpar.Eligibility.classify cell bindings));
  Format.pp_print_flush ppf ()

let check_run kernel_spec all max_len json explain =
  match explain with
  | Some what -> (
    match kernel_spec with
    | Some spec -> explain_run spec what
    | None ->
      Printf.eprintf "--explain needs --kernel ID\n";
      exit 2)
  | None ->
  let entries =
    match (kernel_spec, all) with
    | Some spec, _ -> [ find_kernel spec ]
    | None, true -> Dphls_kernels.Catalog.all
    | None, false ->
      Printf.eprintf "pass --kernel ID or --all\n";
      exit 2
  in
  let reports = List.map (check_entry ~max_len) entries in
  if json then print_endline (Dphls_analysis.Report.list_to_json reports)
  else
    List.iter
      (fun r -> Format.printf "%a@." Dphls_analysis.Report.pp r)
      reports;
  let errors =
    List.fold_left (fun acc r -> acc + Dphls_analysis.Report.errors r) 0 reports
  in
  if errors > 0 then begin
    if not json then
      Printf.eprintf "dphls check: %d error finding%s\n" errors
        (if errors = 1 then "" else "s");
    exit 1
  end

let check_cmd =
  let kernel =
    Arg.(
      value
      & opt (some string) None
      & info [ "k"; "kernel" ] ~doc:"Kernel id or name")
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Check the whole catalog") in
  let max_len =
    count_opt "max-len" None
      ~doc:"Workload length bound to verify (default: catalog max_len)"
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"JSON report") in
  let explain =
    Arg.(
      value
      & opt
          (some (enum [ ("depend", `Depend); ("ii", `Ii); ("fastpath", `Fastpath) ]))
          None
      & info [ "explain" ] ~docv:"PASS"
          ~doc:
            "Print the named pass's full derivation for one kernel (requires \
             $(b,--kernel)): $(b,depend), $(b,ii) or $(b,fastpath)")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically analyze kernels before synthesis (width/overflow, \
          traceback FSM, dependence stencil, recurrence II, bit-parallel \
          fast path, banding/parallelism lint); non-zero exit on error \
          findings")
    Term.(const check_run $ kernel $ all $ max_len $ json $ explain)

let () =
  let info =
    Cmd.info "dphls" ~version:"1.0.0"
      ~doc:"OCaml reproduction of the DP-HLS framework (HPCA 2026)"
  in
  exit (Cmd.eval (Cmd.group info
       [ list_cmd; align_cmd; batch_cmd; gen_cmd; map_cmd; cosim_cmd;
         resources_cmd; rtl_cmd; experiment_cmd; check_cmd; profile_cmd;
         vectors_cmd; serve_cmd ]))
