open Dphls_core
open Dphls_kernels

type spec = {
  kernel_id : int;
  n_pe : int;
  len : int;
  band : Stream.band_spec option;
  seed : int;
}

(* One vector per recurrence family the back-end treats differently:
   linear / affine / local traceback, DTW, Viterbi (no traceback),
   fixed band, adaptive band. Small lengths keep the committed files
   reviewable while still spanning several chunks per run. *)
let corpus =
  [
    { kernel_id = 1; n_pe = 4; len = 32; band = None; seed = 11 };
    { kernel_id = 2; n_pe = 8; len = 32; band = None; seed = 12 };
    { kernel_id = 3; n_pe = 4; len = 24; band = None; seed = 13 };
    { kernel_id = 9; n_pe = 4; len = 24; band = None; seed = 19 };
    { kernel_id = 10; n_pe = 4; len = 24; band = None; seed = 20 };
    (* k11's default width (32) prunes nothing at len 32; narrow it so
       the corpus actually exercises fixed-band pruning *)
    { kernel_id = 11; n_pe = 4; len = 32; band = Some (Stream.Fixed 8); seed = 21 };
    { kernel_id = 16; n_pe = 4; len = 32; band = None; seed = 26 };
  ]

let slug name =
  String.map (function 'a' .. 'z' | '0' .. '9' as c -> c | _ -> '_')
    (String.lowercase_ascii name)

let filename s =
  let name = Registry.name (Catalog.find s.kernel_id).Catalog.packed in
  Printf.sprintf "k%02d_%s_npe%d_len%d.dpv" s.kernel_id (slug name) s.n_pe
    s.len

let override_band (k : 'p Kernel.t) = function
  | None -> Ok k
  | Some spec -> (
    match Stream.banding_of_spec spec with
    | banding -> Ok { k with Kernel.banding }
    | exception Invalid_argument msg -> Error msg)

let generate s =
  match Catalog.find s.kernel_id with
  | exception Not_found ->
    Error (Printf.sprintf "unknown kernel id %d" s.kernel_id)
  | entry -> (
    let workload = entry.Catalog.gen (Dphls_util.Rng.create s.seed) ~len:s.len in
    let (Registry.Packed (k, p)) = entry.Catalog.packed in
    match override_band k s.band with
    | Error msg ->
      Error (Printf.sprintf "kernel %d: bad band override: %s" s.kernel_id msg)
    | Ok k ->
      let v, _result = Capture.systolic k p ~n_pe:s.n_pe workload in
      Ok (v, filename s))

type outcome = {
  o_cells : int;
  o_windows : int;
  o_replayed : int;
}

(* Resolve a vector header against the live catalog, returning the
   kernel (with the header's band applied) ready to re-run. *)
let resolve (h : Stream.header) =
  match Catalog.find h.Stream.kernel_id with
  | exception Not_found ->
    Error
      (Printf.sprintf
         "header field \"kernel\": id %d is not in the catalog"
         h.Stream.kernel_id)
  | entry -> (
    let (Registry.Packed (k, p)) = entry.Catalog.packed in
    if k.Kernel.name <> h.Stream.kernel_name then
      Error
        (Printf.sprintf
           "header field \"kernel\": id %d is %S in this build, vector says \
            %S"
           h.Stream.kernel_id k.Kernel.name h.Stream.kernel_name)
    else if k.Kernel.n_layers <> h.Stream.n_layers then
      Error
        (Printf.sprintf
           "header field \"layers\": kernel %s has %d layers in this build, \
            vector says %d"
           k.Kernel.name k.Kernel.n_layers h.Stream.n_layers)
    else
      match override_band k (Some h.Stream.band) with
      | Error msg ->
        Error (Printf.sprintf "header field \"band\": %s" msg)
      | Ok k ->
        let hash = Fingerprint.params_hash k p ~n_pe:h.Stream.n_pe in
        if hash <> h.Stream.params_hash then
          Error
            (Printf.sprintf
               "header field \"params\": this build hashes to %s, vector \
                says %s — kernel configuration changed; regenerate the \
                corpus"
               hash h.Stream.params_hash)
        else Ok (Registry.Packed (k, p)))

let count_records (v : Stream.t) =
  Array.fold_left
    (fun (c, w) -> function
      | Stream.Cell _ -> (c + 1, w)
      | Stream.Window _ -> (c, w + 1))
    (0, 0) v.Stream.records

let check ?overlap (v : Stream.t) =
  match resolve v.Stream.header with
  | Error msg -> Error msg
  | Ok (Registry.Packed (k, p)) -> (
    let h = v.Stream.header in
    let workload =
      Workload.of_seqs ~query:h.Stream.query ~reference:h.Stream.reference
    in
    let regen, _result =
      Capture.systolic ?overlap k p ~n_pe:h.Stream.n_pe workload
    in
    match Stream.diff ~expected:v ~actual:regen with
    | Some d ->
      Error (Printf.sprintf "systolic re-run diverges: %s" (Stream.describe d))
    | None -> (
      match Replay.run ~evaluator:`Compiled k p v with
      | Error d ->
        Error
          (Printf.sprintf "compiled-datapath replay diverges: %s"
             (Stream.describe d))
      | Ok replayed -> (
        match Replay.run ~evaluator:`Eval k p v with
        | Error d ->
          Error
            (Printf.sprintf "datapath-interpreter replay diverges: %s"
               (Stream.describe d))
        | Ok _ ->
          let o_cells, o_windows = count_records v in
          Ok { o_cells; o_windows; o_replayed = replayed })))

let check_file ?overlap path =
  match Codec.read_file path with
  | Error msg -> Error msg
  | Ok v -> check ?overlap v
