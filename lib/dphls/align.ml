open Dphls_core
module Engines = Dphls_engines.Engines

type engine = Engines.choice =
  | Golden
  | Systolic of int
  | Bitpar
  | Auto of int

type alignment = {
  score : int;
  cigar : string;
  identity : float;
  query_span : int * int;
  reference_span : int * int;
  view : string;
  device_cycles : int option;
}

let view_of_result (w : Workload.t) result cycles ~decode =
  let query = w.Workload.query and reference = w.Workload.reference in
  match Alignment_view.first_consumed result with
  | None ->
    {
      score = result.Result.score;
      cigar = "";
      identity = 0.0;
      query_span = (0, 0);
      reference_span = (0, 0);
      view = "";
      device_cycles = cycles;
    }
  | Some (row0, col0) ->
    let stats =
      Alignment_view.stats ~query ~reference ~start_row:row0 ~start_col:col0
        result.Result.path
    in
    let last =
      match result.Result.start_cell with Some c -> c | None -> assert false
    in
    {
      score = result.Result.score;
      cigar = Result.cigar result;
      identity = stats.Alignment_view.identity;
      query_span = (row0, last.Types.row + 1);
      reference_span = (col0, last.Types.col + 1);
      view =
        Alignment_view.render ~decode ~query ~reference ~start_row:row0
          ~start_col:col0 result.Result.path;
      device_cycles = cycles;
    }

type kind = Global | Global_affine | Local | Semi_global | Protein_local

(* the kind's text alphabet: encoder and decoder *)
let alphabet = function
  | Protein_local -> Dphls_alphabet.Protein.(encode, decode)
  | Global | Global_affine | Local | Semi_global -> Dphls_alphabet.Dna.(encode, decode)

let alignable kind s =
  let encode, _ = alphabet kind in
  if s = "" then Error "empty sequence"
  else
    match String.iter (fun c -> ignore (encode c)) s with
    | () -> Ok ()
    | exception Invalid_argument why -> Error why

let run ?band ?metrics ?tracer ?(engine = Golden) kind ~query ~reference =
  let encode, decode = alphabet kind in
  let of_string s = Array.init (String.length s) (fun i -> encode s.[i]) in
  let go kernel params =
    let w = Workload.of_bases ~query:(of_string query) ~reference:(of_string reference) in
    let { Engines.result; cycles; _ } =
      (Engines.run_batch ?metrics ?tracer engine (Kernel.with_band kernel band) params
         [| w |]).(0)
    in
    ( view_of_result w result
        (Option.map (fun c -> c.Dphls_systolic.Engine.total) cycles)
        ~decode:(fun c -> decode c.(0)),
      cycles )
  in
  let module K = Dphls_kernels in
  match kind with
  | Global -> go K.K01_global_linear.kernel K.K01_global_linear.default
  | Global_affine -> go K.K02_global_affine.kernel K.K02_global_affine.default
  | Local -> go K.K03_local_linear.kernel K.K03_local_linear.default
  | Semi_global -> go K.K07_semi_global.kernel K.K07_semi_global.default
  | Protein_local -> go K.K15_protein_local.kernel K.K15_protein_local.default

let global ?band ?metrics ?tracer ?engine ~query ~reference () =
  fst (run ?band ?metrics ?tracer ?engine Global ~query ~reference)

let global_affine ?band ?metrics ?tracer ?engine ~query ~reference () =
  fst (run ?band ?metrics ?tracer ?engine Global_affine ~query ~reference)

let local ?band ?metrics ?tracer ?engine ~query ~reference () =
  fst (run ?band ?metrics ?tracer ?engine Local ~query ~reference)

let semi_global ?band ?metrics ?tracer ?engine ~query ~reference () =
  fst (run ?band ?metrics ?tracer ?engine Semi_global ~query ~reference)

let protein_local ?band ?metrics ?tracer ?engine ~query ~reference () =
  fst (run ?band ?metrics ?tracer ?engine Protein_local ~query ~reference)
