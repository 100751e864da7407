module Json = Dphls_util.Json
module Banding = Dphls_core.Banding

type error_code =
  | Bad_request
  | Unknown_kernel
  | Unsupported
  | Oversized
  | Overloaded
  | Deadline_exceeded
  | Internal

let error_codes =
  [
    Bad_request;
    Unknown_kernel;
    Unsupported;
    Oversized;
    Overloaded;
    Deadline_exceeded;
    Internal;
  ]

let error_name = function
  | Bad_request -> "bad_request"
  | Unknown_kernel -> "unknown_kernel"
  | Unsupported -> "unsupported"
  | Oversized -> "oversized"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Internal -> "internal"

type request = {
  rid : string option;
  kernel_spec : string;
  qry : string;
  ref_seq : string;
  band : Banding.t option option;
  engine : string;
  deadline_ms : float option;
}

(* --- request parsing ------------------------------------------------- *)

exception Reject of error_code * string

let reject code fmt = Printf.ksprintf (fun m -> raise (Reject (code, m))) fmt
let bad fmt = reject Bad_request fmt

let known_fields =
  [ "id"; "kernel"; "qry"; "ref"; "band"; "engine"; "deadline_ms" ]

let str_field name = function
  | Json.Str s -> s
  | _ -> bad "field %S must be a string" name

let int_of_num name = function
  | Json.Num f when Float.is_integer f -> int_of_float f
  | _ -> bad "field %S must be an integer" name

let parse_band = function
  | Json.Obj fields ->
    List.iter
      (fun (k, _) ->
        if not (List.mem k [ "mode"; "width"; "threshold" ]) then
          bad "unknown band field %S" k)
      fields;
    let mode =
      match List.assoc_opt "mode" fields with
      | Some (Json.Str s) -> s
      | Some _ -> bad "field \"band.mode\" must be a string"
      | None -> bad "band object needs a \"mode\" field"
    in
    let width () =
      match List.assoc_opt "width" fields with
      | Some v -> int_of_num "band.width" v
      | None -> bad "band mode %S needs a \"width\" field" mode
    in
    let no_width_fields () =
      if List.mem_assoc "width" fields || List.mem_assoc "threshold" fields
      then bad "band mode \"none\" takes no width or threshold"
    in
    (match mode with
    | "none" ->
      no_width_fields ();
      None
    | "fixed" ->
      if List.mem_assoc "threshold" fields then
        bad "band mode \"fixed\" takes no threshold";
      let w = width () in
      if w < 1 then bad "band width must be >= 1 (got %d)" w;
      Some (Banding.fixed w)
    | "adaptive" ->
      let w = width () in
      let t =
        match List.assoc_opt "threshold" fields with
        | Some v -> int_of_num "band.threshold" v
        | None -> Banding.default_threshold
      in
      if w < 1 then bad "band width must be >= 1 (got %d)" w;
      if t < 0 then bad "band threshold must be >= 0 (got %d)" t;
      Some (Banding.adaptive ~threshold:t w)
    | m -> bad "unknown band mode %S (none, fixed or adaptive)" m)
  | _ -> bad "field \"band\" must be an object"

let parse_request line =
  match Json.parse line with
  | Error msg -> Error (None, Bad_request, "invalid JSON: " ^ msg)
  | Ok (Json.Obj fields) -> (
    (* recover the id first so later rejections stay correlated *)
    let rid =
      match List.assoc_opt "id" fields with
      | Some (Json.Str s) -> Some s
      | _ -> None
    in
    try
      List.iter
        (fun (k, _) ->
          if not (List.mem k known_fields) then bad "unknown field %S" k)
        fields;
      let rid =
        match List.assoc_opt "id" fields with
        | Some v -> Some (str_field "id" v)
        | None -> None
      in
      let kernel_spec =
        match List.assoc_opt "kernel" fields with
        | Some (Json.Str s) -> s
        | Some (Json.Num _ as v) -> string_of_int (int_of_num "kernel" v)
        | Some _ -> bad "field \"kernel\" must be a string or integer"
        | None -> bad "missing required field \"kernel\""
      in
      let required name =
        match List.assoc_opt name fields with
        | Some v -> str_field name v
        | None -> bad "missing required field %S" name
      in
      let qry = required "qry" in
      let ref_seq = required "ref" in
      let band = Option.map parse_band (List.assoc_opt "band" fields) in
      let engine =
        match List.assoc_opt "engine" fields with
        | Some v -> str_field "engine" v
        | None -> "auto"
      in
      let deadline_ms =
        match List.assoc_opt "deadline_ms" fields with
        | None -> None
        | Some (Json.Num f) when f > 0.0 -> Some f
        | Some _ -> bad "field \"deadline_ms\" must be a positive number"
      in
      Ok { rid; kernel_spec; qry; ref_seq; band; engine; deadline_ms }
    with Reject (code, msg) -> Error (rid, code, msg))
  | Ok _ -> Error (None, Bad_request, "request must be a JSON object")

(* --- responses ------------------------------------------------------- *)

type response =
  | Ok_response of {
      rid : string;
      score : int;
      cigar : string;
      cycles : int option;
      engine : string;
      cached : bool;
      latency_ms : float;
    }
  | Error_response of {
      rid : string option;
      code : error_code;
      message : string;
    }

let response_line r =
  Json.(
    to_string
      (match r with
      | Ok_response { rid; score; cigar; cycles; engine; cached; latency_ms } ->
        Obj
          [
            ("id", Str rid);
            ("status", Str "ok");
            ("score", int score);
            ("cigar", Str cigar);
            ("cycles", match cycles with Some c -> int c | None -> Null);
            ("engine", Str engine);
            ("cached", Bool cached);
            ("latency_ms", Num latency_ms);
          ]
      | Error_response { rid; code; message } ->
        Obj
          [
            ("id", match rid with Some r -> Str r | None -> Null);
            ("status", Str "error");
            ("code", Str (error_name code));
            ("message", Str message);
          ]))
