module Json = Dphls_util.Json

type severity = Error | Warning | Info

type finding = { check : string; severity : severity; message : string }

type t = {
  kernel_id : int;
  kernel_name : string;
  max_len : int;
  findings : finding list;
}

let finding ~check ~severity message = { check; severity; message }
let error ~check message = finding ~check ~severity:Error message
let warning ~check message = finding ~check ~severity:Warning message
let info ~check message = finding ~check ~severity:Info message

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let severity_label = function Error -> "error" | Warning -> "warning" | Info -> "info"

let create ~kernel_id ~kernel_name ~max_len findings =
  let findings =
    List.stable_sort
      (fun a b -> compare (severity_rank a.severity) (severity_rank b.severity))
      findings
  in
  { kernel_id; kernel_name; max_len; findings }

let count sev t =
  List.length (List.filter (fun f -> f.severity = sev) t.findings)

let errors = count Error
let warnings = count Warning
let infos = count Info
let clean t = errors t = 0 && warnings t = 0

let pp ppf t =
  Format.fprintf ppf "kernel #%d %s (max_len %d): %s — %d error%s, %d warning%s, %d note%s"
    t.kernel_id t.kernel_name t.max_len
    (if errors t > 0 then "FAIL" else if warnings t > 0 then "WARN" else "OK")
    (errors t)
    (if errors t = 1 then "" else "s")
    (warnings t)
    (if warnings t = 1 then "" else "s")
    (infos t)
    (if infos t = 1 then "" else "s");
  List.iter
    (fun f ->
      Format.fprintf ppf "@\n  [%s] %s: %s" (severity_label f.severity) f.check
        f.message)
    t.findings

let finding_to_value f =
  Json.(
    Obj
      [
        ("check", Str f.check);
        ("severity", Str (severity_label f.severity));
        ("message", Str f.message);
      ])

let to_value t =
  Json.(
    Obj
      [
        ("kernel", Obj [ ("id", int t.kernel_id); ("name", Str t.kernel_name) ]);
        ("max_len", int t.max_len);
        ( "summary",
          Obj
            [
              ("errors", int (errors t));
              ("warnings", int (warnings t));
              ("infos", int (infos t));
            ] );
        ("findings", Arr (List.map finding_to_value t.findings));
      ])

let to_json t = Json.to_string (to_value t)

let list_to_json reports =
  Json.(
    to_string
      (Obj
         [
           ("reports", Arr (List.map to_value reports));
           ( "errors",
             int (List.fold_left (fun acc r -> acc + errors r) 0 reports) );
         ]))

let severity_of_label = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "info" -> Some Info
  | _ -> None

(* Parsing helpers over Json.t; [ctx] names the field being decoded so
   mismatches point at the offending part of the schema. *)
let json_int ctx = function
  | Json.Num f when Float.is_integer f -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "%s: expected an integer" ctx)

let json_str ctx = function
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "%s: expected a string" ctx)

let json_field ctx name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing field \"%s\"" ctx name)

let ( let* ) = Result.bind

let finding_of_value j =
  let* check = json_field "finding" "check" j in
  let* check = json_str "finding.check" check in
  let* sev = json_field "finding" "severity" j in
  let* sev = json_str "finding.severity" sev in
  let* severity =
    match severity_of_label sev with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "finding.severity: unknown label %S" sev)
  in
  let* message = json_field "finding" "message" j in
  let* message = json_str "finding.message" message in
  Ok { check; severity; message }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let of_value j =
  let* kernel = json_field "report" "kernel" j in
  let* id = json_field "report.kernel" "id" kernel in
  let* kernel_id = json_int "report.kernel.id" id in
  let* name = json_field "report.kernel" "name" kernel in
  let* kernel_name = json_str "report.kernel.name" name in
  let* ml = json_field "report" "max_len" j in
  let* max_len = json_int "report.max_len" ml in
  let* fs = json_field "report" "findings" j in
  let* findings =
    match fs with
    | Json.Arr items -> map_result finding_of_value items
    | _ -> Error "report.findings: expected an array"
  in
  let t = create ~kernel_id ~kernel_name ~max_len findings in
  let* summary = json_field "report" "summary" j in
  let check_count what count =
    let* v = json_field "report.summary" what summary in
    let* n = json_int ("report.summary." ^ what) v in
    if n = count then Ok ()
    else
      Error
        (Printf.sprintf
           "report.summary.%s: claims %d but the findings list has %d" what n
           count)
  in
  let* () = check_count "errors" (errors t) in
  let* () = check_count "warnings" (warnings t) in
  let* () = check_count "infos" (infos t) in
  Ok t

let of_json s =
  let* j = Json.parse s in
  of_value j

let list_of_json s =
  let* j = Json.parse s in
  let* rs = json_field "root" "reports" j in
  let* reports =
    match rs with
    | Json.Arr items -> map_result of_value items
    | _ -> Error "root.reports: expected an array"
  in
  let* e = json_field "root" "errors" j in
  let* total = json_int "root.errors" e in
  let actual = List.fold_left (fun acc r -> acc + errors r) 0 reports in
  if total <> actual then
    Error
      (Printf.sprintf "root.errors: claims %d but the reports sum to %d" total
         actual)
  else Ok reports
