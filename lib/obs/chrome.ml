module Json = Dphls_util.Json

type event = {
  name : string;
  cat : string;
  ph : string;
  ts : float;
  dur : float;
  pid : int;
  tid : int;
}

let us_of_s s = s *. 1e6

let events_of_tracer tracer =
  List.map
    (fun (s : Tracer.span) ->
      {
        name = s.Tracer.span_name;
        cat = s.Tracer.cat;
        ph = "X";
        ts = us_of_s s.Tracer.t0;
        dur = us_of_s (s.Tracer.t1 -. s.Tracer.t0);
        pid = 0;
        tid = s.Tracer.tid;
      })
    (Tracer.spans tracer)

let event_to_value e =
  Json.(
    Obj
      [
        ("name", Str e.name);
        ("cat", Str e.cat);
        ("ph", Str e.ph);
        ("ts", Num e.ts);
        ("dur", Num e.dur);
        ("pid", int e.pid);
        ("tid", int e.tid);
      ])

let to_json ?(process_name = "dphls") tracer =
  Json.(
    to_string
      (Obj
         [
           ("displayTimeUnit", Str "ms");
           ("otherData", Obj [ ("process_name", Str process_name) ]);
           ("traceEvents", Arr (List.map event_to_value (events_of_tracer tracer)));
         ]))

let write_file path ?process_name tracer =
  let oc = open_out path in
  output_string oc (to_json ?process_name tracer);
  output_char oc '\n';
  close_out oc

let parse text =
  let fail msg = failwith ("Chrome.parse: " ^ msg) in
  let events =
    match Json.parse text with
    | Error msg -> fail msg
    | Ok top -> (
      match Json.member "traceEvents" top with
      | Some (Json.Arr es) -> es
      | Some _ -> fail "traceEvents is not an array"
      | None -> fail "no traceEvents array")
  in
  let str fields key =
    match List.assoc_opt key fields with Some (Json.Str s) -> s | _ -> ""
  in
  let num fields key =
    match List.assoc_opt key fields with Some (Json.Num f) -> f | _ -> 0.0
  in
  List.map
    (function
      | Json.Obj fields ->
        {
          name = str fields "name";
          cat = str fields "cat";
          ph = str fields "ph";
          ts = num fields "ts";
          dur = num fields "dur";
          pid = int_of_float (num fields "pid");
          tid = int_of_float (num fields "tid");
        }
      | _ -> fail "traceEvents entry is not an object")
    events
