(* The serve layer: wire protocol golden tests, admission/backpressure,
   deadline expiry, cache determinism (differential against
   Dphls.Align), draining, the SLO verdict, a protocol fuzz over random
   and mutated request lines, and the doc-coverage gate that keeps
   docs/serve.md honest about every error code and field. *)

module Proto = Dphls_serve.Proto
module Cache = Dphls_serve.Cache
module Server = Dphls_serve.Server
module Json = Dphls_analysis.Json
module Metrics = Dphls_obs.Metrics
module Counter = Dphls_obs.Counter

(* a server with a deterministic, manually-advanced clock *)
let make_server ?(queue_depth = 256) ?(batch_max = 64) ?(cache_capacity = 64)
    ?(max_seq_len = 512) ?(max_line_bytes = 4096) ?default_deadline_ms
    ?slo_p99_ms ?(metrics = Metrics.disabled) () =
  let clock = ref 0.0 in
  let cfg =
    {
      (Server.default_config ()) with
      Server.queue_depth;
      batch_max;
      cache_capacity;
      max_seq_len;
      max_line_bytes;
      default_deadline_ms;
      slo_p99_ms;
      metrics;
      now = (fun () -> !clock);
    }
  in
  (Server.create cfg, clock)

let member_str name j =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "response field %S is not a string" name

let member_num name j =
  match Json.member name j with
  | Some (Json.Num f) -> f
  | _ -> Alcotest.failf "response field %S is not a number" name

let parse_response r =
  let line = Proto.response_line r in
  match Json.parse line with
  | Ok j -> j
  | Error m -> Alcotest.failf "response line is not valid JSON (%s): %s" m line

let one = function
  | [ r ] -> r
  | rs -> Alcotest.failf "expected exactly one response, got %d" (List.length rs)

let expect_error code r =
  match r with
  | Proto.Error_response e ->
    Alcotest.(check string)
      "error code" (Proto.error_name code) (Proto.error_name e.code)
  | Proto.Ok_response _ -> Alcotest.fail "expected an error response"

(* Proto.Ok_response carries an inlined record, which cannot escape a
   match — copy the fields into a plain record for assertions *)
type ok = {
  rid : string;
  score : int;
  cigar : string;
  cycles : int option;
  engine : string;
  cached : bool;
  latency_ms : float;
}

let expect_ok r =
  match r with
  | Proto.Ok_response { rid; score; cigar; cycles; engine; cached; latency_ms }
    ->
    { rid; score; cigar; cycles; engine; cached; latency_ms }
  | Proto.Error_response e ->
    Alcotest.failf "expected ok, got %s: %s" (Proto.error_name e.code)
      e.message

(* ---- protocol ---- *)

let test_parse_valid () =
  match
    Proto.parse_request
      "{\"id\":\"r1\",\"kernel\":\"local-linear\",\"qry\":\"ACGT\",\"ref\":\"ACGA\",\"band\":{\"mode\":\"fixed\",\"width\":8},\"engine\":\"systolic\",\"deadline_ms\":50}"
  with
  | Error _ -> Alcotest.fail "valid request rejected"
  | Ok req ->
    Alcotest.(check (option string)) "id" (Some "r1") req.Proto.rid;
    Alcotest.(check string) "kernel" "local-linear" req.Proto.kernel_spec;
    Alcotest.(check string) "qry" "ACGT" req.Proto.qry;
    Alcotest.(check string) "ref" "ACGA" req.Proto.ref_seq;
    Alcotest.(check string) "band" "fixed:8"
      (Proto.band_signature req.Proto.band);
    Alcotest.(check string) "engine" "systolic" req.Proto.engine_label;
    Alcotest.(check (option (float 1e-9))) "deadline" (Some 50.0)
      req.Proto.deadline_ms

let test_parse_defaults () =
  match Proto.parse_request "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\"}" with
  | Error _ -> Alcotest.fail "minimal request rejected"
  | Ok req ->
    Alcotest.(check (option string)) "no id" None req.Proto.rid;
    Alcotest.(check string) "numeric kernel" "1" req.Proto.kernel_spec;
    Alcotest.(check string) "band keeps kernel" "keep"
      (Proto.band_signature req.Proto.band);
    Alcotest.(check string) "engine auto" "auto" req.Proto.engine_label;
    Alcotest.(check (option (float 0.0))) "no deadline" None
      req.Proto.deadline_ms

let bad_requests =
  [
    ("not json at all", "garbage");
    ("non-object", "[1,2]");
    ("unknown field", "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\",\"bogus\":1}");
    ("missing kernel", "{\"qry\":\"A\",\"ref\":\"C\"}");
    ("missing qry", "{\"kernel\":1,\"ref\":\"C\"}");
    ("missing ref", "{\"kernel\":1,\"qry\":\"A\"}");
    ("kernel bool", "{\"kernel\":true,\"qry\":\"A\",\"ref\":\"C\"}");
    ("kernel float", "{\"kernel\":1.5,\"qry\":\"A\",\"ref\":\"C\"}");
    ("band not object", "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\",\"band\":3}");
    ( "band no mode",
      "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\",\"band\":{\"width\":4}}" );
    ( "band unknown mode",
      "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\",\"band\":{\"mode\":\"wavy\"}}"
    );
    ( "band unknown field",
      "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\",\"band\":{\"mode\":\"none\",\"x\":1}}"
    );
    ( "fixed band without width",
      "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\",\"band\":{\"mode\":\"fixed\"}}"
    );
    ( "fixed band with threshold",
      "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\",\"band\":{\"mode\":\"fixed\",\"width\":4,\"threshold\":2}}"
    );
    ( "band width zero",
      "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\",\"band\":{\"mode\":\"fixed\",\"width\":0}}"
    );
    ( "none band with width",
      "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\",\"band\":{\"mode\":\"none\",\"width\":4}}"
    );
    ( "unknown engine",
      "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\",\"engine\":\"quantum\"}" );
    ( "negative deadline",
      "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\",\"deadline_ms\":-5}" );
    ( "deadline string",
      "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\",\"deadline_ms\":\"soon\"}" );
  ]

let test_parse_malformed () =
  List.iter
    (fun (what, line) ->
      match Proto.parse_request line with
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | Error (_, code, _) ->
        Alcotest.(check string) what "bad_request" (Proto.error_name code))
    bad_requests

let test_parse_keeps_rid_on_error () =
  match
    Proto.parse_request "{\"id\":\"r9\",\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\",\"mystery\":0}"
  with
  | Error (Some "r9", Proto.Bad_request, _) -> ()
  | Error _ -> Alcotest.fail "lost the request id"
  | Ok _ -> Alcotest.fail "accepted"

let test_response_lines_golden () =
  Alcotest.(check string)
    "error line"
    "{\"id\":null,\"status\":\"error\",\"code\":\"internal\",\"message\":\"boom\"}"
    (Proto.response_line
       (Proto.Error_response
          { rid = None; code = Proto.Internal; message = "boom" }));
  Alcotest.(check string)
    "ok line"
    "{\"id\":\"x\",\"status\":\"ok\",\"score\":5,\"cigar\":\"3M\",\"cycles\":null,\"engine\":\"reference\",\"cached\":false,\"latency_ms\":1.500}"
    (Proto.response_line
       (Proto.Ok_response
          {
            rid = "x";
            score = 5;
            cigar = "3M";
            cycles = None;
            engine = "reference";
            cached = false;
            latency_ms = 1.5;
          }));
  (* every emitted line must re-parse under the same strict parser *)
  List.iter
    (fun code ->
      let r =
        Proto.Error_response
          { rid = Some "q\"uote"; code; message = "line\nbreak \x01" }
      in
      match Json.parse (Proto.response_line r) with
      | Ok j ->
        Alcotest.(check string) "code round-trips" (Proto.error_name code)
          (member_str "code" j)
      | Error m -> Alcotest.failf "unparseable response: %s" m)
    Proto.error_codes

let test_json_escape () =
  Alcotest.(check string) "escapes" "a\\\"b\\\\c\\nd\\te\\u0001"
    (Proto.json_escape "a\"b\\c\nd\te\x01")

(* ---- cache ---- *)

let v s = { Cache.score = s; cigar = ""; cycles = None; engine = "e" }

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" (v 1);
  Cache.add c "b" (v 2);
  (* touch "a" so "b" is now the LRU victim *)
  Alcotest.(check bool) "a hit" true (Cache.find c "a" <> None);
  Cache.add c "c" (v 3);
  Alcotest.(check int) "capacity held" 2 (Cache.length c);
  Alcotest.(check bool) "b evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "a kept" true (Cache.find c "a" <> None);
  Alcotest.(check bool) "c kept" true (Cache.find c "c" <> None);
  Cache.add c "a" (v 9);
  (match Cache.find c "a" with
  | Some { Cache.score = 9; _ } -> ()
  | _ -> Alcotest.fail "refresh did not replace the value");
  let disabled = Cache.create ~capacity:0 in
  Cache.add disabled "a" (v 1);
  Alcotest.(check bool) "capacity 0 never stores" true
    (Cache.find disabled "a" = None)

(* ---- server: protocol errors through submit ---- *)

let test_submit_error_codes () =
  let server, _clock = make_server ~max_seq_len:8 ~max_line_bytes:128 () in
  expect_error Proto.Bad_request (one (Server.submit server "nonsense"));
  expect_error Proto.Unknown_kernel
    (one (Server.submit server "{\"kernel\":42,\"qry\":\"A\",\"ref\":\"C\"}"));
  expect_error Proto.Unknown_kernel
    (one
       (Server.submit server
          "{\"kernel\":\"nessie\",\"qry\":\"A\",\"ref\":\"C\"}"));
  (* kernels whose alphabet the line protocol cannot carry *)
  List.iter
    (fun id ->
      expect_error Proto.Unsupported
        (one
           (Server.submit server
              (Printf.sprintf "{\"kernel\":%d,\"qry\":\"A\",\"ref\":\"C\"}" id))))
    [ 8; 9; 14 ];
  (* sequence over max_seq_len, then a whole line over max_line_bytes *)
  expect_error Proto.Oversized
    (one
       (Server.submit server
          "{\"kernel\":1,\"qry\":\"ACGTACGTA\",\"ref\":\"C\"}"));
  expect_error Proto.Oversized
    (one (Server.submit server (String.make 256 ' ')));
  expect_error Proto.Bad_request
    (one (Server.submit server "{\"kernel\":1,\"qry\":\"AXA\",\"ref\":\"C\"}"));
  expect_error Proto.Bad_request
    (one (Server.submit server "{\"kernel\":1,\"qry\":\"\",\"ref\":\"C\"}"));
  (* a forced engine that refuses the kernel shape surfaces as
     unsupported at flush *)
  let rs =
    Server.submit server
      "{\"id\":\"bp\",\"kernel\":1,\"qry\":\"ACGT\",\"ref\":\"ACGT\",\"engine\":\"bitpar\"}"
  in
  Alcotest.(check int) "queued" 0 (List.length rs);
  expect_error Proto.Unsupported (one (Server.flush server));
  Server.close server

(* ---- backpressure ---- *)

let test_backpressure () =
  let metrics = Metrics.create () in
  let server, _clock =
    make_server ~queue_depth:2 ~batch_max:100 ~metrics ()
  in
  let req i =
    Printf.sprintf "{\"id\":\"r%d\",\"kernel\":1,\"qry\":\"ACGT\",\"ref\":\"ACGT\"}" i
  in
  Alcotest.(check int) "first queued" 0 (List.length (Server.submit server (req 1)));
  Alcotest.(check int) "second queued" 0 (List.length (Server.submit server (req 2)));
  expect_error Proto.Overloaded (one (Server.submit server (req 3)));
  Alcotest.(check int) "pending" 2 (Server.pending server);
  (* a different group has its own bounded queue *)
  Alcotest.(check int) "other kernel unaffected" 0
    (List.length
       (Server.submit server "{\"kernel\":19,\"qry\":\"ACGT\",\"ref\":\"ACGT\"}"));
  let rs = Server.drain server in
  Alcotest.(check int) "drained" 3 (List.length rs);
  List.iter (fun r -> ignore (expect_ok r)) rs;
  let s = Server.summary server in
  Alcotest.(check int) "summary admitted" 3 s.Server.admitted;
  Alcotest.(check int) "summary rejected" 1 s.Server.rejected;
  Alcotest.(check int) "counter admitted" 3
    (Metrics.get metrics Counter.Serve_requests_admitted);
  Alcotest.(check int) "counter rejected" 1
    (Metrics.get metrics Counter.Serve_requests_rejected);
  Server.close server

(* ---- deadlines ---- *)

let test_deadline_expiry () =
  let metrics = Metrics.create () in
  let server, clock = make_server ~metrics () in
  ignore
    (Server.submit server
       "{\"id\":\"late\",\"kernel\":1,\"qry\":\"ACGT\",\"ref\":\"ACGT\",\"deadline_ms\":10}");
  ignore
    (Server.submit server
       "{\"id\":\"calm\",\"kernel\":1,\"qry\":\"ACGT\",\"ref\":\"ACGT\"}");
  clock := 0.05 (* 50 ms later: past "late"'s deadline, "calm" has none *);
  let rs = Server.flush server in
  Alcotest.(check int) "both answered" 2 (List.length rs);
  (match rs with
  | [ first; second ] ->
    expect_error Proto.Deadline_exceeded first;
    (match first with
    | Proto.Error_response { rid = Some "late"; _ } -> ()
    | _ -> Alcotest.fail "expired response lost its id");
    let ok = expect_ok second in
    Alcotest.(check string) "survivor id" "calm" ok.rid
  | _ -> Alcotest.fail "admission order lost");
  Alcotest.(check int) "expired counter" 1
    (Metrics.get metrics Counter.Serve_requests_expired);
  (* config-default deadline applies when the request has none *)
  let server2, clock2 = make_server ~default_deadline_ms:5.0 () in
  ignore
    (Server.submit server2 "{\"kernel\":1,\"qry\":\"ACGT\",\"ref\":\"ACGT\"}");
  clock2 := 1.0;
  expect_error Proto.Deadline_exceeded (one (Server.flush server2));
  Server.close server;
  Server.close server2

(* ---- cache determinism (differential vs Dphls.Align) ---- *)

let test_cache_hit_determinism () =
  let metrics = Metrics.create () in
  let server, _clock = make_server ~batch_max:1 ~metrics () in
  let query = "ACGTACGTGG" and reference = "ACGAACGTCG" in
  let line =
    Printf.sprintf "{\"kernel\":1,\"qry\":\"%s\",\"ref\":\"%s\"}" query
      reference
  in
  let first = expect_ok (one (Server.submit server line)) in
  let second = expect_ok (one (Server.submit server line)) in
  Alcotest.(check bool) "first computed" false first.cached;
  Alcotest.(check bool) "second cached" true second.cached;
  Alcotest.(check int) "same score" first.score second.score;
  Alcotest.(check string) "same cigar" first.cigar second.cigar;
  Alcotest.(check string) "same engine" first.engine second.engine;
  Alcotest.(check (option int)) "same cycles" first.cycles second.cycles;
  (* the served answer is the library answer *)
  let golden = Dphls.Align.global ~query ~reference () in
  Alcotest.(check int) "score matches Align" golden.Dphls.Align.score
    first.score;
  Alcotest.(check string) "cigar matches Align" golden.Dphls.Align.cigar
    first.cigar;
  Alcotest.(check int) "cache_hits counter" 1
    (Metrics.get metrics Counter.Serve_cache_hits);
  (* a band override is a different cache identity *)
  let banded =
    Printf.sprintf
      "{\"kernel\":1,\"qry\":\"%s\",\"ref\":\"%s\",\"band\":{\"mode\":\"fixed\",\"width\":4}}"
      query reference
  in
  let third = expect_ok (one (Server.submit server banded)) in
  Alcotest.(check bool) "band override misses" false third.cached;
  Server.close server

(* ---- coalescing, draining, response fields ---- *)

let test_autoflush_and_drain_order () =
  let server, _clock = make_server ~batch_max:3 () in
  (* distinct queries so no request short-circuits as a cache hit *)
  let qrys = [| "AACGTA"; "CACGTA"; "GACGTA"; "TACGTA"; "AGCGTA" |] in
  let req i =
    Printf.sprintf
      "{\"id\":\"r%d\",\"kernel\":19,\"qry\":\"%s\",\"ref\":\"ACGTAC\"}" i
      qrys.(i - 1)
  in
  Alcotest.(check int) "r1 queued" 0 (List.length (Server.submit server (req 1)));
  Alcotest.(check int) "r2 queued" 0 (List.length (Server.submit server (req 2)));
  let batch = Server.submit server (req 3) in
  Alcotest.(check int) "batch_max trips a flush" 3 (List.length batch);
  Alcotest.(check (list string)) "admission order" [ "r1"; "r2"; "r3" ]
    (List.map (fun r -> (expect_ok r).rid) batch);
  (* auto requests without ids drain in order with server-assigned ids *)
  for i = 4 to 5 do
    ignore (Server.submit server (req i))
  done;
  let rest = Server.drain server in
  Alcotest.(check (list string)) "drain keeps order" [ "r4"; "r5" ]
    (List.map (fun r -> (expect_ok r).rid) rest);
  Alcotest.(check int) "nothing pending" 0 (Server.pending server);
  Alcotest.(check int) "drain again is empty" 0
    (List.length (Server.drain server));
  Server.close server

let test_response_fields_by_engine () =
  let server, _clock = make_server ~batch_max:1 () in
  let submit engine =
    expect_ok
      (one
         (Server.submit server
            (Printf.sprintf
               "{\"kernel\":1,\"qry\":\"ACGT\",\"ref\":\"ACGT\",\"engine\":%S}"
               engine)))
  in
  let systolic = submit "systolic" in
  Alcotest.(check string) "systolic ran" "systolic" systolic.engine;
  Alcotest.(check bool) "systolic has cycles" true (systolic.cycles <> None);
  let reference = submit "reference" in
  Alcotest.(check string) "reference ran" "reference" reference.engine;
  Alcotest.(check (option int)) "reference has no cycle model" None
    reference.cycles;
  (* wire form: cycles null, score/latency numbers *)
  let j =
    parse_response
      (Proto.Ok_response
         {
           rid = systolic.rid;
           score = systolic.score;
           cigar = systolic.cigar;
           cycles = None;
           engine = systolic.engine;
           cached = systolic.cached;
           latency_ms = 0.25;
         })
  in
  Alcotest.(check bool) "cycles null on the wire" true
    (Json.member "cycles" j = Some Json.Null);
  Alcotest.(check (float 1e-9)) "latency on the wire" 0.25
    (member_num "latency_ms" j);
  Server.close server

(* the auto choice on a bit-parallel-eligible kernel routes the whole
   batch through bitpar and still answers score-only requests *)
let test_auto_routes_fastpath () =
  let metrics = Metrics.create () in
  let server, _clock = make_server ~batch_max:2 ~metrics () in
  let line = "{\"kernel\":19,\"qry\":\"ACGTACGT\",\"ref\":\"ACGAACGT\"}" in
  ignore (Server.submit server line);
  let rs =
    Server.submit server "{\"kernel\":19,\"qry\":\"ACGTACGA\",\"ref\":\"ACGAACGT\"}"
  in
  Alcotest.(check int) "one coalesced batch" 2 (List.length rs);
  List.iter
    (fun r ->
      let ok = expect_ok r in
      Alcotest.(check string) "bitpar served it" "bitpar" ok.engine;
      Alcotest.(check string) "score-only: empty cigar" "" ok.cigar)
    rs;
  Alcotest.(check bool) "fastpath hits counted" true
    (Metrics.get metrics Counter.Engine_fastpath_hits >= 2);
  Server.close server

(* ---- SLO verdict ---- *)

let test_slo_verdict () =
  (* every completed request takes 40 ms on the fake clock *)
  let run slo =
    let server, clock = make_server ~batch_max:64 ?slo_p99_ms:slo () in
    for _ = 1 to 5 do
      ignore
        (Server.submit server "{\"kernel\":1,\"qry\":\"ACGT\",\"ref\":\"ACGT\"}");
      clock := !clock +. 0.04;
      ignore (Server.flush server)
    done;
    let s = Server.summary server in
    Server.close server;
    s
  in
  let met = run (Some 100.0) in
  Alcotest.(check bool) "slo met" true met.Server.slo_ok;
  let violated = run (Some 10.0) in
  Alcotest.(check bool) "slo violated" false violated.Server.slo_ok;
  Alcotest.(check bool) "p99 is a real latency" true
    (violated.Server.p99_ms >= 39.0);
  let unset = run None in
  Alcotest.(check bool) "no slo is vacuously ok" true unset.Server.slo_ok;
  (* the JSON summary carries the verdict for the CI smoke *)
  let j =
    match Json.parse (Server.summary_to_json violated) with
    | Ok j -> j
    | Error m -> Alcotest.failf "summary json: %s" m
  in
  Alcotest.(check bool) "slo_ok on the wire" true
    (Json.member "slo_ok" j = Some (Json.Bool false))

(* ---- docs coverage ---- *)

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* docs/serve.md must name every error code the protocol can emit and
   every request/response field; adding a variant or field without
   documenting it fails here *)
let test_docs_cover_protocol () =
  let doc = read_file "../docs/serve.md" in
  let contains s =
    let n = String.length doc and m = String.length s in
    let rec go i = i + m <= n && (String.sub doc i m = s || go (i + 1)) in
    go 0
  in
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (Printf.sprintf "error code %S documented" (Proto.error_name code))
        true
        (contains (Proto.error_name code)))
    Proto.error_codes;
  List.iter
    (fun field ->
      Alcotest.(check bool)
        (Printf.sprintf "field %S documented" field)
        true
        (contains (Printf.sprintf "`%s`" field)))
    [
      "id"; "kernel"; "qry"; "ref"; "band"; "engine"; "deadline_ms";
      "status"; "score"; "cigar"; "cycles"; "cached"; "latency_ms";
      "code"; "message"; "mode"; "width"; "threshold";
    ]

(* ---- protocol fuzz ---- *)

(* Valid requests as (field, JSON text) lists, the seeds of mutation. *)
let fuzz_seeds =
  [|
    [ ("id", {|"a"|}); ("kernel", "1"); ("qry", {|"ACGTACGT"|}); ("ref", {|"ACGAACGT"|}) ];
    [
      ("id", {|"b"|}); ("kernel", {|"local-affine"|}); ("qry", {|"ACGT"|});
      ("ref", {|"ACGGT"|}); ("engine", {|"reference"|});
    ];
    [
      ("kernel", "19"); ("qry", {|"ACGTTT"|}); ("ref", {|"ACGT"|});
      ("engine", {|"bitpar"|}); ("deadline_ms", "50");
    ];
    [
      ("id", {|"d"|}); ("kernel", "11"); ("qry", {|"ACGTAC"|}); ("ref", {|"ACGTAC"|});
      ("band", {|{"mode":"fixed","width":2}|});
    ];
    [
      ("id", {|"e"|}); ("kernel", "15"); ("qry", {|"MKVL"|}); ("ref", {|"MKIL"|});
      ("band", {|{"mode":"adaptive","width":3,"threshold":10}|}); ("engine", {|"auto"|});
    ];
  |]

let fuzz_values =
  [|
    "0"; "-1"; "1e400"; "-1e400"; "1e-400"; "123456789012345678901234567890";
    "9223372036854775807"; "-9223372036854775808"; "0.5"; "true"; "null"; "[]";
    "{}"; {|""|}; {|"x"|}; {|"\u0000"|}; "[1,2]"; {|{"mode":7}|};
    {|{"mode":"fixed","width":1e30}|};
  |]

let render fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields)
  ^ "}"

let fuzz_line =
  let open QCheck.Gen in
  let pick a = map (fun i -> a.(i)) (int_bound (Array.length a - 1)) in
  let field_mutation fields =
    let n = List.length fields in
    int_bound (n - 1) >>= fun i ->
    let k, v = List.nth fields i in
    oneof
      [
        (* drop the field *)
        return (List.filteri (fun j _ -> j <> i) fields);
        (* duplicate it *)
        return (fields @ [ (k, v) ]);
        (* swap its JSON type / push it to an extreme *)
        map (fun v' -> List.mapi (fun j f -> if j = i then (k, v') else f) fields)
          (pick fuzz_values);
        (* an unknown field *)
        return (fields @ [ ("bogus", "1") ]);
      ]
  in
  let text_mutation line =
    let n = String.length line in
    oneof
      [
        map (fun cut -> String.sub line 0 cut) (int_bound n);
        map
          (fun at -> String.sub line 0 at ^ "\000" ^ String.sub line at (n - at))
          (int_bound n);
        map (fun c -> line ^ String.make 1 c) char;
      ]
  in
  let mutated =
    pick fuzz_seeds >>= fun fields ->
    int_range 0 3 >>= fun rounds ->
    let rec go k fields =
      if k = 0 || fields = [] then return fields
      else field_mutation fields >>= go (k - 1)
    in
    go rounds fields >>= fun fields ->
    let line = render fields in
    frequency [ (3, return line); (1, text_mutation line) ]
  in
  frequency
    [
      (4, mutated);
      (1, string_size ~gen:char (int_bound 64));
      (1, return "");
    ]

(* Whatever arrives, the server answers every submitted line exactly
   once (immediately, in an auto-flush or at drain) and never lets an
   exception escape. The fake clock advances 20 ms per line, so short
   deadlines expire while their requests wait in a queue. *)
let prop_protocol_fuzz =
  QCheck.Test.make ~name:"server: fuzzed lines get one response each" ~count:150
    (QCheck.make
       ~print:(fun ls -> String.concat "\n" (List.map String.escaped ls))
       QCheck.Gen.(list_size (int_range 1 12) fuzz_line))
    (fun lines ->
      let server, clock =
        make_server ~queue_depth:4 ~batch_max:3 ~cache_capacity:8 ~max_seq_len:16
          ~max_line_bytes:256 ()
      in
      let answered =
        List.fold_left
          (fun n line ->
            clock := !clock +. 0.02;
            n + List.length (Server.submit server line))
          0 lines
      in
      let answered = answered + List.length (Server.drain server) in
      Server.close server;
      answered = List.length lines && Server.pending server = 0)

let suite =
  [
    Alcotest.test_case "proto: valid request" `Quick test_parse_valid;
    Alcotest.test_case "proto: defaults" `Quick test_parse_defaults;
    Alcotest.test_case "proto: malformed requests" `Quick test_parse_malformed;
    Alcotest.test_case "proto: rid survives rejection" `Quick
      test_parse_keeps_rid_on_error;
    Alcotest.test_case "proto: golden response lines" `Quick
      test_response_lines_golden;
    Alcotest.test_case "proto: json escaping" `Quick test_json_escape;
    Alcotest.test_case "cache: lru eviction" `Quick test_cache_lru;
    Alcotest.test_case "server: every submit error code" `Quick
      test_submit_error_codes;
    Alcotest.test_case "server: backpressure" `Quick test_backpressure;
    Alcotest.test_case "server: deadline expiry" `Quick test_deadline_expiry;
    Alcotest.test_case "server: cache-hit determinism" `Quick
      test_cache_hit_determinism;
    Alcotest.test_case "server: coalescing and drain order" `Quick
      test_autoflush_and_drain_order;
    Alcotest.test_case "server: response fields per engine" `Quick
      test_response_fields_by_engine;
    Alcotest.test_case "server: auto routes the fast path" `Quick
      test_auto_routes_fastpath;
    Alcotest.test_case "server: slo verdict" `Quick test_slo_verdict;
    QCheck_alcotest.to_alcotest prop_protocol_fuzz;
    Alcotest.test_case "docs: serve.md covers the protocol" `Quick
      test_docs_cover_protocol;
  ]
