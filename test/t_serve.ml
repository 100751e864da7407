(* The serve layer: wire protocol golden tests, admission/backpressure,
   deadline expiry, cache determinism (differential against
   Dphls.Align), draining, the SLO verdict, a protocol fuzz over random
   and mutated request lines, and the doc-coverage gate that keeps
   docs/serve.md honest about every error code and field. *)

module Proto = Dphls_serve.Proto
module Cache = Dphls_serve.Cache
module Server = Dphls_serve.Server
module Json = Dphls_util.Json
module Banding = Dphls_core.Banding
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
    Alcotest.(check bool) "band" true
      (req.Proto.band = Some (Some (Banding.fixed 8)));
    Alcotest.(check string) "engine" "systolic" req.Proto.engine;
    Alcotest.(check (option (float 1e-9))) "deadline" (Some 50.0)
      req.Proto.deadline_ms

let test_parse_defaults () =
  match Proto.parse_request "{\"kernel\":1,\"qry\":\"A\",\"ref\":\"C\"}" with
  | Error _ -> Alcotest.fail "minimal request rejected"
  | Ok req ->
    Alcotest.(check (option string)) "no id" None req.Proto.rid;
    Alcotest.(check string) "numeric kernel" "1" req.Proto.kernel_spec;
    Alcotest.(check bool) "band keeps kernel" true (req.Proto.band = None);
    Alcotest.(check string) "engine auto" "auto" req.Proto.engine;
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
    "{\"id\":\"x\",\"status\":\"ok\",\"score\":5,\"cigar\":\"3M\",\"cycles\":null,\"engine\":\"reference\",\"cached\":false,\"latency_ms\":1.5}"
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
  (* the engine name is resolved at admission, before the kernel *)
  (match
     one
       (Server.submit server
          "{\"kernel\":42,\"qry\":\"A\",\"ref\":\"C\",\"engine\":\"quantum\"}")
   with
  | Proto.Error_response e ->
    Alcotest.(check string) "unknown engine" "bad_request"
      (Proto.error_name e.code);
    Alcotest.(check string) "lists the valid names"
      "unknown engine \"quantum\" (valid: auto | systolic | reference | bitpar)"
      e.message
  | Proto.Ok_response _ -> Alcotest.fail "unknown engine accepted");
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
  let rs = Server.flush server in
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
  let rest = Server.flush server in
  Alcotest.(check (list string)) "drain keeps order" [ "r4"; "r5" ]
    (List.map (fun r -> (expect_ok r).rid) rest);
  Alcotest.(check int) "nothing pending" 0 (Server.pending server);
  Alcotest.(check int) "drain again is empty" 0
    (List.length (Server.flush server));
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
      let answered = answered + List.length (Server.flush server) in
      Server.close server;
      answered = List.length lines && Server.pending server = 0)

(* ---- one counter store ---- *)

(* One scripted session: a computed request, an expiry, a reject, a
   bitpar refusal, a cache hit and a two-request batch. Returns the
   summary. *)
let counted_session metrics =
  let server, clock = make_server ~queue_depth:2 ~batch_max:4 ~metrics () in
  let line ?(kernel = 1) ?(extra = "") id qry =
    Printf.sprintf "{\"id\":%S,\"kernel\":%d,\"qry\":%S,\"ref\":\"ACGTACGT\"%s}"
      id kernel qry extra
  in
  let submit l = ignore (Server.submit server l) in
  submit (line "a" "ACGTACGT");
  submit (line "late" "ACGAACGT" ~extra:",\"deadline_ms\":10");
  expect_error Proto.Overloaded
    (one (Server.submit server (line "full" "ACGTACGA")));
  submit (line "bp" "ACGTACGT" ~extra:",\"engine\":\"bitpar\"");
  clock := 0.05;
  (match Server.flush server with
  | [ a; late; bp ] ->
    ignore (expect_ok a);
    expect_error Proto.Deadline_exceeded late;
    expect_error Proto.Unsupported bp
  | rs -> Alcotest.failf "first flush gave %d responses" (List.length rs));
  let hit = expect_ok (one (Server.submit server (line "hit" "ACGTACGT"))) in
  Alcotest.(check bool) "answered from the cache" true hit.cached;
  submit (line ~kernel:19 "e1" "ACGTACGT");
  submit (line ~kernel:19 "e2" "ACGTTCGT");
  ignore (Server.flush server);
  let s = Server.summary server in
  Server.close server;
  s

let test_one_counter_store () =
  let metrics = Metrics.create () in
  let s = counted_session metrics in
  Alcotest.(check bool) "same summary with the sink disabled" true
    (counted_session Metrics.disabled = s);
  List.iter
    (fun (what, field, counter, expected) ->
      Alcotest.(check int) what expected field;
      Alcotest.(check int) (what ^ " = its counter") field
        (Metrics.get metrics counter))
    [
      ("admitted", s.Server.admitted, Counter.Serve_requests_admitted, 6);
      ("rejected", s.Server.rejected, Counter.Serve_requests_rejected, 1);
      ("expired", s.Server.expired, Counter.Serve_requests_expired, 1);
      ("cache hits", s.Server.cache_hits, Counter.Serve_cache_hits, 1);
      ("completed", s.Server.completed, Counter.Serve_requests_completed, 4);
      ("batches", s.Server.batches, Counter.Serve_batches, 3);
    ]

(* An auto answer runs on the golden engine and carries the modeled
   cycles: equal to a forced "systolic" answer's on the same pair, here
   at two workers with a flush large enough to be sliced across them. *)
let test_auto_cycles_equal_systolic () =
  let pairs =
    List.init 8 (fun i ->
        let rng = Dphls_util.Rng.create (300 + i) in
        let s n = Dphls_alphabet.Dna.to_string (Dphls_alphabet.Dna.random rng n) in
        (1 + (i mod 2), s (20 + (9 * i)), s (25 + (5 * i))))
  in
  let answers engine =
    let server =
      Server.create
        {
          (Server.default_config ()) with
          Server.batch_max = 8;
          workers = 2;
          cache_capacity = 0;
          n_pe = 16;
        }
    in
    let submitted =
      List.concat_map
        (fun (kernel, qry, rf) ->
          Server.submit server
            (Printf.sprintf
               "{\"kernel\":%d,\"qry\":%S,\"ref\":%S,\"engine\":%S}" kernel
               qry rf engine))
        pairs
    in
    let rs = submitted @ Server.flush server in
    Server.close server;
    List.map expect_ok rs
  in
  let auto = answers "auto" and sys = answers "systolic" in
  Alcotest.(check int) "every pair answered" (2 * List.length pairs)
    (List.length auto + List.length sys);
  List.iter2
    (fun a s ->
      Alcotest.(check string) "auto ran the golden engine" "reference" a.engine;
      Alcotest.(check string) "forced systolic ran the simulator" "systolic" s.engine;
      Alcotest.(check bool) "modeled cycles present" true (a.cycles <> None);
      Alcotest.(check (option int)) "auto cycles == simulated cycles" s.cycles a.cycles;
      Alcotest.(check (pair int string)) "same answer" (s.score, s.cigar)
        (a.score, a.cigar))
    auto sys

(* A flush sliced across workers counts the same engine work as one
   run: cells, alignments and traceback steps do not depend on the
   worker count, on auto's modeled batches or the simulator's. *)
let test_sliced_flush_counts () =
  let pairs =
    List.init 8 (fun i ->
        let rng = Dphls_util.Rng.create (300 + i) in
        let s n = Dphls_alphabet.Dna.to_string (Dphls_alphabet.Dna.random rng n) in
        (s (20 + (9 * i)), s (25 + (5 * i))))
  in
  let counters engine workers =
    let metrics = Metrics.create () in
    let server =
      Server.create
        {
          (Server.default_config ()) with
          Server.batch_max = 8;
          workers;
          cache_capacity = 0;
          n_pe = 16;
          metrics;
        }
    in
    List.iter
      (fun (qry, rf) ->
        ignore
          (Server.submit server
             (Printf.sprintf "{\"kernel\":2,\"qry\":%S,\"ref\":%S,\"engine\":%S}"
                qry rf engine)))
      pairs;
    ignore (Server.flush server);
    Server.close server;
    fun c -> Metrics.get metrics c
  in
  List.iter
    (fun workers ->
      let auto = counters "auto" workers and sys = counters "systolic" workers in
      List.iter
        (fun (engine, get) ->
          List.iter
            (fun (what, c, expected) ->
              Alcotest.(check int)
                (Printf.sprintf "%s, %d workers: %s" engine workers what)
                expected (get c))
            [
              ("cells", Counter.Cells_evaluated, 19_400);
              ("alignments", Counter.Alignments, 8);
              ("tb steps", Counter.Tb_steps, 514);
            ])
        [ ("auto", auto); ("systolic", sys) ];
      Alcotest.(check int)
        (Printf.sprintf "auto, %d workers: fallbacks" workers)
        8
        (auto Counter.Engine_fastpath_fallbacks))
    [ 1; 2 ]

(* Identical requests queued together run once: a flush answers a
   request whose key is already cached, or whose twin earlier in the
   same chunk runs, from that answer (cached, one cache hit), so six
   lines of three distinct pairs cost three alignments at any batch
   size and read what one-at-a-time flushes answer. With the cache off
   every request runs. *)
let test_twins_run_once () =
  let line (qry, rf) = Printf.sprintf "{\"kernel\":2,\"qry\":%S,\"ref\":%S}" qry rf in
  let a = ("ACGTACGTGGCA", "ACGAACGTCGCA")
  and b = ("TTGACCAGTA", "TTGACGAGTAC")
  and c = ("GGCATTACGT", "GGCTTACGTT") in
  let mix = List.map line [ a; b; a; c; b; c ] in
  let serve ~batch_max ~cache_capacity =
    let metrics = Metrics.create () in
    let server, _clock = make_server ~batch_max ~cache_capacity ~metrics () in
    let submitted = List.concat_map (Server.submit server) mix in
    let answers = List.map expect_ok (submitted @ Server.flush server) in
    Server.close server;
    let s = Server.summary server in
    (answers, Metrics.get metrics Counter.Alignments, s.Server.cache_hits)
  in
  let one_by_one, aligned1, hits1 = serve ~batch_max:1 ~cache_capacity:64 in
  let batched, aligned64, hits64 = serve ~batch_max:64 ~cache_capacity:64 in
  Alcotest.(check (pair int int)) "batch 1: alignments, cache hits" (3, 3) (aligned1, hits1);
  Alcotest.(check (pair int int)) "batch 64: alignments, cache hits" (3, 3)
    (aligned64, hits64);
  let fields (o : ok) = (o.rid, o.score, o.cigar, o.cycles, o.engine, o.cached) in
  Alcotest.(check int) "six answers" 6 (List.length batched);
  List.iter2
    (fun x y ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: batch 64 answer == batch 1 answer" x.rid)
        true
        (fields x = fields y))
    one_by_one batched;
  let uncached, aligned_off, hits_off = serve ~batch_max:64 ~cache_capacity:0 in
  Alcotest.(check (pair int int)) "cache off: alignments, cache hits" (6, 0)
    (aligned_off, hits_off);
  Alcotest.(check bool) "cache off: nothing answered cached" true
    (List.for_all (fun o -> not o.cached) uncached)

(* A group lives only while it holds requests: 2,000 requests, each in
   a group of its own (distinct fixed band widths) and each run at once
   (batch 1, cache off), leave the server no larger than the first
   one did. *)
let test_state_only_for_queued_work () =
  let server, _clock = make_server ~batch_max:1 ~cache_capacity:0 () in
  let submit width =
    Printf.sprintf
      "{\"kernel\":1,\"qry\":\"ACGTAC\",\"ref\":\"ACGAAC\",\"band\":{\"mode\":\"fixed\",\"width\":%d}}"
      width
    |> Server.submit server |> one |> expect_ok |> ignore
  in
  submit 1;
  let words () = Obj.reachable_words (Obj.repr server) in
  let after_first = words () in
  for width = 2 to 2000 do
    submit width
  done;
  let after_all = words () in
  Alcotest.(check bool)
    (Printf.sprintf "reachable words %d -> %d (within 1000)" after_first after_all)
    true
    (abs (after_all - after_first) <= 1000);
  Alcotest.(check int) "nothing pending" 0 (Server.pending server);
  Alcotest.(check int) "nothing left to flush" 0 (List.length (Server.flush server));
  Server.close server

let suite =
  [
    Alcotest.test_case "proto: valid request" `Quick test_parse_valid;
    Alcotest.test_case "proto: defaults" `Quick test_parse_defaults;
    Alcotest.test_case "proto: malformed requests" `Quick test_parse_malformed;
    Alcotest.test_case "proto: rid survives rejection" `Quick
      test_parse_keeps_rid_on_error;
    Alcotest.test_case "proto: golden response lines" `Quick
      test_response_lines_golden;
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
    Alcotest.test_case "server: one counter store" `Quick
      test_one_counter_store;
    Alcotest.test_case "server: auto cycles == systolic (sliced)" `Quick
      test_auto_cycles_equal_systolic;
    Alcotest.test_case "server: sliced flush counts like its engine" `Quick
      test_sliced_flush_counts;
    Alcotest.test_case "server: queued twins run once" `Quick test_twins_run_once;
    Alcotest.test_case "server: state only for queued work" `Quick
      test_state_only_for_queued_work;
  ]
