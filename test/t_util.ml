(* Unit and property tests for Dphls_util. *)
module Rng = Dphls_util.Rng
module Score = Dphls_util.Score
module Bits = Dphls_util.Bits
module Stats = Dphls_util.Stats
module Pretty = Dphls_util.Pretty
module Json = Dphls_util.Json

let test_rng_deterministic () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then distinct := true
  done;
  Alcotest.(check bool) "different seeds differ" true !distinct

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7);
    let f = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (f >= 0.0 && f < 2.5);
    let x = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (x >= -5 && x <= 5)
  done

let test_rng_uniformity () =
  let rng = Rng.create 4 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let v = Rng.int rng 4 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "roughly uniform" true (frac > 0.22 && frac < 0.28))
    counts

let test_rng_weighted () =
  let rng = Rng.create 5 in
  let w = [| 1.0; 3.0; 0.0; 6.0 |] in
  let counts = Array.make 4 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let i = Rng.weighted_index rng w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never drawn" 0 counts.(2);
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "weight 0.1" true (abs_float (frac 0 -. 0.1) < 0.02);
  Alcotest.(check bool) "weight 0.3" true (abs_float (frac 1 -. 0.3) < 0.02);
  Alcotest.(check bool) "weight 0.6" true (abs_float (frac 3 -. 0.6) < 0.02)

let test_rng_gaussian () =
  let rng = Rng.create 6 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mean:3.0 ~stddev:2.0) in
  Alcotest.(check bool) "mean" true (abs_float (Stats.mean xs -. 3.0) < 0.1);
  Alcotest.(check bool) "stddev" true (abs_float (Stats.stddev xs -. 2.0) < 0.1)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 7 in
  let arr = Array.init 20 Fun.id in
  let copy = Array.copy arr in
  Rng.shuffle rng copy;
  Array.sort compare copy;
  Alcotest.(check bool) "same multiset" true (copy = arr)

let test_rng_split_independent () =
  let a = Rng.create 8 in
  let b = Rng.split a in
  let va = Rng.int64 a and vb = Rng.int64 b in
  Alcotest.(check bool) "split streams differ" true (va <> vb)

let test_score_saturation () =
  Alcotest.(check bool) "neg_inf absorbs" true
    (Score.is_neg_inf (Score.add Score.neg_inf 1000));
  Alcotest.(check bool) "pos_inf absorbs" true
    (Score.is_pos_inf (Score.add Score.pos_inf (-1000)));
  Alcotest.(check int) "plain add" 7 (Score.add 3 4);
  Alcotest.(check bool) "no wraparound" true
    (Score.add Score.pos_inf Score.pos_inf > 0)

let test_score_objective () =
  Alcotest.(check bool) "max better" true (Score.better Score.Maximize 3 2);
  Alcotest.(check bool) "min better" true (Score.better Score.Minimize 2 3);
  Alcotest.(check bool) "strict" false (Score.better Score.Maximize 2 2);
  Alcotest.(check int) "worst max" Score.neg_inf (Score.worst_value Score.Maximize);
  Alcotest.(check int) "worst min" Score.pos_inf (Score.worst_value Score.Minimize)

let test_bits () =
  Alcotest.(check int) "clog2 1" 0 (Bits.clog2 1);
  Alcotest.(check int) "clog2 2" 1 (Bits.clog2 2);
  Alcotest.(check int) "clog2 5" 3 (Bits.clog2 5);
  Alcotest.(check int) "clog2 256" 8 (Bits.clog2 256);
  Alcotest.(check int) "bits_unsigned 0" 1 (Bits.bits_unsigned 0);
  Alcotest.(check int) "bits_unsigned 255" 8 (Bits.bits_unsigned 255);
  Alcotest.(check int) "signed [-2,1]" 2 (Bits.bits_signed_range (-2) 1);
  Alcotest.(check int) "signed [-3,1]" 3 (Bits.bits_signed_range (-3) 1)

let test_bits_clog2_invalid () =
  Alcotest.check_raises "clog2 0" (Invalid_argument "Bits.clog2") (fun () ->
      ignore (Bits.clog2 0))

let test_stats () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_of xs);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max_of xs);
  Alcotest.(check (float 1e-6)) "geomean of 2,8" 4.0 (Stats.geomean [| 2.0; 8.0 |]);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile xs 100.0)

(* Nearest-rank percentile edge cases: the serve SLO gate depends on
   these being exact (a reported percentile is always an observed
   sample; p99 of a small group is its max, not an interpolation). *)
let test_percentile_exact_edges () =
  let one = [| 7.5 |] in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "1 sample, p%.0f" p)
        7.5
        (Stats.percentile_exact one p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  let two = [| 1.0; 9.0 |] in
  Alcotest.(check (float 0.0)) "2 samples, p50 = lower" 1.0
    (Stats.percentile_exact two 50.0);
  Alcotest.(check (float 0.0)) "2 samples, p99 = max" 9.0
    (Stats.percentile_exact two 99.0);
  (* linear interpolation would report p99 below the worst sample on
     small n — the verdict-flipping behavior percentile_exact removes *)
  Alcotest.(check bool) "interpolated p99 underestimates on n=2" true
    (Stats.percentile two 99.0 < 9.0);
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "100 samples, p99 = 99th value" 99.0
    (Stats.percentile_exact hundred 99.0);
  Alcotest.(check (float 0.0)) "100 samples, p100 = max" 100.0
    (Stats.percentile_exact hundred 100.0);
  let twenty_five = Array.init 25 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "25 samples, p56 = 14th value" 14.0
    (Stats.percentile_exact twenty_five 56.0);
  Alcotest.(check bool) "empty still rejected" true
    (try
       ignore (Stats.percentile_exact [||] 50.0);
       false
     with Invalid_argument _ -> true)

(* Loop oracle: percentile_exact xs p must equal the smallest observed
   value v with #(samples <= v) >= ceil(p/100 * n), found by brute
   force over the samples themselves. The rank is computed in integers:
   in floats, p = 56 on n = 25 gives ceil 14.000000000000002 = 15. *)
let test_percentile_exact_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"percentile_exact = loop oracle"
       QCheck.(
         pair
           (list_of_size Gen.(int_range 1 40) (int_range (-50) 50))
           (int_range 0 100))
       (fun (ints, p) ->
         QCheck.assume (ints <> []);
         let xs = Array.of_list (List.map float_of_int ints) in
         let n = Array.length xs in
         let need = max 1 (((p * n) + 99) / 100) in
         let p = float_of_int p in
         let le v = Array.fold_left (fun a x -> if x <= v then a + 1 else a) 0 xs in
         let oracle =
           Array.fold_left
             (fun acc x ->
               if le x >= need then match acc with
                 | Some b when b <= x -> acc
                 | _ -> Some x
               else acc)
             None xs
         in
         match oracle with
         | None -> false
         | Some v -> Stats.percentile_exact xs p = v))

let test_pretty () =
  Alcotest.(check string) "sci" "3.51e6" (Pretty.sci 3.51e6);
  Alcotest.(check string) "percent" "1.72%" (Pretty.percent 0.0172);
  Alcotest.(check string) "ratio" "2.43x" (Pretty.ratio 2.43);
  let t = Pretty.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "table has rule" true (String.length t > 0);
  (* All lines of a table are equally wide. *)
  let lines = String.split_on_char '\n' t in
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

(* ---- Json: the printer every emitter shares ---- *)

let test_json_escaping () =
  Alcotest.(check string) "escapes" "\"a\\\"b\\\\c\\nd\\te\\u0001\""
    (Json.to_string (Json.Str "a\"b\\c\nd\te\x01"))

let test_json_numbers () =
  List.iter
    (fun (what, f, want) ->
      Alcotest.(check string) what want (Json.to_string (Json.Num f)))
    [
      ("nan", Float.nan, "null");
      ("infinity", Float.infinity, "null");
      ("neg_infinity", Float.neg_infinity, "null");
      ("integral", 5., "5");
      ("fraction", 1.5, "1.5");
    ]

(* Byte-string keys and values; finite numbers from every bit pattern,
   integers next to +-2^53 (where integer printing stops) and
   subnormals. *)
let json_arbitrary =
  let open QCheck.Gen in
  let bytes = string_size (0 -- 12) in
  let finite f = if Float.is_finite f then f else 0.0 in
  let num =
    frequency
      [
        (2, map float_of_int (int_range (-1000) 1000));
        (2, map (fun b -> finite (Int64.float_of_bits b)) ui64);
        ( 2,
          map2
            (fun sign d -> sign *. (0x1p53 +. float_of_int d))
            (oneofl [ 1.0; -1.0 ]) (int_range (-4) 4) );
        (1, map2 Float.ldexp (float_range 0.5 1.0) (int_range (-1074) (-1000)));
      ]
  in
  let leaf =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (4, map (fun f -> Json.Num f) num);
        (4, map (fun s -> Json.Str s) bytes);
      ]
  in
  let value =
    sized_size (0 -- 16)
      (fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 2))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (0 -- 4) (pair bytes (self (n / 2)))) );
               ]))
  in
  QCheck.make ~print:Json.to_string value

let test_json_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"json: parse (to_string v) = Ok v"
       json_arbitrary (fun v -> Json.parse (Json.to_string v) = Ok v))

(* Every string field of every JSON emitter, fed quotes, a backslash,
   control characters and UTF-8, must come back intact through the
   strict parser. *)
let hostile = "q\"b\\s\nn\tt\x01u\xc3\xa9"

let test_emitters_strict_json () =
  let module Report = Dphls_analysis.Report in
  let module Tracer = Dphls_obs.Tracer in
  let module Chrome = Dphls_obs.Chrome in
  let module Summary = Dphls_obs.Summary in
  let module Proto = Dphls_serve.Proto in
  let module Server = Dphls_serve.Server in
  let module Throughput = Dphls_host.Throughput in
  let parse what text =
    match Json.parse text with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s in %S" what e text
  in
  let get what v path =
    List.fold_left
      (fun v step ->
        match (step, v) with
        | `F k, _ -> (
          match Json.member k v with
          | Some x -> x
          | None -> Alcotest.failf "%s: no field %S" what k)
        | `N i, Json.Arr items -> List.nth items i
        | `N _, _ -> Alcotest.failf "%s: not an array" what)
      v path
  in
  let check what text path =
    match get what (parse what text) path with
    | Json.Str s -> Alcotest.(check string) what hostile s
    | _ -> Alcotest.failf "%s: not a string" what
  in
  let report =
    Report.create ~kernel_id:1 ~kernel_name:hostile ~max_len:8
      [ Report.error ~check:"c" hostile ]
  in
  check "report kernel name" (Report.to_json report) [ `F "kernel"; `F "name" ];
  check "report finding message" (Report.to_json report)
    [ `F "findings"; `N 0; `F "message" ];
  check "report list" (Report.list_to_json [ report ])
    [ `F "reports"; `N 0; `F "findings"; `N 0; `F "message" ];
  let tr = Tracer.create () in
  Tracer.add_span tr ~cat:hostile ~t0:0.0 ~t1:1e-3 hostile;
  let chrome = Chrome.to_json ~process_name:hostile tr in
  check "chrome span name" chrome [ `F "traceEvents"; `N 0; `F "name" ];
  check "chrome span cat" chrome [ `F "traceEvents"; `N 0; `F "cat" ];
  check "chrome process name" chrome [ `F "otherData"; `F "process_name" ];
  let summary = Summary.to_json (Summary.build ~tracer:tr ()) in
  check "summary span name" summary [ `F "spans"; `N 0; `F "name" ];
  check "summary span cat" summary [ `F "spans"; `N 0; `F "cat" ];
  let ok =
    Proto.response_line
      (Proto.Ok_response
         {
           rid = hostile;
           score = 1;
           cigar = hostile;
           cycles = Some 3;
           engine = hostile;
           cached = false;
           latency_ms = 0.25;
         })
  in
  List.iter (fun k -> check ("proto ok " ^ k) ok [ `F k ]) [ "id"; "cigar"; "engine" ];
  let err =
    Proto.response_line
      (Proto.Error_response
         { rid = Some hostile; code = Proto.Internal; message = hostile })
  in
  List.iter (fun k -> check ("proto error " ^ k) err [ `F k ]) [ "id"; "message" ];
  (* no string fields; a non-finite latency must still print as JSON *)
  let server =
    parse "server summary"
      (Server.summary_to_json
         {
           Server.admitted = 1;
           rejected = 0;
           expired = 0;
           cache_hits = 0;
           completed = 1;
           batches = 1;
           p50_ms = 0.5;
           p99_ms = Float.infinity;
           max_ms = Float.nan;
           slo_p99_ms = Some 25.0;
           slo_ok = false;
         })
  in
  Alcotest.(check bool) "infinite p99 prints null" true
    (Json.member "p99_ms" server = Some Json.Null);
  (* bench rows: a hostile workload label, a [None] column and a
     non-finite value must still print as strict JSON *)
  let rows =
    Throughput.rows_json
      [
        {
          Throughput.rung = "pe.generated";
          kernel = hostile;
          len = Some 64;
          n_pe = None;
          workers = Some 2;
          metric = "generated_ns";
          unit = "ns";
          value = 1.5;
        };
        {
          Throughput.rung = "engine.bitpar";
          kernel = hostile;
          len = None;
          n_pe = None;
          workers = None;
          metric = "speedup";
          unit = "x";
          value = Float.infinity;
        };
      ]
  in
  check "rows_json kernel" rows [ `N 0; `F "kernel" ];
  check "rows_json kernel (second row)" rows [ `N 1; `F "kernel" ];
  Alcotest.(check bool) "None column prints null" true
    (get "rows_json" (parse "rows_json" rows) [ `N 0; `F "n_pe" ] = Json.Null);
  Alcotest.(check bool) "infinite value prints null" true
    (get "rows_json" (parse "rows_json" rows) [ `N 1; `F "value" ] = Json.Null)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "rng weighted" `Quick test_rng_weighted;
    Alcotest.test_case "rng gaussian" `Quick test_rng_gaussian;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "score saturation" `Quick test_score_saturation;
    Alcotest.test_case "score objective" `Quick test_score_objective;
    Alcotest.test_case "bits widths" `Quick test_bits;
    Alcotest.test_case "bits clog2 invalid" `Quick test_bits_clog2_invalid;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "percentile_exact edges" `Quick
      test_percentile_exact_edges;
    test_percentile_exact_oracle;
    Alcotest.test_case "pretty" `Quick test_pretty;
    Alcotest.test_case "json: string escaping" `Quick test_json_escaping;
    Alcotest.test_case "json: number printing" `Quick test_json_numbers;
    test_json_round_trip;
    Alcotest.test_case "json: every emitter writes strict JSON" `Quick
      test_emitters_strict_json;
  ]
