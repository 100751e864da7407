(* Golden-vector harness tests: on-disk codec, capture equivalence
   between engines, stream replay, drift detection (the CI gate) and the
   `dphls vectors` CLI negative paths. *)
open Dphls_core
module Stream = Dphls_vectors.Stream
module Codec = Dphls_vectors.Codec
module Capture = Dphls_vectors.Capture
module Replay = Dphls_vectors.Replay
module Harness = Dphls_vectors.Harness

let spec ?band ?(n_pe = 4) ?(len = 24) ?(seed = 5) kernel_id =
  { Harness.kernel_id; n_pe; len; band; seed }

let generate_exn s =
  match Harness.generate s with
  | Ok (v, _) -> v
  | Error msg -> Alcotest.fail msg

let resolve_kernel kernel_id band =
  let e = Dphls_kernels.Catalog.find kernel_id in
  let (Registry.Packed (k, p)) = e.packed in
  match band with
  | None -> Registry.Packed (k, p)
  | Some b ->
    Registry.Packed ({ k with Kernel.banding = Stream.banding_of_spec b }, p)

let cell_count (v : Stream.t) =
  Array.fold_left
    (fun n -> function Stream.Cell _ -> n + 1 | Stream.Window _ -> n)
    0 v.Stream.records

let window_count v = Array.length v.Stream.records - cell_count v

(* ---- codec ---- *)

let test_codec_roundtrip () =
  List.iter
    (fun s ->
      let v = generate_exn s in
      let text = Codec.to_string v in
      match Codec.of_string text with
      | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
      | Ok v2 ->
        (match Stream.diff ~expected:v ~actual:v2 with
        | None -> ()
        | Some d ->
          Alcotest.failf "round-trip diverges: %s" (Stream.describe d));
        Alcotest.(check string)
          "re-serialization is byte-identical" text (Codec.to_string v2))
    [ spec 1; spec 10; spec ~band:(Stream.Fixed 6) 11; spec 16 ]

let test_codec_file_roundtrip () =
  let v = generate_exn (spec 2 ~n_pe:8) in
  let path = Filename.temp_file "dphls_vec" ".dpv" in
  Codec.write_file path v;
  let back = Codec.read_file path in
  Sys.remove path;
  match back with
  | Error msg -> Alcotest.fail msg
  | Ok v2 ->
    Alcotest.(check bool)
      "file round-trip equal" true
      (Stream.diff ~expected:v ~actual:v2 = None)

let lines_of v = String.split_on_char '\n' (Codec.to_string v)

let expect_parse_error ~substring text =
  match Codec.of_string text with
  | Ok _ -> Alcotest.failf "malformed input accepted (wanted %S)" substring
  | Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "error %S mentions %S" msg substring)
      true (contains msg substring)

let test_codec_rejects_version_skew () =
  let v = generate_exn (spec 1) in
  let text =
    match lines_of v with
    | _magic :: rest -> String.concat "\n" (("DPHLSVEC " ^ "99") :: rest)
    | [] -> assert false
  in
  expect_parse_error ~substring:"version" text

let test_codec_rejects_truncation () =
  let v = generate_exn (spec 1) in
  let ls = lines_of v in
  let keep = List.filteri (fun i _ -> i < 40) ls in
  expect_parse_error ~substring:"truncated" (String.concat "\n" keep ^ "\n")

let test_codec_rejects_corruption () =
  (* Flip one recorded score without fixing the checksum. *)
  let v = generate_exn (spec 1) in
  let flipped = ref false in
  let ls =
    List.map
      (fun l ->
        if (not !flipped) && String.length l > 2 && l.[0] = 'C' then begin
          flipped := true;
          l ^ "9"
        end
        else l)
      (lines_of v)
  in
  Alcotest.(check bool) "a record was altered" true !flipped;
  expect_parse_error ~substring:"checksum" (String.concat "\n" ls)

let test_codec_rejects_malformed_record () =
  let v = generate_exn (spec 1) in
  let broken = ref false in
  let ls =
    List.map
      (fun l ->
        if (not !broken) && String.length l > 2 && l.[0] = 'C' then begin
          broken := true;
          "C 0 3"
        end
        else l)
      (lines_of v)
  in
  expect_parse_error ~substring:"malformed cell record" (String.concat "\n" ls)

let test_codec_rejects_layer_count_skew () =
  (* Drop the score from one cell record: the diagnostic names the
     record's chunk and wavefront. *)
  let v = generate_exn (spec 1) in
  let target = ref "" in
  let ls =
    List.map
      (fun l ->
        if !target = "" && String.length l > 2 && l.[0] = 'C' then begin
          match String.rindex_opt l ' ' with
          | Some i ->
            target := l;
            String.sub l 0 i
          | None -> l
        end
        else l)
      (lines_of v)
  in
  expect_parse_error ~substring:"wavefront" (String.concat "\n" ls);
  expect_parse_error ~substring:"layer scores" (String.concat "\n" ls)

(* ---- capture: systolic vs golden reference ---- *)

let test_capture_matches_reference () =
  List.iter
    (fun s ->
      let (Registry.Packed (k, p)) = resolve_kernel s.Harness.kernel_id s.Harness.band in
      let e = Dphls_kernels.Catalog.find s.Harness.kernel_id in
      let w =
        e.Dphls_kernels.Catalog.gen
          (Dphls_util.Rng.create s.Harness.seed)
          ~len:s.Harness.len
      in
      let sys, _ = Capture.systolic k p ~n_pe:s.Harness.n_pe w in
      let gold, _ = Capture.reference k p ~n_pe:s.Harness.n_pe w in
      match Stream.diff ~expected:gold ~actual:sys with
      | None -> ()
      | Some d ->
        Alcotest.failf "kernel %d: engines diverge: %s" s.Harness.kernel_id
          (Stream.describe d))
    [
      spec 1;
      spec 2 ~n_pe:8;
      spec 9;
      spec 10;
      spec ~band:(Stream.Fixed 6) 11;
      spec 16 ~len:32;
    ]

let test_adaptive_capture_has_windows () =
  let v = generate_exn (spec 16 ~len:32) in
  Alcotest.(check bool) "adaptive capture records windows" true
    (window_count v > 0);
  Array.iter
    (function
      | Stream.Window { v_lo; v_hi; _ } ->
        Alcotest.(check bool) "window well-formed" true (v_lo <= v_hi)
      | Stream.Cell _ -> ())
    v.Stream.records;
  let unbanded = generate_exn (spec 1) in
  Alcotest.(check int) "unbanded capture has no windows" 0
    (window_count unbanded)

(* ---- replay ---- *)

let test_replay_both_datapaths () =
  List.iter
    (fun s ->
      let v = generate_exn s in
      let (Registry.Packed (k, p)) = resolve_kernel s.Harness.kernel_id s.Harness.band in
      List.iter
        (fun evaluator ->
          match Replay.run ~evaluator k p v with
          | Ok n -> Alcotest.(check int) "all cells replayed" (cell_count v) n
          | Error d -> Alcotest.failf "replay diverged: %s" (Stream.describe d))
        [ `Compiled; `Eval ])
    [ spec 1; spec 2 ~n_pe:8; spec 9; spec 16 ~len:32 ]

let perturb_cell (v : Stream.t) ~index ~f =
  let n = ref (-1) in
  let records =
    Array.map
      (function
        | Stream.Cell c ->
          incr n;
          if !n = index then Stream.Cell (f c) else Stream.Cell c
        | r -> r)
      v.Stream.records
  in
  { v with Stream.records }

let test_replay_catches_perturbed_score () =
  let v = generate_exn (spec 1) in
  let target = cell_count v / 2 in
  let perturbed_site = ref None in
  let v' =
    perturb_cell v ~index:target ~f:(fun c ->
        perturbed_site := Some (Stream.site_of_cell c);
        { c with Stream.c_scores = Array.map (fun s -> s + 1) c.Stream.c_scores })
  in
  let (Registry.Packed (k, p)) = resolve_kernel 1 None in
  match Replay.run k p v' with
  | Ok _ -> Alcotest.fail "perturbed vector replayed clean"
  | Error (Stream.Score_diff { site; _ }) ->
    (* neighbours come from the recorded streams, so the first divergence
       is exactly the perturbed cell, not a downstream casualty *)
    Alcotest.(check bool) "divergence at the perturbed cell" true
      (Some site = !perturbed_site)
  | Error d -> Alcotest.failf "unexpected divergence kind: %s" (Stream.describe d)

let test_replay_catches_perturbed_pointer () =
  let v = generate_exn (spec 2 ~n_pe:8) in
  let v' =
    perturb_cell v ~index:(cell_count v / 3) ~f:(fun c ->
        { c with Stream.c_tb = c.Stream.c_tb lxor 1 })
  in
  let (Registry.Packed (k, p)) = resolve_kernel 2 None in
  match Replay.run k p v' with
  | Error (Stream.Pointer_diff _) -> ()
  | Ok _ -> Alcotest.fail "perturbed pointer replayed clean"
  | Error d -> Alcotest.failf "unexpected divergence kind: %s" (Stream.describe d)

(* ---- diff ---- *)

let test_diff_names_window_divergence () =
  let v = generate_exn (spec 16 ~len:32) in
  let done_ = ref false in
  let records =
    Array.map
      (function
        | Stream.Window { v_chunk; v_wavefront; v_lo; v_hi } when not !done_ ->
          done_ := true;
          Stream.Window { v_chunk; v_wavefront; v_lo = v_lo - 1; v_hi }
        | r -> r)
      v.Stream.records
  in
  let v' = { v with Stream.records } in
  match Stream.diff ~expected:v ~actual:v' with
  | Some (Stream.Window_diff { at_wavefront; _ } as d) ->
    Alcotest.(check bool) "wavefront named" true (at_wavefront >= 0);
    let msg = Stream.describe d in
    Alcotest.(check bool) "description names the wavefront" true
      (String.length msg > 0)
  | Some d -> Alcotest.failf "unexpected divergence: %s" (Stream.describe d)
  | None -> Alcotest.fail "window perturbation not detected"

let test_diff_names_missing_cell () =
  let v = generate_exn (spec 1) in
  let dropped = ref None in
  let keep = ref true in
  let records =
    Array.of_list
      (List.filteri
         (fun i r ->
           match r with
           | Stream.Cell c when !keep && i = Array.length v.Stream.records / 2
             ->
             keep := false;
             dropped := Some (Stream.site_of_cell c);
             false
           | _ -> true)
         (Array.to_list v.Stream.records))
  in
  let v' = { v with Stream.records } in
  match Stream.diff ~expected:v ~actual:v' with
  | Some (Stream.Missing_cell site) ->
    Alcotest.(check bool) "missing cell site named" true (Some site = !dropped)
  | Some d -> Alcotest.failf "unexpected divergence: %s" (Stream.describe d)
  | None -> Alcotest.fail "dropped cell not detected"

let test_describe_names_schedule_slot () =
  let d =
    Stream.Score_diff
      {
        site =
          { Stream.at_chunk = 2; at_wavefront = 7; at_pe = 3; at_row = 11; at_col = 4 };
        layer = 0;
        expected = 5;
        actual = 6;
      }
  in
  let msg = Stream.describe d in
  List.iter
    (fun needle ->
      let nh = String.length msg and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub msg i nn = needle || go (i + 1)) in
      Alcotest.(check bool)
        (Printf.sprintf "describe mentions %S" needle)
        true (go 0))
    [ "chunk 2"; "wavefront 7"; "PE 3"; "(11,4)" ]

(* ---- harness ---- *)

let test_harness_check_ok () =
  let v = generate_exn (spec 3) in
  match Harness.check v with
  | Ok o ->
    Alcotest.(check int) "cells counted" (cell_count v) o.Harness.o_cells;
    Alcotest.(check int) "all replayed" (cell_count v) o.Harness.o_replayed
  | Error msg -> Alcotest.fail msg

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_harness_catches_forged_n_pe () =
  let v = generate_exn (spec 1) in
  let forged =
    { v with Stream.header = { v.Stream.header with Stream.n_pe = 8 } }
  in
  match Harness.check forged with
  | Ok _ -> Alcotest.fail "forged n_pe accepted"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names the params hash" msg)
      true (contains msg "params")

(* The params hash covers the datapath bindings: a scoring-parameter
   change moves the digest, and a vector recorded under other bindings
   is rejected at its header before any stream is compared. *)
let test_params_hash_covers_bindings () =
  let module K01 = Dphls_kernels.K01_global_linear in
  let module K08 = Dphls_kernels.K08_profile in
  let module K15 = Dphls_kernels.K15_protein_local in
  let k01 gap = Fingerprint.params_hash K01.kernel { K01.default with gap } ~n_pe:4 in
  Alcotest.(check bool) "#1 gap -2 and gap -3 hash differently" true
    (k01 (-2) <> k01 (-3));
  Alcotest.(check string) "same bindings, same hash" (k01 (-2)) (k01 (-2));
  (* match appears in the bindings only, not in the border values *)
  Alcotest.(check bool) "#1 match 2 and match 3 hash differently" true
    (Fingerprint.params_hash K01.kernel K01.default ~n_pe:4
    <> Fingerprint.params_hash K01.kernel { K01.default with match_ = 3 } ~n_pe:4);
  let k08 p = Fingerprint.params_hash K08.kernel p ~n_pe:4 in
  Alcotest.(check bool) "#8 match baked into the cell is covered" true
    (k08 K08.default <> k08 { K08.default with match_ = 3 });
  let matrix = Array.map Array.copy K15.default.matrix in
  matrix.(3).(5) <- matrix.(3).(5) + 1;
  Alcotest.(check bool) "#15 one table entry is covered" true
    (Fingerprint.params_hash K15.kernel K15.default ~n_pe:4
    <> Fingerprint.params_hash K15.kernel { K15.default with matrix } ~n_pe:4);
  let w =
    Workload.of_bases ~query:(Dphls_alphabet.Dna.of_string "ACGTTACG")
      ~reference:(Dphls_alphabet.Dna.of_string "ACGTACG")
  in
  let v, _ = Capture.systolic K01.kernel { K01.default with gap = -3 } ~n_pe:4 w in
  match Harness.check v with
  | Ok _ -> Alcotest.fail "vector from other bindings accepted"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names the params header field" msg)
      true
      (contains msg "header field \"params\"")

let test_harness_catches_perturbed_window () =
  (* The acceptance-criterion scenario: an off-by-one band window in a
     committed vector is caught with its wavefront named. *)
  let v = generate_exn (spec 16 ~len:32) in
  let done_ = ref false in
  let records =
    Array.map
      (function
        | Stream.Window { v_chunk; v_wavefront; v_lo; v_hi } when not !done_ ->
          done_ := true;
          Stream.Window { v_chunk; v_wavefront; v_lo; v_hi = v_hi + 1 }
        | r -> r)
      v.Stream.records
  in
  let v' = { v with Stream.records } in
  (* round-trip through the codec so the file itself is well-formed *)
  let path = Filename.temp_file "dphls_vec" ".dpv" in
  let oc = open_out path in
  output_string oc (Codec.to_string v');
  close_out oc;
  let r = Harness.check_file path in
  Sys.remove path;
  match r with
  | Ok _ -> Alcotest.fail "perturbed band window accepted"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names the wavefront" msg)
      true
      (contains msg "wavefront" && contains msg "band-window")

let test_harness_catches_perturbed_cell_score () =
  let v = generate_exn (spec 1) in
  let v' =
    perturb_cell v ~index:(cell_count v / 2) ~f:(fun c ->
        { c with Stream.c_scores = Array.map (fun s -> s - 3) c.Stream.c_scores })
  in
  match Harness.check v' with
  | Ok _ -> Alcotest.fail "perturbed score accepted"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names chunk/wavefront/PE" msg)
      true
      (contains msg "chunk" && contains msg "wavefront" && contains msg "PE")

let test_committed_corpus_checks () =
  let dir = "data/vectors" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dpv")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus is non-empty" true (List.length files >= 7);
  List.iter
    (fun f ->
      match Harness.check_file (Filename.concat dir f) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" f msg)
    files

let test_corpus_regeneration_is_deterministic () =
  List.iter
    (fun s ->
      let a = generate_exn s and b = generate_exn s in
      Alcotest.(check string)
        (Harness.filename s ^ " regenerates byte-identically")
        (Codec.to_string a) (Codec.to_string b))
    Harness.corpus

(* ---- CLI negative paths ---- *)

let dphls_exe = "../bin/dphls.exe"

let run_cli args =
  let out = Filename.temp_file "dphls_cli" ".txt" in
  let code =
    Sys.command (Filename.quote_command dphls_exe ~stdout:out ~stderr:out args)
  in
  let ic = open_in out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let write_text path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let test_cli_check_good_corpus () =
  let code, out = run_cli [ "vectors"; "check"; "data/vectors/k01_global_linear_npe4_len32.dpv" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "reports ok" true (contains out "ok")

let test_cli_check_corrupted () =
  let src = "data/vectors/k01_global_linear_npe4_len32.dpv" in
  let ic = open_in src in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let bad = Filename.temp_file "dphls_bad" ".dpv" in
  (* corrupt one byte inside the body *)
  let b = Bytes.of_string text in
  let i = String.index_from text (String.length text / 2) 'C' in
  Bytes.set b (i + 2) '9';
  write_text bad (Bytes.to_string b);
  let code, out = run_cli [ "vectors"; "check"; bad ] in
  Sys.remove bad;
  Alcotest.(check int) "exit 2 on corruption" 2 code;
  Alcotest.(check bool) "diagnostic mentions checksum or record" true
    (contains out "checksum" || contains out "record")

let test_cli_check_truncated () =
  let src = "data/vectors/k09_dtw_npe4_len24.dpv" in
  let ic = open_in src in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let cut =
    String.concat "\n"
      (List.filteri (fun i _ -> i < 30) (String.split_on_char '\n' text))
    ^ "\n"
  in
  let bad = Filename.temp_file "dphls_trunc" ".dpv" in
  write_text bad cut;
  let code, out = run_cli [ "vectors"; "check"; bad ] in
  Sys.remove bad;
  Alcotest.(check int) "exit 2 on truncation" 2 code;
  Alcotest.(check bool) "diagnostic mentions truncation" true
    (contains out "truncated")

let test_cli_check_version_skew () =
  let src = "data/vectors/k01_global_linear_npe4_len32.dpv" in
  let ic = open_in src in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let skewed =
    match String.split_on_char '\n' text with
    | _ :: rest -> String.concat "\n" ("DPHLSVEC 42" :: rest)
    | [] -> assert false
  in
  let bad = Filename.temp_file "dphls_skew" ".dpv" in
  write_text bad skewed;
  let code, out = run_cli [ "vectors"; "check"; bad ] in
  Sys.remove bad;
  Alcotest.(check int) "exit 2 on version skew" 2 code;
  Alcotest.(check bool) "diagnostic names the version field" true
    (contains out "version");
  Alcotest.(check bool) "diagnostic says 42" true (contains out "42")

let test_cli_check_drift () =
  (* A well-formed vector whose streams diverge from this build: exit 1
     with the first divergence named. *)
  let v = generate_exn (spec 1 ~len:16 ~seed:77) in
  let v' =
    perturb_cell v ~index:(cell_count v / 2) ~f:(fun c ->
        { c with Stream.c_scores = Array.map (fun s -> s + 2) c.Stream.c_scores })
  in
  let bad = Filename.temp_file "dphls_drift" ".dpv" in
  write_text bad (Codec.to_string v');
  let code, out = run_cli [ "vectors"; "check"; bad ] in
  Sys.remove bad;
  Alcotest.(check int) "exit 1 on drift" 1 code;
  Alcotest.(check bool) "diagnostic names wavefront and PE" true
    (contains out "wavefront" && contains out "PE")

let test_cli_diff () =
  let a = generate_exn (spec 1 ~len:16 ~seed:1) in
  let b = generate_exn (spec 1 ~len:16 ~seed:2) in
  let fa = Filename.temp_file "dphls_a" ".dpv" in
  let fb = Filename.temp_file "dphls_b" ".dpv" in
  write_text fa (Codec.to_string a);
  write_text fb (Codec.to_string b);
  let same_code, same_out = run_cli [ "vectors"; "diff"; fa; fa ] in
  let diff_code, diff_out = run_cli [ "vectors"; "diff"; fa; fb ] in
  Sys.remove fa;
  Sys.remove fb;
  Alcotest.(check int) "identical vectors agree" 0 same_code;
  Alcotest.(check bool) "agreement reported" true (contains same_out "agree");
  Alcotest.(check int) "different vectors exit 1" 1 diff_code;
  Alcotest.(check bool) "divergence described" true
    (contains diff_out "divergence")

let suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec file roundtrip" `Quick test_codec_file_roundtrip;
    Alcotest.test_case "codec rejects version skew" `Quick
      test_codec_rejects_version_skew;
    Alcotest.test_case "codec rejects truncation" `Quick
      test_codec_rejects_truncation;
    Alcotest.test_case "codec rejects corruption" `Quick
      test_codec_rejects_corruption;
    Alcotest.test_case "codec rejects malformed record" `Quick
      test_codec_rejects_malformed_record;
    Alcotest.test_case "codec names wavefront on layer skew" `Quick
      test_codec_rejects_layer_count_skew;
    Alcotest.test_case "capture matches reference" `Slow
      test_capture_matches_reference;
    Alcotest.test_case "adaptive capture has windows" `Quick
      test_adaptive_capture_has_windows;
    Alcotest.test_case "replay both datapaths" `Quick test_replay_both_datapaths;
    Alcotest.test_case "replay catches perturbed score" `Quick
      test_replay_catches_perturbed_score;
    Alcotest.test_case "replay catches perturbed pointer" `Quick
      test_replay_catches_perturbed_pointer;
    Alcotest.test_case "diff names window divergence" `Quick
      test_diff_names_window_divergence;
    Alcotest.test_case "diff names missing cell" `Quick
      test_diff_names_missing_cell;
    Alcotest.test_case "describe names schedule slot" `Quick
      test_describe_names_schedule_slot;
    Alcotest.test_case "harness check ok" `Quick test_harness_check_ok;
    Alcotest.test_case "harness catches forged n_pe" `Quick
      test_harness_catches_forged_n_pe;
    Alcotest.test_case "harness catches perturbed window" `Quick
      test_harness_catches_perturbed_window;
    Alcotest.test_case "harness catches perturbed score" `Quick
      test_harness_catches_perturbed_cell_score;
    Alcotest.test_case "committed corpus checks" `Slow
      test_committed_corpus_checks;
    Alcotest.test_case "corpus regeneration deterministic" `Slow
      test_corpus_regeneration_is_deterministic;
    Alcotest.test_case "cli: good corpus passes" `Quick
      test_cli_check_good_corpus;
    Alcotest.test_case "cli: corrupted file exits 2" `Quick
      test_cli_check_corrupted;
    Alcotest.test_case "cli: truncated file exits 2" `Quick
      test_cli_check_truncated;
    Alcotest.test_case "cli: version skew exits 2" `Quick
      test_cli_check_version_skew;
    Alcotest.test_case "cli: drift exits 1 naming site" `Quick
      test_cli_check_drift;
    Alcotest.test_case "cli: diff" `Quick test_cli_diff;
    Alcotest.test_case "params hash covers the bindings" `Quick
      test_params_hash_covers_bindings;
  ]
