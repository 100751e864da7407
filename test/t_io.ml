(* Tests for the sequence-I/O substrate (FASTA/FASTQ/PAF) and the
   co-simulation API. *)
module Fasta = Dphls_io.Fasta
module Fastq = Dphls_io.Fastq
module Paf = Dphls_io.Paf

let qtest = QCheck_alcotest.to_alcotest

let test_fasta_parse () =
  let text = ">seq1 first record\nACGT\nACGT\n\n; a comment\n>seq2\nTTTT\n" in
  match Fasta.parse_string text with
  | [ a; b ] ->
    Alcotest.(check string) "id 1" "seq1" a.Fasta.id;
    Alcotest.(check string) "description" "first record" a.Fasta.description;
    Alcotest.(check string) "joined sequence" "ACGTACGT" a.Fasta.sequence;
    Alcotest.(check string) "id 2" "seq2" b.Fasta.id;
    Alcotest.(check string) "seq 2" "TTTT" b.Fasta.sequence
  | records -> Alcotest.failf "expected 2 records, got %d" (List.length records)

let test_fasta_roundtrip () =
  let records =
    [
      { Fasta.id = "a"; description = "desc"; sequence = String.make 130 'A' };
      { Fasta.id = "b"; description = ""; sequence = "ACGT" };
    ]
  in
  let parsed = Fasta.parse_string (Fasta.to_string records) in
  Alcotest.(check int) "count" 2 (List.length parsed);
  List.iter2
    (fun (orig : Fasta.record) (got : Fasta.record) ->
      Alcotest.(check string) "id" orig.id got.id;
      Alcotest.(check string) "sequence" orig.sequence got.sequence)
    records parsed

let test_fasta_file_roundtrip () =
  let path = Filename.temp_file "dphls" ".fa" in
  let records = [ { Fasta.id = "x"; description = ""; sequence = "ACGTACGTAC" } ] in
  Fasta.write_file path records;
  let back = Fasta.read_file path in
  Sys.remove path;
  Alcotest.(check int) "one record" 1 (List.length back);
  Alcotest.(check string) "sequence" "ACGTACGTAC" (List.hd back).Fasta.sequence

let test_fasta_errors () =
  Alcotest.(check bool) "sequence before header" true
    (try
       ignore (Fasta.parse_string "ACGT\n");
       false
     with Failure _ -> true)

let test_fasta_encoding () =
  let r = { Fasta.id = "x"; description = ""; sequence = "ACGT" } in
  Alcotest.(check bool) "dna encoding" true (Fasta.dna_of_record r = [| 0; 1; 2; 3 |])

let test_fastq_parse () =
  let text = "@r1 extra\nACGT\n+\nIIII\n@r2\nTT\n+r2\nAB\n" in
  match Fastq.parse_string text with
  | [ a; b ] ->
    Alcotest.(check string) "id" "r1" a.Fastq.id;
    Alcotest.(check string) "sequence" "ACGT" a.Fastq.sequence;
    Alcotest.(check (float 0.01)) "quality I = 40" 40.0 (Fastq.mean_quality a);
    Alcotest.(check string) "second" "r2" b.Fastq.id
  | records -> Alcotest.failf "expected 2 records, got %d" (List.length records)

let test_fastq_errors () =
  let bad = [ "ACGT\nACGT\n+\nIIII\n"; "@r\nACGT\n+\nIII\n"; "@r\nACGT\n+\n" ] in
  List.iter
    (fun text ->
      Alcotest.(check bool) "malformed rejected" true
        (try
           ignore (Fastq.parse_string text);
           false
         with Failure _ -> true))
    bad

let test_fastq_writer_roundtrip () =
  let records =
    [
      { Fastq.id = "r1"; sequence = "ACGT"; quality = "IIII" };
      { Fastq.id = "r2"; sequence = "TT"; quality = "!~" };
    ]
  in
  let parsed = Fastq.parse_string (Fastq.to_string records) in
  Alcotest.(check int) "count" 2 (List.length parsed);
  List.iter2
    (fun (a : Fastq.record) (b : Fastq.record) ->
      Alcotest.(check string) "id" a.Fastq.id b.Fastq.id;
      Alcotest.(check string) "sequence" a.Fastq.sequence b.Fastq.sequence;
      Alcotest.(check string) "quality" a.Fastq.quality b.Fastq.quality)
    records parsed;
  let path = Filename.temp_file "dphls" ".fq" in
  Fastq.write_file path records;
  let back = Fastq.read_file path in
  Sys.remove path;
  Alcotest.(check int) "file roundtrip count" 2 (List.length back)

let test_fastq_writer_rejects_skew () =
  Alcotest.(check bool) "quality length mismatch raises" true
    (try
       ignore
         (Fastq.to_string [ { Fastq.id = "r"; sequence = "ACGT"; quality = "II" } ]);
       false
     with Invalid_argument _ -> true)

(* Generators kept inside the parsers' round-trippable domain: ids
   without whitespace, DNA bases, Phred+33 printable quality chars. *)
let gen_id =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; 'r'; '0'; '7'; '_' ]) (int_range 1 12))

let gen_fastq_record =
  QCheck.Gen.(
    int_range 1 60 >>= fun n ->
    let base = oneofl [ 'A'; 'C'; 'G'; 'T' ] in
    let qual = map Char.chr (int_range 33 104) in
    triple gen_id (string_size ~gen:base (return n)) (string_size ~gen:qual (return n)))

let prop_fastq_roundtrip =
  QCheck.Test.make ~name:"fastq to_string/parse_string round-trip" ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 8) gen_fastq_record))
    (fun records ->
      let records =
        List.map
          (fun (id, sequence, quality) -> { Fastq.id; sequence; quality })
          records
      in
      let parsed = Fastq.parse_string (Fastq.to_string records) in
      List.length parsed = List.length records
      && List.for_all2
           (fun (a : Fastq.record) (b : Fastq.record) ->
             a.Fastq.id = b.Fastq.id
             && a.Fastq.sequence = b.Fastq.sequence
             && a.Fastq.quality = b.Fastq.quality)
           records parsed)

let test_fastq_malformed_rejected () =
  let bad =
    [
      (* truncated record: header+sequence only *)
      "@r1\nACGT\n";
      (* truncated record: missing the quality line *)
      "@r1\nACGT\n+\n";
      (* quality line shorter than the sequence *)
      "@r1\nACGT\n+\nII\n";
      (* quality line longer than the sequence *)
      "@r1\nAC\n+\nIIII\n";
      (* missing '@' header *)
      "r1\nACGT\n+\nIIII\n";
      (* missing '+' separator *)
      "@r1\nACGT\nIIII\nIIII\n";
    ]
  in
  List.iter
    (fun text ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" text)
        true
        (try
           ignore (Fastq.parse_string text);
           false
         with Failure _ -> true))
    bad

let gen_paf_record =
  QCheck.Gen.(
    let pos = int_range 0 10_000 in
    gen_id >>= fun query_name ->
    gen_id >>= fun target_name ->
    pos >>= fun query_length ->
    pos >>= fun query_start ->
    pos >>= fun query_end ->
    pos >>= fun target_length ->
    pos >>= fun target_start ->
    pos >>= fun target_end ->
    pos >>= fun matches ->
    pos >>= fun alignment_length ->
    int_range 0 255 >>= fun mapq ->
    oneofl [ Paf.Forward; Paf.Reverse ] >>= fun strand ->
    list_size (int_range 0 3) (pair (return "cg") gen_id) >>= fun tags ->
    return
      {
        Paf.query_name;
        query_length;
        query_start;
        query_end;
        strand;
        target_name;
        target_length;
        target_start;
        target_end;
        matches;
        alignment_length;
        mapq;
        tags;
      })

let prop_paf_roundtrip =
  QCheck.Test.make ~name:"paf to_line/parse_line round-trip" ~count:100
    (QCheck.make gen_paf_record)
    (fun r -> Paf.parse_line (Paf.to_line r) = r)

let test_paf_malformed_rejected () =
  let bad =
    [
      (* non-numeric query length *)
      "q\tx\t0\t4\t+\tt\t10\t0\t4\t4\t4\t60";
      (* non-numeric mapq *)
      "q\t4\t0\t4\t+\tt\t10\t0\t4\t4\t4\tmq";
      (* bad strand *)
      "q\t4\t0\t4\t?\tt\t10\t0\t4\t4\t4\t60";
      (* not enough fields *)
      "q\t4\t0\t4\t+\tt\t10";
      (* malformed tag *)
      "q\t4\t0\t4\t+\tt\t10\t0\t4\t4\t4\t60\tnotatag";
    ]
  in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" line)
        true
        (try
           ignore (Paf.parse_line line);
           false
         with Failure _ -> true))
    bad

let test_fastq_to_fasta () =
  let r = { Fastq.id = "r"; sequence = "ACGT"; quality = "IIII" } in
  Alcotest.(check string) "conversion" "ACGT" (Fastq.to_fasta r).Fasta.sequence

let sample_paf =
  {
    Paf.query_name = "read1";
    query_length = 100;
    query_start = 0;
    query_end = 100;
    strand = Paf.Forward;
    target_name = "chr1";
    target_length = 1000;
    target_start = 50;
    target_end = 151;
    matches = 95;
    alignment_length = 101;
    mapq = 60;
    tags = [ ("cg", "50M1I50M") ];
  }

let test_paf_roundtrip () =
  let line = Paf.to_line sample_paf in
  let parsed = Paf.parse_line line in
  Alcotest.(check string) "query" sample_paf.Paf.query_name parsed.Paf.query_name;
  Alcotest.(check int) "target start" 50 parsed.Paf.target_start;
  Alcotest.(check int) "matches" 95 parsed.Paf.matches;
  Alcotest.(check (list (pair string string))) "tags" sample_paf.Paf.tags
    parsed.Paf.tags

let test_paf_of_alignment () =
  let open Dphls_core in
  let e = Dphls_kernels.Catalog.find 7 in
  let (Registry.Packed (k, p)) = e.packed in
  let rng = Dphls_util.Rng.create 55 in
  let w = e.Dphls_kernels.Catalog.gen rng ~len:80 in
  let result = Dphls_reference.Ref_engine.run k p w in
  match Alignment_view.first_consumed result with
  | None -> Alcotest.fail "expected a path"
  | Some (row0, col0) ->
    let stats =
      Alignment_view.stats ~query:w.Workload.query ~reference:w.Workload.reference
        ~start_row:row0 ~start_col:col0 result.Result.path
    in
    let r =
      Paf.of_alignment ~query_name:"q" ~query_length:(Array.length w.Workload.query)
        ~target_name:"t" ~target_length:(Array.length w.Workload.reference) ~result
        ~stats ~mapq:60
    in
    (* semi-global: whole query consumed *)
    Alcotest.(check int) "query start" 0 r.Paf.query_start;
    Alcotest.(check int) "query end" (Array.length w.Workload.query) r.Paf.query_end;
    Alcotest.(check bool) "target span within bounds" true
      (r.Paf.target_start >= 0
      && r.Paf.target_end <= Array.length w.Workload.reference);
    Alcotest.(check bool) "cigar tag" true (List.mem_assoc "cg" r.Paf.tags)

let test_cosim_passes () =
  let open Dphls_core in
  let e = Dphls_kernels.Catalog.find 2 in
  let (Registry.Packed (k, p)) = e.packed in
  let rng = Dphls_util.Rng.create 99 in
  let workloads = List.init 8 (fun _ -> e.Dphls_kernels.Catalog.gen rng ~len:48) in
  (* an equivalent alternate datapath (here the kernel's own) must agree *)
  let report =
    Dphls_cosim.Cosim.verify ~n_pe:8 ~alt_pe:(k.Kernel.datapath p) k p workloads
  in
  Alcotest.(check bool) "passed" true (Dphls_cosim.Cosim.passed report);
  Alcotest.(check int) "all agreed" 8 report.Dphls_cosim.Cosim.agreed;
  Alcotest.(check bool) "cycle stats collected" true
    (report.Dphls_cosim.Cosim.mean_cycles > 0.0)

(* A datapath that disagrees with kernel #1 on every workload (each
   cell is its up neighbour plus one), to exercise bug detection and the
   mismatch cap. *)
let broken_pe =
  let open Dphls_core.Datapath in
  ( { layers = [| Add (Up 0, Const 1) |]; tb_fields = [ { bits = 2; value = Const 0 } ] },
    { params = []; tables = [] } )

let test_cosim_detects_bugs () =
  let open Dphls_core in
  let e = Dphls_kernels.Catalog.find 1 in
  let (Registry.Packed (k, p)) = e.packed in
  let rng = Dphls_util.Rng.create 100 in
  let workloads = List.init 4 (fun _ -> e.Dphls_kernels.Catalog.gen rng ~len:32) in
  (* an intentionally wrong alternate datapath must be caught *)
  let report = Dphls_cosim.Cosim.verify ~n_pe:8 ~alt_pe:broken_pe k p workloads in
  Alcotest.(check bool) "failure detected" false (Dphls_cosim.Cosim.passed report)

let cosim_broken ~max_mismatches ~trials =
  let open Dphls_core in
  let e = Dphls_kernels.Catalog.find 1 in
  let (Registry.Packed (k, p)) = e.packed in
  let rng = Dphls_util.Rng.create 123 in
  let workloads =
    List.init trials (fun _ -> e.Dphls_kernels.Catalog.gen rng ~len:24)
  in
  Dphls_cosim.Cosim.verify ~n_pe:4 ~max_mismatches ~alt_pe:broken_pe k p
    workloads

let test_cosim_mismatch_cap_hit () =
  (* more mismatching workloads than the cap: list capped, truncated set *)
  let r = cosim_broken ~max_mismatches:3 ~trials:6 in
  Alcotest.(check int) "all disagreed" 0 r.Dphls_cosim.Cosim.agreed;
  Alcotest.(check int) "mismatch list capped" 3
    (List.length r.Dphls_cosim.Cosim.mismatches);
  Alcotest.(check bool) "truncated flagged" true r.Dphls_cosim.Cosim.truncated

let test_cosim_mismatch_cap_not_hit () =
  (* cap above the mismatch count: full list, not truncated *)
  let r = cosim_broken ~max_mismatches:10 ~trials:6 in
  Alcotest.(check int) "all mismatches listed" 6
    (List.length r.Dphls_cosim.Cosim.mismatches);
  Alcotest.(check bool) "not truncated" false r.Dphls_cosim.Cosim.truncated;
  (* a passing run is never truncated either *)
  let open Dphls_core in
  let e = Dphls_kernels.Catalog.find 1 in
  let (Registry.Packed (k, p)) = e.packed in
  let rng = Dphls_util.Rng.create 124 in
  let ok =
    Dphls_cosim.Cosim.verify ~n_pe:4 ~max_mismatches:1 k p
      (List.init 4 (fun _ -> e.Dphls_kernels.Catalog.gen rng ~len:24))
  in
  Alcotest.(check bool) "clean run passes" true (Dphls_cosim.Cosim.passed ok);
  Alcotest.(check bool) "clean run not truncated" false
    ok.Dphls_cosim.Cosim.truncated

let test_cosim_vectors_capture () =
  (* ~vectors mode writes one checkable golden vector per workload *)
  let open Dphls_core in
  let e = Dphls_kernels.Catalog.find 1 in
  let (Registry.Packed (k, p)) = e.packed in
  let rng = Dphls_util.Rng.create 125 in
  let workloads =
    List.init 2 (fun _ -> e.Dphls_kernels.Catalog.gen rng ~len:16)
  in
  let dir = Filename.temp_file "dphls_vecdir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let r = Dphls_cosim.Cosim.verify ~n_pe:4 ~vectors:dir k p workloads in
  Alcotest.(check bool) "cosim passed" true (Dphls_cosim.Cosim.passed r);
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dpv")
  in
  Alcotest.(check int) "one vector per workload" 2 (List.length files);
  List.iter
    (fun f ->
      match Dphls_vectors.Harness.check_file (Filename.concat dir f) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" f msg)
    files;
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Sys.rmdir dir

let suite =
  [
    Alcotest.test_case "fasta parse" `Quick test_fasta_parse;
    Alcotest.test_case "fasta roundtrip" `Quick test_fasta_roundtrip;
    Alcotest.test_case "fasta file roundtrip" `Quick test_fasta_file_roundtrip;
    Alcotest.test_case "fasta errors" `Quick test_fasta_errors;
    Alcotest.test_case "fasta encoding" `Quick test_fasta_encoding;
    Alcotest.test_case "fastq parse" `Quick test_fastq_parse;
    Alcotest.test_case "fastq errors" `Quick test_fastq_errors;
    Alcotest.test_case "fastq writer roundtrip" `Quick test_fastq_writer_roundtrip;
    Alcotest.test_case "fastq writer rejects skew" `Quick test_fastq_writer_rejects_skew;
    qtest prop_fastq_roundtrip;
    Alcotest.test_case "fastq malformed rejected" `Quick test_fastq_malformed_rejected;
    Alcotest.test_case "fastq to fasta" `Quick test_fastq_to_fasta;
    Alcotest.test_case "paf roundtrip" `Quick test_paf_roundtrip;
    qtest prop_paf_roundtrip;
    Alcotest.test_case "paf malformed rejected" `Quick test_paf_malformed_rejected;
    Alcotest.test_case "paf of alignment" `Quick test_paf_of_alignment;
    Alcotest.test_case "cosim passes" `Quick test_cosim_passes;
    Alcotest.test_case "cosim detects bugs" `Quick test_cosim_detects_bugs;
    Alcotest.test_case "cosim mismatch cap hit" `Quick test_cosim_mismatch_cap_hit;
    Alcotest.test_case "cosim mismatch cap not hit" `Quick test_cosim_mismatch_cap_not_hit;
    Alcotest.test_case "cosim vectors capture" `Quick test_cosim_vectors_capture;
  ]
