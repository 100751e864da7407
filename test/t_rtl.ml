(* Tests for the RTL emitter: structural sanity of the generated
   Verilog for all 15 kernels, and consistency of its parameters with
   the systolic schedule and the symbolic datapaths. *)
open Dphls_core
module Emit = Dphls_rtl.Emit
module Pe_gen = Dphls_rtl.Pe_gen

let design_for ?(n_pe = 16) id =
  let e = Dphls_kernels.Catalog.find id in
  let cell, bindings = Registry.datapath e.packed in
  let (Registry.Packed (k, _)) = e.packed in
  Emit.emit ~kernel_name:(Registry.name e.packed) ~cell ~bindings
    ~n_layers:k.Kernel.n_layers ~score_bits:k.Kernel.score_bits
    ~tb_bits:k.Kernel.tb_bits ~char_bits:8 ~n_pe ~n_b:4 ~n_k:2 ~max_qry:256
    ~max_ref:256

let count_substring text sub =
  let n = String.length sub in
  let rec go from acc =
    if from + n > String.length text then acc
    else if String.sub text from n = sub then go (from + n) (acc + 1)
    else go (from + 1) acc
  in
  go 0 0

let test_all_kernels_emit () =
  List.iter
    (fun id ->
      let d = design_for id in
      let text = Emit.to_text d in
      Alcotest.(check int)
        (Printf.sprintf "#%d three modules" id)
        3
        (count_substring text "endmodule");
      List.iter
        (fun suffix ->
          Alcotest.(check bool)
            (Printf.sprintf "#%d has %s module" id suffix)
            true
            (count_substring text (suffix ^ " (") > 0))
        [ "_pe"; "_block"; "_top" ])
    Dphls_kernels.Catalog.ids

let test_tb_depth_matches_schedule () =
  List.iter
    (fun (n_pe, q, r) ->
      let e = Dphls_kernels.Catalog.find 2 in
      let cell, bindings = Registry.datapath e.packed in
      let (Registry.Packed (k, _)) = e.packed in
      let d =
        Emit.emit ~kernel_name:"k2" ~cell ~bindings ~n_layers:k.Kernel.n_layers
          ~score_bits:16 ~tb_bits:4 ~char_bits:2 ~n_pe ~n_b:1 ~n_k:1 ~max_qry:q
          ~max_ref:r
      in
      let s = Dphls_systolic.Schedule.create ~n_pe ~qry_len:q ~ref_len:r in
      Alcotest.(check int)
        (Printf.sprintf "depth @ n_pe=%d %dx%d" n_pe q r)
        (Dphls_systolic.Schedule.tb_depth s)
        d.Emit.tb_depth)
    [ (8, 64, 64); (16, 100, 80); (32, 256, 256) ]

let test_pe_ports_present () =
  let d = design_for 2 in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (count_substring d.Emit.pe needle > 0))
    [ "up_0"; "up_2"; "diag_0"; "left_2"; "qry_0"; "ref_0"; "score_0"; "score_2";
      "assign tb = {" ]

let test_no_tb_port_when_score_only () =
  let d = design_for 14 in
  Alcotest.(check int) "no tb assignment in PE" 0
    (count_substring d.Emit.pe "assign tb = {")

let test_lookup_tables_emitted () =
  let d15 = design_for 15 in
  Alcotest.(check bool) "blosum ROM function" true
    (count_substring d15.Emit.pe "function" > 0
    && count_substring d15.Emit.pe "lut_matrix" > 1);
  let d10 = design_for 10 in
  Alcotest.(check bool) "emission ROM" true
    (count_substring d10.Emit.pe "lut_emission" > 1)

let test_params_as_localparams () =
  let d = design_for 1 in
  List.iter
    (fun p ->
      Alcotest.(check bool) p true (count_substring d.Emit.pe p > 0))
    [ "localparam P_MATCH"; "localparam P_MISMATCH"; "localparam P_GAP" ]

let test_block_parameters () =
  let d = design_for ~n_pe:32 1 in
  List.iter
    (fun p ->
      Alcotest.(check bool) p true (count_substring d.Emit.block p > 0))
    [ "localparam N_PE = 32"; "localparam MAX_QRY = 256"; "localparam TB_DEPTH";
      "preserved_row"; "tb_banks"; "S_COMPUTE"; ".up_0(up_in[g][0])";
      ".diag_0(diag_in[g][0])"; ".score_0(pe_score[g][0])"; "w2[g-1]";
      "pe0_prev_up" ]

let test_top_parallelism () =
  let d = design_for 1 in
  Alcotest.(check bool) "N_B and N_K localparams" true
    (count_substring d.Emit.top "localparam N_B = 4" > 0
    && count_substring d.Emit.top "localparam N_K = 2" > 0)

let test_cse_shares_subexpressions () =
  (* kernel #1's three candidate adders appear once each despite being
     used by both the Max chain and the pointer selector *)
  let d = design_for 1 in
  let plus_count = count_substring d.Emit.pe " + " in
  Alcotest.(check bool)
    (Printf.sprintf "adder count (%d) == DSL census (%d)" plus_count
       d.Emit.ops.Datapath.adders)
    true
    (plus_count = d.Emit.ops.Datapath.adders)

let test_lint_clean () =
  List.iter
    (fun id ->
      let issues = Dphls_rtl.Lint.check_design (design_for id) in
      Alcotest.(check int)
        (Printf.sprintf "#%d lints clean (%s)" id
           (String.concat "; "
              (List.map (fun i -> i.Dphls_rtl.Lint.message) issues)))
        0 (List.length issues))
    Dphls_kernels.Catalog.ids

let test_lint_detects_breakage () =
  (* unbalanced module *)
  let issues = Dphls_rtl.Lint.check "module m (\n  input clk\n);\n" in
  Alcotest.(check bool) "unbalanced module caught" true (List.length issues > 0);
  (* undeclared SSA wire *)
  let issues2 =
    Dphls_rtl.Lint.check "module m (\n);\n  assign n7 = n3 + 1;\nendmodule\n"
  in
  Alcotest.(check bool) "undeclared wire caught" true
    (List.exists
       (fun i ->
         String.length i.Dphls_rtl.Lint.message > 0
         && String.sub i.Dphls_rtl.Lint.message 0 3 = "use")
       issues2);
  (* duplicate declaration *)
  let issues3 =
    Dphls_rtl.Lint.check
      "module m (\n);\n  wire signed [3:0] n0;\n  wire signed [3:0] n0;\nendmodule\n"
  in
  Alcotest.(check bool) "duplicate decl caught" true
    (List.exists
       (fun i -> String.length i.Dphls_rtl.Lint.message > 8
                 && String.sub i.Dphls_rtl.Lint.message 0 9 = "duplicate")
       issues3)

let test_emission_deterministic () =
  let a = Emit.to_text (design_for 5) and b = Emit.to_text (design_for 5) in
  Alcotest.(check bool) "identical output" true (a = b)

let suite =
  [
    Alcotest.test_case "all kernels emit" `Quick test_all_kernels_emit;
    Alcotest.test_case "tb depth matches schedule" `Quick test_tb_depth_matches_schedule;
    Alcotest.test_case "pe ports present" `Quick test_pe_ports_present;
    Alcotest.test_case "score-only PE has no tb" `Quick test_no_tb_port_when_score_only;
    Alcotest.test_case "lookup tables emitted" `Quick test_lookup_tables_emitted;
    Alcotest.test_case "params as localparams" `Quick test_params_as_localparams;
    Alcotest.test_case "block parameters" `Quick test_block_parameters;
    Alcotest.test_case "top parallelism" `Quick test_top_parallelism;
    Alcotest.test_case "CSE shares subexpressions" `Quick test_cse_shares_subexpressions;
    Alcotest.test_case "lint clean (15 kernels)" `Quick test_lint_clean;
    Alcotest.test_case "lint detects breakage" `Quick test_lint_detects_breakage;
    Alcotest.test_case "emission deterministic" `Quick test_emission_deterministic;
  ]
