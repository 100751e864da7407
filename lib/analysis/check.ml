open Dphls_core

let max_fsm_findings = 16

let chars_of_workload ?(limit = 12) (w : Workload.t) =
  let q = w.Workload.query and r = w.Workload.reference in
  let nq = Array.length q and nr = Array.length r in
  if nq = 0 || nr = 0 then [||]
  else
    let n = min limit (max nq nr) in
    Array.init n (fun i ->
        let qi = q.(i mod nq) in
        (* alternate aligned and shifted pairs so both match and mismatch
           costs are sampled *)
        let rj =
          if i land 1 = 0 then r.(i mod nr) else r.((i + (nr / 3) + 1) mod nr)
        in
        (qi, rj))

let width_findings (w : Widths.t) ~score_bits ~max_len =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (match w.Widths.verdict with
  | Widths.Safe { projected_safe_len } ->
    let projection =
      match projected_safe_len with
      | None -> "; probed growth never reaches the representable range"
      | Some l when l > max_len ->
        Printf.sprintf "; projected safe through length ~%d" l
      | Some _ -> ""
    in
    add
      (Report.info ~check:"width-safe"
         (Printf.sprintf
            "score_bits = %d holds all probed scores for lengths up to %d \
             (%d wavefronts, %d PE probes%s)%s"
            score_bits max_len w.Widths.wavefronts w.Widths.probes
            (if w.Widths.extrapolated then ", extrapolated" else "")
            projection))
  | Widths.Overflow { layer; kind; wavefront; bound; max_safe_len } ->
    let where =
      match kind with
      | Widths.Cell -> Printf.sprintf "at wavefront %d" wavefront
      | Widths.Border -> Printf.sprintf "in the border inits at index %d" wavefront
    in
    add
      (Report.error ~check:"width-overflow"
         (Printf.sprintf
            "layer %d overflows %d-bit scores %s (reaches %d, representable \
             range is [%d, %d])%s; maximum safe length %d"
            layer score_bits where bound
            (-(1 lsl (score_bits - 1)))
            ((1 lsl (score_bits - 1)) - 1)
            (if w.Widths.extrapolated then " [extrapolated]" else "")
            max_safe_len)));
  if w.Widths.truncated then
    add
      (Report.info ~check:"width-truncated"
         (Printf.sprintf
            "score growth did not stabilize within %d wavefronts; the verdict \
             only covers lengths up to %d"
            w.Widths.wavefronts
            ((w.Widths.wavefronts + 1) / 2)));
  List.rev !findings

let tb_width_findings (w : Widths.t) ~tb_bits =
  match w.Widths.tb_range with
  | None -> []
  | Some (lo, hi) ->
    let n_ptrs = 1 lsl (max 0 tb_bits) in
    if lo < 0 || hi >= n_ptrs then
      [
        Report.error ~check:"tb-pointer-width"
          (Printf.sprintf
             "PE emitted traceback pointers in [%d, %d] but tb_bits = %d \
              stores only [0, %d)"
             lo hi tb_bits n_ptrs);
      ]
    else []

let fsm_findings spec ~tb_bits =
  let issues = Fsm_check.check spec ~tb_bits in
  let n = List.length issues in
  let shown = if n > max_fsm_findings then List.filteri (fun i _ -> i < max_fsm_findings) issues else issues in
  let findings =
    List.map
      (fun i ->
        let mk = if Fsm_check.is_error i then Report.error else Report.warning in
        mk ~check:(Fsm_check.check_name i) (Fsm_check.describe i))
      shown
  in
  if n > max_fsm_findings then
    findings
    @ [
        Report.info ~check:"fsm-findings-omitted"
          (Printf.sprintf "%d further FSM findings omitted" (n - max_fsm_findings));
      ]
  else findings

let datapath_findings (k : 'p Kernel.t) p =
  let cell, bindings = k.Kernel.datapath p in
  if Array.length cell.Datapath.layers <> k.Kernel.n_layers then
    [
      Report.error ~check:"datapath-layer-count"
        (Printf.sprintf
           "symbolic datapath has %d layer%s but the kernel declares \
            n_layers = %d"
           (Array.length cell.Datapath.layers)
           (if Array.length cell.Datapath.layers = 1 then "" else "s")
           k.Kernel.n_layers);
    ]
  else begin
    let dep = Depend.analyze cell ~n_layers:k.Kernel.n_layers in
    let dep_findings = Depend.findings dep in
    let dep_clean =
      not
        (List.exists
           (fun (f : Report.finding) -> f.Report.severity = Report.Error)
           dep_findings)
    in
    let ii_findings =
      if not dep_clean then
        [
          Report.info ~check:"ii-skipped"
            "recurrence-II analysis skipped: the dependence errors above \
             mean the flat code would not compile";
        ]
      else
        match Ii.analyze cell bindings with
        | Ok ii -> Ii.findings ii ~traits:k.Kernel.traits
        | Error msg ->
          [
            Report.warning ~check:"ii-skipped"
              ("symbolic datapath does not compile: " ^ msg);
          ]
    in
    dep_findings @ ii_findings
    @ Fastpath.findings (Fastpath.classify cell bindings)
  end

let run ?n_pe ?host ~max_len ~chars (Registry.Packed (k, p)) =
  let findings = ref [] in
  let add_all fs = findings := !findings @ fs in
  let structural = Lint.structural k p in
  add_all structural;
  let structurally_sound =
    not
      (List.exists
         (fun (f : Report.finding) ->
           f.Report.check = "n-layers" || f.Report.check = "score-bits-range")
         structural)
  in
  let gap = ref None in
  if max_len >= 1 && structurally_sound then
    if Array.length chars = 0 then
      add_all
        [
          Report.info ~check:"width-skipped"
            "no character samples available — width analysis skipped";
        ]
    else begin
      match Widths.analyze k p ~max_len ~chars with
      | exception Invalid_argument msg ->
        (* an unevaluable datapath (e.g. an out-of-stencil read) is
           reported as an error by the datapath analyses below *)
        add_all
          [
            Report.info ~check:"width-skipped"
              ("the datapath cannot be evaluated — width analysis skipped: " ^ msg);
          ]
      | w ->
        gap := w.Widths.gap_magnitude;
        add_all (width_findings w ~score_bits:k.Kernel.score_bits ~max_len);
        if Kernel.has_traceback k p then
          add_all (tb_width_findings w ~tb_bits:k.Kernel.tb_bits)
    end;
  (match k.Kernel.traceback p with
  | None -> ()
  | Some spec -> add_all (fsm_findings spec ~tb_bits:k.Kernel.tb_bits));
  add_all (datapath_findings k p);
  add_all (Lint.banding k.Kernel.banding ~gap_magnitude:!gap ~max_len);
  add_all (Lint.parallelism ~n_pe ~max_len);
  add_all (Lint.domain_safety host);
  Report.create ~kernel_id:k.Kernel.id ~kernel_name:k.Kernel.name ~max_len
    !findings
