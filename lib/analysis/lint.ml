open Dphls_core

let structural k p =
  List.map
    (fun (check, message) -> Report.error ~check message)
    (Kernel.structural_findings k p)

let banding (band : Banding.t option) ~gap_magnitude ~max_len =
  match band with
  | None -> []
  | Some b ->
    let width = Banding.width b in
    let findings = ref [] in
    if width >= max_len then
      findings :=
        Report.warning ~check:"band-covers-matrix"
          (Printf.sprintf
             "band half-width %d covers the whole %dx%d matrix — banding \
              overhead without any pruning"
             width max_len max_len)
        :: !findings;
    (match b with
    | Banding.Fixed _ -> ()
    | Banding.Adaptive { width; threshold } -> (
      match gap_magnitude with
      | None ->
        findings :=
          Report.info ~check:"band-threshold-unverified"
            "adaptive threshold guidance not checked: the per-cell gap \
             penalty could not be probed"
          :: !findings
      | Some gap ->
        let limit = 2 * gap * width in
        if threshold >= limit then
          findings :=
            Report.warning ~check:"band-threshold"
              (Printf.sprintf
                 "adaptive threshold %d >= 2*|gap|*width = 2*%d*%d = %d: the \
                  X-drop rule can never prune inside the window (see \
                  docs/banding.md); lower the threshold or widen the band"
                 threshold gap width limit)
            :: !findings));
    List.rev !findings

let parallelism ~n_pe ~max_len =
  match n_pe with
  | None -> []
  | Some n_pe ->
    if n_pe < 1 then
      [ Report.error ~check:"n-pe-range" (Printf.sprintf "N_PE = %d < 1" n_pe) ]
    else
      let findings = ref [] in
      if n_pe > max_len then
        findings :=
          Report.warning ~check:"n-pe-oversized"
            (Printf.sprintf
               "N_PE = %d exceeds the query length bound %d: %d PE%s can never \
                receive a row"
               n_pe max_len (n_pe - max_len)
               (if n_pe - max_len = 1 then "" else "s"))
          :: !findings
      else if max_len mod n_pe <> 0 then begin
        let rem = max_len mod n_pe in
        findings :=
          Report.info ~check:"n-pe-chunking"
            (Printf.sprintf
               "query length %d is not a multiple of N_PE = %d: the final \
                chunk runs %d of %d PEs"
               max_len n_pe rem n_pe)
          :: !findings
      end;
      List.rev !findings
