open Dphls_core

type band_spec =
  | Unbanded
  | Fixed of int
  | Adaptive of int * int

let band_spec_of_banding = function
  | None -> Unbanded
  | Some (Banding.Fixed { width }) -> Fixed width
  | Some (Banding.Adaptive { width; threshold }) -> Adaptive (width, threshold)

let banding_of_spec = function
  | Unbanded -> None
  | Fixed w -> Some (Banding.fixed w)
  | Adaptive (w, t) -> Some (Banding.adaptive ~threshold:t w)

let band_spec_to_string = function
  | Unbanded -> "none"
  | Fixed w -> Printf.sprintf "fixed %d" w
  | Adaptive (w, t) -> Printf.sprintf "adaptive %d %d" w t

type header = {
  version : int;
  kernel_id : int;
  kernel_name : string;
  params_hash : string;
  band : band_spec;
  n_pe : int;
  qry_len : int;
  ref_len : int;
  n_layers : int;
  query : Types.seq;
  reference : Types.seq;
}

type cell_rec = {
  c_chunk : int;
  c_wavefront : int;
  c_pe : int;
  c_row : int;
  c_col : int;
  c_tb : int;
  c_scores : int array;
}

type record =
  | Cell of cell_rec
  | Window of { v_chunk : int; v_wavefront : int; v_lo : int; v_hi : int }

type summary = {
  s_score : int;
  s_start : Types.cell option;
  s_end : Types.cell option;
  s_cigar : string;
  s_cells : int;
}

type t = {
  header : header;
  records : record array;
  summary : summary;
}

type site = {
  at_chunk : int;
  at_wavefront : int;
  at_pe : int;
  at_row : int;
  at_col : int;
}

let site_of_cell c =
  {
    at_chunk = c.c_chunk;
    at_wavefront = c.c_wavefront;
    at_pe = c.c_pe;
    at_row = c.c_row;
    at_col = c.c_col;
  }

type divergence =
  | Header_field of { field : string; expected : string; actual : string }
  | Missing_cell of site
  | Extra_cell of site
  | Score_diff of { site : site; layer : int; expected : int; actual : int }
  | Pointer_diff of { site : site; expected : int; actual : int }
  | Window_diff of {
      at_chunk : int;
      at_wavefront : int;
      expected : int * int;
      actual : int * int;
    }
  | Missing_window of { at_chunk : int; at_wavefront : int }
  | Extra_window of { at_chunk : int; at_wavefront : int }
  | Summary_field of { field : string; expected : string; actual : string }

let site_str s =
  Printf.sprintf "chunk %d, wavefront %d, PE %d, cell (%d,%d)" s.at_chunk
    s.at_wavefront s.at_pe s.at_row s.at_col

let describe = function
  | Header_field { field; expected; actual } ->
    Printf.sprintf "header field %S: expected %s, got %s" field expected actual
  | Missing_cell s ->
    Printf.sprintf "missing cell at %s: expected stream fires, actual does not"
      (site_str s)
  | Extra_cell s ->
    Printf.sprintf "extra cell at %s: actual stream fires, expected does not"
      (site_str s)
  | Score_diff { site; layer; expected; actual } ->
    Printf.sprintf "score divergence at %s: layer %d expected %d, got %d"
      (site_str site) layer expected actual
  | Pointer_diff { site; expected; actual } ->
    Printf.sprintf
      "traceback-pointer divergence at %s: expected %d, got %d"
      (site_str site) expected actual
  | Window_diff { at_chunk; at_wavefront; expected = elo, ehi; actual = alo, ahi }
    ->
    Printf.sprintf
      "band-window divergence at chunk %d, wavefront %d: expected [%d,%d], \
       got [%d,%d]"
      at_chunk at_wavefront elo ehi alo ahi
  | Missing_window { at_chunk; at_wavefront } ->
    Printf.sprintf "missing band-window record at chunk %d, wavefront %d"
      at_chunk at_wavefront
  | Extra_window { at_chunk; at_wavefront } ->
    Printf.sprintf "extra band-window record at chunk %d, wavefront %d"
      at_chunk at_wavefront
  | Summary_field { field; expected; actual } ->
    Printf.sprintf "result %s: expected %s, got %s" field expected actual

let seq_to_string (s : Types.seq) =
  String.concat " "
    (Array.to_list
       (Array.map
          (fun ch -> String.concat "," (Array.to_list (Array.map string_of_int ch)))
          s))

let cell_opt_str = function
  | None -> "-"
  | Some c -> Printf.sprintf "%d,%d" c.Types.row c.Types.col

(* Records sort by schedule slot; a wavefront's cells precede its window
   record, mirroring execution (the window slides as the wavefront
   retires). *)
let record_key = function
  | Cell c -> (c.c_chunk, c.c_wavefront, 0, c.c_pe)
  | Window { v_chunk; v_wavefront; _ } -> (v_chunk, v_wavefront, 1, 0)

let has_windows t =
  Array.exists (function Window _ -> true | Cell _ -> false) t.records

let diff_records expected actual =
  (* When only one side recorded band windows (golden-engine captures
     carry none), compare cells only. *)
  let strip r =
    Array.of_list
      (List.filter
         (function Cell _ -> true | Window _ -> false)
         (Array.to_list r))
  in
  let exp_r, act_r =
    if has_windows expected <> has_windows actual then
      (strip expected.records, strip actual.records)
    else (expected.records, actual.records)
  in
  let ne = Array.length exp_r and na = Array.length act_r in
  let missing = function
    | Cell c -> Missing_cell (site_of_cell c)
    | Window { v_chunk; v_wavefront; _ } ->
      Missing_window { at_chunk = v_chunk; at_wavefront = v_wavefront }
  in
  let extra = function
    | Cell c -> Extra_cell (site_of_cell c)
    | Window { v_chunk; v_wavefront; _ } ->
      Extra_window { at_chunk = v_chunk; at_wavefront = v_wavefront }
  in
  let rec go i j =
    if i >= ne && j >= na then None
    else if i >= ne then Some (extra act_r.(j))
    else if j >= na then Some (missing exp_r.(i))
    else
      let e = exp_r.(i) and a = act_r.(j) in
      let ke = record_key e and ka = record_key a in
      if ke < ka then Some (missing e)
      else if ka < ke then Some (extra a)
      else
        match (e, a) with
        | Cell ec, Cell ac ->
          if ec.c_row <> ac.c_row || ec.c_col <> ac.c_col then
            (* same slot, different cell: can only happen on malformed
               input; report as a missing expected cell *)
            Some (Missing_cell (site_of_cell ec))
          else begin
            let res = ref None in
            let n = min (Array.length ec.c_scores) (Array.length ac.c_scores) in
            (let exception Found in
             try
               for layer = 0 to n - 1 do
                 if ec.c_scores.(layer) <> ac.c_scores.(layer) then begin
                   res :=
                     Some
                       (Score_diff
                          {
                            site = site_of_cell ec;
                            layer;
                            expected = ec.c_scores.(layer);
                            actual = ac.c_scores.(layer);
                          });
                   raise Found
                 end
               done
             with Found -> ());
            (match !res with
            | None when ec.c_tb <> ac.c_tb ->
              res :=
                Some
                  (Pointer_diff
                     {
                       site = site_of_cell ec;
                       expected = ec.c_tb;
                       actual = ac.c_tb;
                     })
            | _ -> ());
            match !res with None -> go (i + 1) (j + 1) | some -> some
          end
        | ( Window { v_chunk; v_wavefront; v_lo = elo; v_hi = ehi },
            Window { v_lo = alo; v_hi = ahi; _ } ) ->
          if elo <> alo || ehi <> ahi then
            Some
              (Window_diff
                 {
                   at_chunk = v_chunk;
                   at_wavefront = v_wavefront;
                   expected = (elo, ehi);
                   actual = (alo, ahi);
                 })
          else go (i + 1) (j + 1)
        | Cell _, Window _ | Window _, Cell _ ->
          (* record_key separates kinds at equal (chunk, wavefront) *)
          assert false
  in
  go 0 0

let diff ~expected ~actual =
  let h = expected.header and g = actual.header in
  let field name to_s e a =
    if e = a then None
    else Some (Header_field { field = name; expected = to_s e; actual = to_s a })
  in
  let candidates =
    [
      (fun () -> field "version" string_of_int h.version g.version);
      (fun () -> field "kernel id" string_of_int h.kernel_id g.kernel_id);
      (fun () -> field "kernel name" Fun.id h.kernel_name g.kernel_name);
      (fun () -> field "params hash" Fun.id h.params_hash g.params_hash);
      (fun () -> field "band" band_spec_to_string h.band g.band);
      (fun () -> field "n_pe" string_of_int h.n_pe g.n_pe);
      (fun () -> field "qry_len" string_of_int h.qry_len g.qry_len);
      (fun () -> field "ref_len" string_of_int h.ref_len g.ref_len);
      (fun () -> field "layers" string_of_int h.n_layers g.n_layers);
      (fun () -> field "query" seq_to_string h.query g.query);
      (fun () -> field "reference" seq_to_string h.reference g.reference);
    ]
  in
  let header_diff =
    List.fold_left
      (fun acc f -> match acc with Some _ -> acc | None -> f ())
      None candidates
  in
  match header_diff with
  | Some _ as d -> d
  | None -> (
    match diff_records expected actual with
    | Some _ as d -> d
    | None ->
      let s = expected.summary and r = actual.summary in
      let sf name to_s e a =
        if e = a then None
        else
          Some (Summary_field { field = name; expected = to_s e; actual = to_s a })
      in
      List.fold_left
        (fun acc f -> match acc with Some _ -> acc | None -> f ())
        None
        [
          (fun () -> sf "score" string_of_int s.s_score r.s_score);
          (fun () -> sf "start cell" cell_opt_str s.s_start r.s_start);
          (fun () -> sf "end cell" cell_opt_str s.s_end r.s_end);
          (fun () -> sf "cigar" Fun.id s.s_cigar r.s_cigar);
          (fun () -> sf "cells computed" string_of_int s.s_cells r.s_cells);
        ])
