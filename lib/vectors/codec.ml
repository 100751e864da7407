open Dphls_core

let version = 1

let magic = "DPHLSVEC"

(* ---------------------------------------------------------------- *)
(* Writer                                                           *)
(* ---------------------------------------------------------------- *)

let seq_tokens (s : Types.seq) =
  Array.to_list
    (Array.map
       (fun ch ->
         String.concat "," (Array.to_list (Array.map string_of_int ch)))
       s)

let cell_opt_token = function
  | None -> "-"
  | Some c -> Printf.sprintf "%d,%d" c.Types.row c.Types.col

let to_string (v : Stream.t) =
  let h = v.Stream.header in
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s;
                                   Buffer.add_char b '\n') fmt in
  line "%s %d" magic h.Stream.version;
  line "kernel %d %s" h.Stream.kernel_id h.Stream.kernel_name;
  line "params %s" h.Stream.params_hash;
  line "band %s" (Stream.band_spec_to_string h.Stream.band);
  line "n_pe %d" h.Stream.n_pe;
  line "lens %d %d" h.Stream.qry_len h.Stream.ref_len;
  line "layers %d" h.Stream.n_layers;
  line "query%s"
    (String.concat "" (List.map (fun t -> " " ^ t) (seq_tokens h.Stream.query)));
  line "reference%s"
    (String.concat ""
       (List.map (fun t -> " " ^ t) (seq_tokens h.Stream.reference)));
  let n_cells =
    Array.fold_left
      (fun n -> function Stream.Cell _ -> n + 1 | Stream.Window _ -> n)
      0 v.Stream.records
  in
  let n_windows = Array.length v.Stream.records - n_cells in
  line "body %d %d" n_cells n_windows;
  Array.iter
    (function
      | Stream.Cell c ->
        line "C %d %d %d %d %d %d%s" c.Stream.c_chunk c.Stream.c_wavefront
          c.Stream.c_pe c.Stream.c_row c.Stream.c_col c.Stream.c_tb
          (String.concat ""
             (Array.to_list
                (Array.map (Printf.sprintf " %d") c.Stream.c_scores)))
      | Stream.Window { v_chunk; v_wavefront; v_lo; v_hi } ->
        line "W %d %d %d %d" v_chunk v_wavefront v_lo v_hi)
    v.Stream.records;
  let s = v.Stream.summary in
  line "result %d %s %s %s %d" s.Stream.s_score
    (cell_opt_token s.Stream.s_start)
    (cell_opt_token s.Stream.s_end)
    (if s.Stream.s_cigar = "" then "-" else s.Stream.s_cigar)
    s.Stream.s_cells;
  let covered = Buffer.contents b in
  line "checksum %s" (Fingerprint.fnv64 covered);
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* Reader                                                           *)
(* ---------------------------------------------------------------- *)

exception Parse of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

type cursor = {
  lines : string array;
  mutable pos : int; (* 0-based index of the next unread line *)
}

let next cur ~expecting =
  if cur.pos >= Array.length cur.lines then
    fail "truncated vector file: expected %s at line %d, got end of file"
      expecting (cur.pos + 1)
  else begin
    let l = cur.lines.(cur.pos) in
    cur.pos <- cur.pos + 1;
    (cur.pos, l)
  end

let tokens line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let int_field ~lineno ~field s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail "line %d: %s field is not an integer: %S" lineno field s

let keyword_line cur key =
  let lineno, l = next cur ~expecting:(Printf.sprintf "%S line" key) in
  match tokens l with
  | k :: rest when k = key -> (lineno, rest)
  | k :: _ ->
    fail "line %d: expected header field %S, got %S" lineno key k
  | [] -> fail "line %d: expected header field %S, got a blank line" lineno key

let parse_ch ~lineno s =
  let parts = String.split_on_char ',' s in
  Array.of_list
    (List.map (fun p -> int_field ~lineno ~field:"sequence channel" p) parts)

let parse_seq ~lineno ~field ~len toks =
  let n = List.length toks in
  if n <> len then
    fail "line %d: %s declares %d characters but lens field says %d" lineno
      field n len;
  Array.of_list (List.map (parse_ch ~lineno) toks)

let parse_cell_opt ~lineno ~field s =
  if s = "-" then None
  else
    match String.split_on_char ',' s with
    | [ r; c ] ->
      Some
        {
          Types.row = int_field ~lineno ~field r;
          col = int_field ~lineno ~field c;
        }
    | _ -> fail "line %d: %s is not \"row,col\" or \"-\": %S" lineno field s

let parse_exn s =
  (* Preserve raw lines for checksum reconstruction: the checksum covers
     every line before the checksum line, each with its newline. *)
  let raw = String.split_on_char '\n' s in
  let raw =
    match List.rev raw with "" :: rest -> List.rev rest | _ -> raw
  in
  let cur = { lines = Array.of_list raw; pos = 0 } in
  (* magic + version *)
  let lineno, l = next cur ~expecting:"magic line" in
  let file_version =
    match tokens l with
    | [ m; v ] when m = magic ->
      int_field ~lineno ~field:"version" v
    | m :: _ ->
      fail "line %d: bad magic %S (expected %S): not a vector file" lineno m
        magic
    | [] -> fail "line %d: empty file: not a vector file" lineno
  in
  if file_version <> version then
    fail
      "line %d: header field \"version\": unsupported vector format version \
       %d (this build reads version %d); regenerate with `dphls vectors gen`"
      lineno file_version version;
  (* kernel *)
  let lineno, rest = keyword_line cur "kernel" in
  let kernel_id, kernel_name =
    match rest with
    | id :: (_ :: _ as name) ->
      (int_field ~lineno ~field:"kernel id" id, String.concat " " name)
    | _ -> fail "line %d: header field \"kernel\" needs <id> <name>" lineno
  in
  (* params *)
  let lineno, rest = keyword_line cur "params" in
  let params_hash =
    match rest with
    | [ h ] when String.length h = 16 -> h
    | [ h ] ->
      fail "line %d: header field \"params\": %S is not a 16-hex digest"
        lineno h
    | _ -> fail "line %d: header field \"params\" needs one digest" lineno
  in
  (* band *)
  let lineno, rest = keyword_line cur "band" in
  let band =
    match rest with
    | [ "none" ] -> Stream.Unbanded
    | [ "fixed"; w ] -> Stream.Fixed (int_field ~lineno ~field:"band width" w)
    | [ "adaptive"; w; t ] ->
      Stream.Adaptive
        ( int_field ~lineno ~field:"band width" w,
          int_field ~lineno ~field:"band threshold" t )
    | _ ->
      fail
        "line %d: header field \"band\" must be \"none\", \"fixed <w>\" or \
         \"adaptive <w> <t>\""
        lineno
  in
  (* n_pe *)
  let lineno, rest = keyword_line cur "n_pe" in
  let n_pe =
    match rest with
    | [ n ] -> int_field ~lineno ~field:"n_pe" n
    | _ -> fail "line %d: header field \"n_pe\" needs one integer" lineno
  in
  (* lens *)
  let lineno, rest = keyword_line cur "lens" in
  let qry_len, ref_len =
    match rest with
    | [ q; r ] ->
      ( int_field ~lineno ~field:"qry_len" q,
        int_field ~lineno ~field:"ref_len" r )
    | _ ->
      fail "line %d: header field \"lens\" needs <qry_len> <ref_len>" lineno
  in
  (* layers *)
  let lineno, rest = keyword_line cur "layers" in
  let n_layers =
    match rest with
    | [ n ] -> int_field ~lineno ~field:"layers" n
    | _ -> fail "line %d: header field \"layers\" needs one integer" lineno
  in
  (* query / reference *)
  let lineno, rest = keyword_line cur "query" in
  let query = parse_seq ~lineno ~field:"query" ~len:qry_len rest in
  let lineno, rest = keyword_line cur "reference" in
  let reference = parse_seq ~lineno ~field:"reference" ~len:ref_len rest in
  (* body *)
  let lineno, rest = keyword_line cur "body" in
  let n_cells, n_windows =
    match rest with
    | [ c; w ] ->
      ( int_field ~lineno ~field:"cell-record count" c,
        int_field ~lineno ~field:"window-record count" w )
    | _ ->
      fail "line %d: header field \"body\" needs <n_cells> <n_windows>" lineno
  in
  if n_cells < 0 || n_windows < 0 then
    fail "line %d: header field \"body\": negative record count" lineno;
  let records = Array.make (n_cells + n_windows) None in
  let seen_cells = ref 0 and seen_windows = ref 0 in
  for i = 0 to n_cells + n_windows - 1 do
    let lineno, l =
      next cur
        ~expecting:
          (Printf.sprintf "record %d of %d" (i + 1) (n_cells + n_windows))
    in
    match tokens l with
    | "C" :: chunk :: wavefront :: pe :: row :: col :: tb :: scores ->
      let c_chunk = int_field ~lineno ~field:"cell chunk" chunk in
      let c_wavefront = int_field ~lineno ~field:"cell wavefront" wavefront in
      if List.length scores <> n_layers then
        fail
          "line %d: cell record at chunk %d, wavefront %d: expected %d layer \
           scores, got %d"
          lineno c_chunk c_wavefront n_layers (List.length scores);
      let c =
        {
          Stream.c_chunk;
          c_wavefront;
          c_pe = int_field ~lineno ~field:"cell pe" pe;
          c_row = int_field ~lineno ~field:"cell row" row;
          c_col = int_field ~lineno ~field:"cell col" col;
          c_tb = int_field ~lineno ~field:"cell tb" tb;
          c_scores =
            Array.of_list
              (List.map (int_field ~lineno ~field:"cell score") scores);
        }
      in
      incr seen_cells;
      records.(i) <- Some (Stream.Cell c)
    | [ "W"; chunk; wavefront; lo; hi ] ->
      incr seen_windows;
      records.(i) <-
        Some
          (Stream.Window
             {
               v_chunk = int_field ~lineno ~field:"window chunk" chunk;
               v_wavefront =
                 int_field ~lineno ~field:"window wavefront" wavefront;
               v_lo = int_field ~lineno ~field:"window lo" lo;
               v_hi = int_field ~lineno ~field:"window hi" hi;
             })
    | "C" :: _ ->
      fail "line %d: malformed cell record: needs chunk wavefront pe row col \
            tb scores..." lineno
    | "W" :: _ ->
      fail "line %d: malformed window record: needs chunk wavefront lo hi"
        lineno
    | k :: _ ->
      fail "line %d: expected a C or W record, got %S (body count skew: file \
            truncated or corrupted)" lineno k
    | [] -> fail "line %d: blank line inside record body" lineno
  done;
  if !seen_cells <> n_cells then
    fail "body declares %d cell records but file contains %d" n_cells
      !seen_cells;
  if !seen_windows <> n_windows then
    fail "body declares %d window records but file contains %d" n_windows
      !seen_windows;
  (* result *)
  let lineno, rest = keyword_line cur "result" in
  let summary =
    match rest with
    | [ score; start_c; end_c; cigar; cells ] ->
      {
        Stream.s_score = int_field ~lineno ~field:"result score" score;
        s_start = parse_cell_opt ~lineno ~field:"result start cell" start_c;
        s_end = parse_cell_opt ~lineno ~field:"result end cell" end_c;
        s_cigar = (if cigar = "-" then "" else cigar);
        s_cells = int_field ~lineno ~field:"result cells" cells;
      }
    | _ ->
      fail
        "line %d: result line needs <score> <start> <end> <cigar> <cells>"
        lineno
  in
  (* checksum: covers every preceding line with its newline *)
  let covered_end = cur.pos in
  let lineno, rest = keyword_line cur "checksum" in
  let recorded =
    match rest with
    | [ h ] -> h
    | _ -> fail "line %d: checksum line needs one digest" lineno
  in
  if cur.pos < Array.length cur.lines then
    fail "line %d: trailing garbage after checksum line" (cur.pos + 1);
  let b = Buffer.create 4096 in
  for i = 0 to covered_end - 1 do
    Buffer.add_string b cur.lines.(i);
    Buffer.add_char b '\n'
  done;
  let computed = Fingerprint.fnv64 (Buffer.contents b) in
  if computed <> recorded then
    fail
      "checksum mismatch: recorded %s, computed %s — file corrupted or \
       hand-edited; regenerate with `dphls vectors gen`"
      recorded computed;
  {
    Stream.header =
      {
        Stream.version = file_version;
        kernel_id;
        kernel_name;
        params_hash;
        band;
        n_pe;
        qry_len;
        ref_len;
        n_layers;
        query;
        reference;
      };
    records =
      Array.map
        (function Some r -> r | None -> assert false)
        records;
    summary;
  }

let of_string s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse msg -> Error msg

let write_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string v))

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | s -> (
    match of_string s with
    | Ok v -> Ok v
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
