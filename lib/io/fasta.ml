type record = { id : string; description : string; sequence : string }

let split_header line =
  (* line starts after '>' *)
  match String.index_opt line ' ' with
  | None -> (String.trim line, "")
  | Some i ->
    (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let flush header buf acc =
    match header with
    | None -> acc
    | Some (id, description) ->
      { id; description; sequence = Buffer.contents buf } :: acc
  in
  let rec go lines header buf acc =
    match lines with
    | [] -> List.rev (flush header buf acc)
    | line :: rest ->
      let line = String.trim line in
      if line = "" || (String.length line > 0 && line.[0] = ';') then
        go rest header buf acc
      else if line.[0] = '>' then begin
        let acc = flush header buf acc in
        let header' = split_header (String.sub line 1 (String.length line - 1)) in
        go rest (Some header') (Buffer.create 64) acc
      end
      else begin
        if header = None then failwith "Fasta.parse_string: sequence before header";
        Buffer.add_string buf line;
        go rest header buf acc
      end
  in
  go lines None (Buffer.create 64) []

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse_string text

(* Streaming reader: same line semantics as [parse_string], but records
   are handed to [f] one at a time so file-scale inputs never have to be
   resident in full. *)
let fold_file path ~init ~f =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let flush header buf acc =
        match header with
        | None -> acc
        | Some (id, description) ->
          f acc { id; description; sequence = Buffer.contents buf }
      in
      let rec go header buf acc =
        match In_channel.input_line ic with
        | None -> flush header buf acc
        | Some line ->
          let line = String.trim line in
          if line = "" || line.[0] = ';' then go header buf acc
          else if line.[0] = '>' then begin
            let acc = flush header buf acc in
            let header' =
              split_header (String.sub line 1 (String.length line - 1))
            in
            go (Some header') (Buffer.create 64) acc
          end
          else begin
            if header = None then
              failwith (Printf.sprintf "Fasta.fold_file: %s: sequence before header" path);
            Buffer.add_string buf line;
            go header buf acc
          end
      in
      go None (Buffer.create 64) init)

let wrap width s =
  let buf = Buffer.create (String.length s + (String.length s / width) + 1) in
  String.iteri
    (fun i c ->
      if i > 0 && i mod width = 0 then Buffer.add_char buf '\n';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string records =
  String.concat ""
    (List.map
       (fun r ->
         let header =
           if r.description = "" then r.id else r.id ^ " " ^ r.description
         in
         Printf.sprintf ">%s\n%s\n" header (wrap 60 r.sequence))
       records)

let write_file path records =
  let oc = open_out path in
  output_string oc (to_string records);
  close_out oc

let dna_of_record r = Dphls_alphabet.Dna.of_string r.sequence
