open Dphls_core

let run ?(evaluator = `Compiled) (k : 'p Kernel.t) (p : 'p) (v : Stream.t) =
  let h = v.Stream.header in
  if h.Stream.n_layers <> k.Kernel.n_layers then
    invalid_arg
      (Printf.sprintf
         "Dphls_vectors.Replay: vector has %d layers, kernel %s has %d"
         h.Stream.n_layers k.Kernel.name k.Kernel.n_layers);
  let n_layers = k.Kernel.n_layers in
  let table = Hashtbl.create 1024 in
  Array.iter
    (function
      | Stream.Cell c -> Hashtbl.replace table (c.Stream.c_row, c.Stream.c_col) c
      | Stream.Window _ -> ())
    v.Stream.records;
  (* Membership during replay: a real cell is in band iff it was
     recorded; virtual border coordinates follow the engines' static
     rules (adaptive trackers admit all border reads). *)
  let virtual_member ~row ~col =
    match h.Stream.band with
    | Stream.Unbanded | Stream.Adaptive _ -> true
    | Stream.Fixed w -> abs (row - col) <= w
  in
  let in_band ~row ~col =
    if row < 0 || col < 0 then virtual_member ~row ~col
    else Hashtbl.mem table (row, col)
  in
  let grid =
    Grid.create ~in_band k p ~qry_len:h.Stream.qry_len
      ~ref_len:h.Stream.ref_len ~read:(fun ~row ~col ~layer ->
        (Hashtbl.find table (row, col)).Stream.c_scores.(layer))
  in
  let out = Array.make n_layers 0 in
  (* evaluate the cell whose inputs [buf] holds: layer scores and pointer *)
  let boxed (f : Pe.f) buf =
    let o =
      f
        {
          Pe.up = buf.Pe.b_up;
          diag = buf.Pe.b_diag;
          left = buf.Pe.b_left;
          qry = buf.Pe.b_qry;
          rf = buf.Pe.b_rf;
          row = buf.Pe.b_row;
          col = buf.Pe.b_col;
        }
    in
    (o.Pe.scores, o.Pe.tb)
  in
  let pe : Pe.buffers -> Types.score array * int =
    match evaluator with
    | `Compiled ->
      let flat = Kernel.flat_pe k p in
      fun buf ->
        buf.Pe.b_scores <- out;
        buf.Pe.b_tb <- 0;
        flat buf;
        (out, buf.Pe.b_tb)
    | `Eval ->
      let cell, bindings = k.Kernel.datapath p in
      boxed (Datapath.eval cell bindings)
    | `Pe f -> boxed f
  in
  let has_tb = Kernel.has_traceback k p in
  let buf = Pe.create_buffers ~n_layers in
  let replayed = ref 0 in
  let first = ref None in
  (try
     Array.iter
       (function
         | Stream.Window _ -> ()
         | Stream.Cell c ->
           let row = c.Stream.c_row and col = c.Stream.c_col in
           Grid.fill_input grid buf ~query:h.Stream.query
             ~reference:h.Stream.reference ~row ~col;
           let scores, tb = pe buf in
           let site = Stream.site_of_cell c in
           for layer = 0 to n_layers - 1 do
             if !first = None && scores.(layer) <> c.Stream.c_scores.(layer) then
               first :=
                 Some
                   (Stream.Score_diff
                      {
                        site;
                        layer;
                        expected = c.Stream.c_scores.(layer);
                        actual = scores.(layer);
                      })
           done;
           if !first = None && has_tb && tb <> c.Stream.c_tb then
             first :=
               Some
                 (Stream.Pointer_diff
                    { site; expected = c.Stream.c_tb; actual = tb });
           if !first <> None then raise Exit;
           incr replayed)
       v.Stream.records
   with Exit -> ());
  match !first with Some d -> Error d | None -> Ok !replayed
