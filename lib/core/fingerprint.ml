let fnv64 s =
  let open Int64 in
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter (fun c -> h := mul (logxor !h (of_int (Char.code c))) prime) s;
  Printf.sprintf "%016Lx" !h

(* Canonical prefix rendering of a datapath expression. *)
let rec render_expr b (e : Datapath.expr) =
  let p fmt = Printf.bprintf b fmt in
  let node tag args =
    p "(%s" tag;
    List.iter
      (fun a ->
        Buffer.add_char b ' ';
        render_expr b a)
      args;
    Buffer.add_char b ')'
  in
  match e with
  | Const c -> p "%d" c
  | Param n -> p "$%s" n
  | Up l -> p "up%d" l
  | Diag l -> p "diag%d" l
  | Left l -> p "left%d" l
  | Qry i -> p "qry%d" i
  | Ref i -> p "ref%d" i
  | Cur l -> p "cur%d" l
  | Nbr (dr, dc, l) -> p "nbr%d,%d,%d" dr dc l
  | Add (x, y) -> node "add" [ x; y ]
  | Sub (x, y) -> node "sub" [ x; y ]
  | Mul (x, y) -> node "mul" [ x; y ]
  | Abs x -> node "abs" [ x ]
  | Max xs -> node "max" xs
  | Min xs -> node "min" xs
  | Ite (c, t, f) ->
    let tag, x, y =
      match c with
      | Eq (x, y) -> ("eq", x, y)
      | Le (x, y) -> ("le", x, y)
      | Lt (x, y) -> ("lt", x, y)
    in
    node ("ite-" ^ tag) [ x; y; t; f ]
  | Lookup2 (n, x, y) -> node ("lookup " ^ n) [ x; y ]

let params_hash (k : 'p Kernel.t) p ~n_pe =
  let b = Buffer.create 512 in
  let tr = k.Kernel.traits in
  Printf.bprintf b
    "id=%d;name=%s;obj=%s;layers=%d;score_bits=%d;tb_bits=%d;adds=%d;muls=%d;cmps=%d;ii=%d;depth=%d;char_bits=%d;param_bits=%d;band=%s;n_pe=%d"
    k.Kernel.id k.Kernel.name
    (match k.Kernel.objective with
    | Dphls_util.Score.Maximize -> "max"
    | Minimize -> "min")
    k.Kernel.n_layers k.Kernel.score_bits k.Kernel.tb_bits tr.Traits.adds_per_pe
    tr.Traits.muls_per_pe tr.Traits.cmps_per_pe tr.Traits.ii tr.Traits.logic_depth
    tr.Traits.char_bits tr.Traits.param_bits
    (match k.Kernel.banding with
    | None -> "none"
    | Some (Banding.Fixed { width }) -> Printf.sprintf "fixed %d" width
    | Some (Banding.Adaptive { width; threshold }) ->
      Printf.sprintf "adaptive %d %d" width threshold)
    n_pe;
  let cell, bindings = k.Kernel.datapath p in
  Buffer.add_string b ";cell=";
  Array.iter (render_expr b) cell.Datapath.layers;
  List.iter
    (fun (f : Datapath.tb_field) ->
      Printf.bprintf b "|%d:" f.Datapath.bits;
      render_expr b f.Datapath.value)
    cell.Datapath.tb_fields;
  List.iter (fun (n, v) -> Printf.bprintf b ";%s=%d" n v) bindings.Datapath.params;
  List.iter
    (fun (n, t) ->
      Printf.bprintf b ";%s=" n;
      Array.iter
        (fun row ->
          Buffer.add_char b '[';
          Array.iter (fun v -> Printf.bprintf b "%d," v) row;
          Buffer.add_char b ']')
        t)
    bindings.Datapath.tables;
  Buffer.add_string b ";border=";
  for layer = 0 to k.Kernel.n_layers - 1 do
    Printf.bprintf b "%d,%d,%d|"
      (k.Kernel.origin p ~layer)
      (k.Kernel.init_row p ~ref_len:1 ~layer ~col:0)
      (k.Kernel.init_col p ~qry_len:1 ~layer ~row:0)
  done;
  fnv64 (Buffer.contents b)
