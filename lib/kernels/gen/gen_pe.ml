(* Prints lib/core/pe_gen.ml: per distinct compiled datapath of the
   kernel catalog at its default parameters, one straight-line OCaml PE
   evaluator, one row loop over the golden engine's ring and one wave
   loop over the systolic array's wavefront planes, and the table
   [Kernel.flat_pe], [Kernel.flat_row] and [Kernel.flat_wave] look
   programs up in.

   The key of each entry is the program's decoded view (every
   instruction with its immediates, the layer and pointer registers and
   the pointer shifts), never its lookup tables: those are passed to the
   evaluator when it is built. Each instruction becomes one let-binding
   that does what [Datapath.exec] does for it: the same saturating add
   ([Datapath.sat_add]), [Score.mul]/[Score.abs], left-fold 3-way
   max/min, selects over two already-computed arms, and bounds-checked
   character and table reads. The PE makes the same
   [Datapath.check_buffers] on entry; the row checks the ring once per
   call ([Pe.check_row]) and stores pointers with the 16-bit range
   check of [Pe.store_pointer]; the wave checks its planes, rows and
   columns once per call ([Pe.check_wave]) and stores pointers into the
   same plane the same way.

   lib/core/dune runs this under @runtest and diffs the output against
   the committed file; `dune build @runtest --auto-promote` rewrites
   it. *)

open Dphls_core
open Datapath
module Catalog = Dphls_kernels.Catalog

let pr = Printf.printf

(* an integer literal that can stand as a function argument *)
let lit n = if n < 0 then Printf.sprintf "(%d)" n else string_of_int n

let r i = Printf.sprintf "r%d" i

(* [input] renders the five reads of cell state (V_up, V_diag, V_left,
   V_qry, V_ref): the PE reads its register file, a row the ring *)
let rhs ~input = function
  | V_const c -> lit c
  | (V_up _ | V_diag _ | V_left _ | V_qry _ | V_ref _) as i -> input i
  | V_add (a, b) -> Printf.sprintf "Datapath.sat_add %s %s" (r a) (r b)
  | V_addi (a, c) -> Printf.sprintf "Datapath.sat_add %s %s" (r a) (lit c)
  | V_sub (a, b) -> Printf.sprintf "Datapath.sat_add %s (-%s)" (r a) (r b)
  | V_mul (a, b) -> Printf.sprintf "Dphls_util.Score.mul %s %s" (r a) (r b)
  | V_abs a -> Printf.sprintf "Dphls_util.Score.abs %s" (r a)
  | V_absdiff (a, b) ->
    Printf.sprintf "Dphls_util.Score.abs (Datapath.sat_add %s (-%s))" (r a) (r b)
  | V_max (a, b) -> Printf.sprintf "if %s >= %s then %s else %s" (r a) (r b) (r a) (r b)
  | V_min (a, b) -> Printf.sprintf "if %s <= %s then %s else %s" (r a) (r b) (r a) (r b)
  | V_max3 (a, b, c) ->
    Printf.sprintf "let m = if %s >= %s then %s else %s in if m >= %s then m else %s"
      (r a) (r b) (r a) (r b) (r c) (r c)
  | V_min3 (a, b, c) ->
    Printf.sprintf "let m = if %s <= %s then %s else %s in if m <= %s then m else %s"
      (r a) (r b) (r a) (r b) (r c) (r c)
  | V_sel_eq (a, b, t, f) ->
    Printf.sprintf "if %s = %s then %s else %s" (r a) (r b) (r t) (r f)
  | V_sel_le (a, b, t, f) ->
    Printf.sprintf "if %s <= %s then %s else %s" (r a) (r b) (r t) (r f)
  | V_sel_lt (a, b, t, f) ->
    Printf.sprintf "if %s < %s then %s else %s" (r a) (r b) (r t) (r f)
  | V_lookup (t, a, b) -> Printf.sprintf "t%d.(%s).(%s)" t (r a) (r b)

let pe_input = function
  | V_up l -> Printf.sprintf "Array.unsafe_get up %d" l
  | V_diag l -> Printf.sprintf "Array.unsafe_get diag %d" l
  | V_left l -> Printf.sprintf "Array.unsafe_get left %d" l
  | V_qry j -> Printf.sprintf "b.Pe.b_qry.(%d)" j
  | V_ref j -> Printf.sprintf "b.Pe.b_rf.(%d)" j
  | _ -> assert false

(* [v] plus a constant offset, as an argument *)
let plus v = function
  | 0 -> v
  | k when k > 0 -> Printf.sprintf "(%s + %d)" v k
  | k -> Printf.sprintf "(%s - %d)" v (-k)

(* In a row, [u] and [a] are the ring offsets of the cell above and of
   the cell itself: diag and left are the [n]-word slots before them. *)
let row_input n = function
  | V_up l -> Printf.sprintf "Array.unsafe_get ring %s" (plus "u" l)
  | V_diag l -> Printf.sprintf "Array.unsafe_get ring %s" (plus "u" (l - n))
  | V_left l -> Printf.sprintf "Array.unsafe_get ring %s" (plus "a" (l - n))
  | V_qry j -> Printf.sprintf "q%d" j
  | V_ref j -> Printf.sprintf "rf.(%d)" j
  | _ -> assert false

(* In a wave, [s] is the offset of PE [p]'s slot [p] (up in [w1], diag
   in [w2]); left is the next slot of [w1], where [p] wrote last
   wavefront. *)
let wave_input n = function
  | V_up l -> Printf.sprintf "Array.unsafe_get w1 %s" (plus "s" l)
  | V_diag l -> Printf.sprintf "Array.unsafe_get w2 %s" (plus "s" l)
  | V_left l -> Printf.sprintf "Array.unsafe_get w1 %s" (plus "s" (n + l))
  | V_qry j -> Printf.sprintf "q.(%d)" j
  | V_ref j -> Printf.sprintf "rf.(%d)" j
  | _ -> assert false

let key_inst = function
  | V_const c -> Printf.sprintf "V_const %s" (lit c)
  | V_up l -> Printf.sprintf "V_up %d" l
  | V_diag l -> Printf.sprintf "V_diag %d" l
  | V_left l -> Printf.sprintf "V_left %d" l
  | V_qry j -> Printf.sprintf "V_qry %d" j
  | V_ref j -> Printf.sprintf "V_ref %d" j
  | V_add (a, b) -> Printf.sprintf "V_add (%d, %d)" a b
  | V_addi (a, c) -> Printf.sprintf "V_addi (%d, %d)" a c
  | V_sub (a, b) -> Printf.sprintf "V_sub (%d, %d)" a b
  | V_mul (a, b) -> Printf.sprintf "V_mul (%d, %d)" a b
  | V_abs a -> Printf.sprintf "V_abs %d" a
  | V_absdiff (a, b) -> Printf.sprintf "V_absdiff (%d, %d)" a b
  | V_max (a, b) -> Printf.sprintf "V_max (%d, %d)" a b
  | V_min (a, b) -> Printf.sprintf "V_min (%d, %d)" a b
  | V_max3 (a, b, c) -> Printf.sprintf "V_max3 (%d, %d, %d)" a b c
  | V_min3 (a, b, c) -> Printf.sprintf "V_min3 (%d, %d, %d)" a b c
  | V_sel_eq (a, b, t, f) -> Printf.sprintf "V_sel_eq (%d, %d, %d, %d)" a b t f
  | V_sel_le (a, b, t, f) -> Printf.sprintf "V_sel_le (%d, %d, %d, %d)" a b t f
  | V_sel_lt (a, b, t, f) -> Printf.sprintf "V_sel_lt (%d, %d, %d, %d)" a b t f
  | V_lookup (t, a, b) -> Printf.sprintf "V_lookup (%d, %d, %d)" t a b

let ints = function
  | [||] -> "[||]"
  | a -> "[| " ^ String.concat "; " (Array.to_list (Array.map string_of_int a)) ^ " |]"

let emit_key name v =
  pr "let key_%s =\n  Datapath.{\n    v_insts =\n      [|\n" name;
  Array.iter (fun i -> pr "        %s;\n" (key_inst i)) v.v_insts;
  pr "      |];\n";
  pr "    v_layer_regs = %s;\n" (ints v.v_layer_regs);
  pr "    v_tb_regs = %s;\n" (ints v.v_tb_regs);
  pr "    v_tb_shifts = %s;\n" (ints v.v_tb_shifts);
  pr "    v_n_layers = %d;\n  }\n\n" v.v_n_layers

let lookups v =
  Array.to_list v.v_insts |> List.filter_map (function V_lookup (t, _, _) -> Some t | _ -> None)

(* The packed pointer: the fields OR-ed at their shifts. *)
let pointer v =
  match
    Array.to_list
      (Array.mapi
         (fun i reg ->
           match v.v_tb_shifts.(i) with
           | 0 -> r reg
           | s -> Printf.sprintf "(%s lsl %d)" (r reg) s)
         v.v_tb_regs)
  with
  | [] -> "0"
  | fs -> String.concat " lor " fs

(* Evaluators without lookups are closed functions; the others take
   their tables first and return the closure (the [let] between the two
   keeps the compiler from merging them into one function, whose
   partial application would add a currying wrapper to every call).
   Returns the indentation of the body. *)
let open_fn ~kind ~params name v =
  match lookups v with
  | [] ->
    pr "let %s_%s %s =\n" kind name params;
    "  "
  | ts ->
    pr "let %s_%s (luts : int array array array) =\n" kind name;
    List.iter (fun t -> pr "  let t%d = luts.(%d) in\n" t t) ts;
    pr "  fun %s ->\n" params;
    "    "

let uses v p = Array.exists p v.v_insts

let emit_pe name v =
  let ind = open_fn ~kind:"pe" ~params:"(b : Pe.buffers)" name v in
  let line fmt = Printf.ksprintf (fun s -> pr "%s%s\n" ind s) fmt in
  line "Datapath.check_buffers %d b;" v.v_n_layers;
  if uses v (function V_up _ -> true | _ -> false) then line "let up = b.Pe.b_up in";
  if uses v (function V_diag _ -> true | _ -> false) then line "let diag = b.Pe.b_diag in";
  if uses v (function V_left _ -> true | _ -> false) then line "let left = b.Pe.b_left in";
  Array.iteri (fun i inst -> line "let %s = %s in" (r i) (rhs ~input:pe_input inst)) v.v_insts;
  Array.iteri (fun l reg -> line "Array.unsafe_set b.Pe.b_scores %d %s;" l (r reg)) v.v_layer_regs;
  line "b.Pe.b_tb <- %s" (pointer v);
  pr "\n"

(* The same instructions inlined into a loop over cells [lo .. hi] of
   one ring row ([Pe.row]): the bounds are checked once per call, the
   query character's elements are read once per row, and each cell
   writes its layers back into the ring and stores its pointer. *)
let emit_row name v =
  let n = v.v_n_layers in
  let ind =
    open_fn ~kind:"row" ~params:"~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi" name v
  in
  let line depth fmt =
    Printf.ksprintf (fun s -> pr "%s%s%s\n" ind (String.make (2 * depth) ' ') s) fmt
  in
  line 0 "if lo <= hi then begin";
  line 1 "Pe.check_row ~n_layers:%d ~ring ~above ~base ~reference ~lo ~hi;" n;
  let qry =
    List.sort_uniq compare
      (List.filter_map (function V_qry j -> Some j | _ -> None) (Array.to_list v.v_insts))
  in
  List.iter (fun j -> line 1 "let q%d = qry.(%d) in" j j) qry;
  line 1 "let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in";
  line 1 "for c = lo to hi do";
  line 2 "let u = above + ((c + 1) * %d) and a = base + ((c + 1) * %d) in" n n;
  if uses v (function V_ref _ -> true | _ -> false) then
    line 2 "let rf = Array.unsafe_get reference c in";
  Array.iteri (fun i inst -> line 2 "let %s = %s in" (r i) (rhs ~input:(row_input n) inst)) v.v_insts;
  Array.iteri
    (fun l reg -> line 2 "Array.unsafe_set ring %s %s;" (plus "a" l) (r reg))
    v.v_layer_regs;
  line 2 "if has_tb then Pe.store_pointer tb ~ref_len ~row ~col:c (%s)" (pointer v);
  line 1 "done";
  line 0 "end";
  pr "\n"

(* The same instructions inlined into a loop over PEs [lo .. hi] of one
   systolic wavefront ([Pe.wave]): the bounds are checked once per call,
   and each PE reads its neighbours from the previous two planes, writes
   its layers into its slot of the new plane and stores its pointer at
   its cell of the traceback plane, as a row does. *)
let emit_wave name v =
  let n = v.v_n_layers in
  let ind =
    open_fn ~kind:"wave"
      ~params:"~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi"
      name v
  in
  let line depth fmt =
    Printf.ksprintf (fun s -> pr "%s%s%s\n" ind (String.make (2 * depth) ' ') s) fmt
  in
  line 0 "if lo <= hi then begin";
  line 1 "Pe.check_wave ~n_layers:%d ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;" n;
  line 1 "let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in";
  line 1 "for p = lo to hi do";
  line 2 "let s = p * %d in" n;
  if uses v (function V_qry _ -> true | _ -> false) then
    line 2 "let q = Array.unsafe_get query (row0 + p) in";
  if uses v (function V_ref _ -> true | _ -> false) then
    line 2 "let rf = Array.unsafe_get reference (wavefront - p) in";
  Array.iteri (fun i inst -> line 2 "let %s = %s in" (r i) (rhs ~input:(wave_input n) inst)) v.v_insts;
  Array.iteri
    (fun l reg -> line 2 "Array.unsafe_set w_new %s %s;" (plus "s" (n + l)) (r reg))
    v.v_layer_regs;
  line 2 "if has_tb then Pe.store_pointer tb ~ref_len ~row:(row0 + p) ~col:(wavefront - p) (%s)"
    (pointer v);
  line 1 "done";
  line 0 "end";
  pr "\n"

let () =
  (* distinct programs in catalog order, each with the kernels that
     compile to it *)
  let groups =
    List.fold_left
      (fun groups (e : Catalog.entry) ->
        let cell, bindings = Registry.datapath e.packed in
        let v = view (compile cell bindings) in
        let k = (Registry.id e.packed, Registry.name e.packed) in
        if List.mem_assoc v groups then
          List.map (fun (v', ks) -> if v' = v then (v', ks @ [ k ]) else (v', ks)) groups
        else groups @ [ (v, [ k ]) ])
      [] Catalog.all
  in
  pr
    "(* Generated by lib/kernels/gen/gen_pe.exe from the kernel catalog's\n\
    \   datapaths at their default parameters; do not edit. `dune runtest`\n\
    \   diffs this file against a fresh generation and\n\
    \   `dune build @runtest --auto-promote` rewrites it.\n\n\
    \   Per distinct compiled program, one straight-line PE evaluator,\n\
    \   one row loop over the golden engine's ring and one wave loop over\n\
    \   the systolic array's wavefront planes: each instruction of the\n\
    \   program's view is one let-binding, computed as Datapath.exec\n\
    \   computes it. The row reads every cell's neighbours straight from\n\
    \   the ring, whose bounds it checks once per call (Pe.check_row); the\n\
    \   wave reads them straight from the planes (Pe.check_wave). *)\n\n";
  let named =
    List.map
      (fun (v, ks) -> (Printf.sprintf "k%02d" (fst (List.hd ks)), v, ks))
      groups
  in
  List.iter
    (fun (name, v, ks) ->
      pr "(* %s: %d instructions *)\n"
        (String.concat ", " (List.map (fun (id, n) -> Printf.sprintf "#%d %s" id n) ks))
        (Array.length v.v_insts);
      emit_key name v;
      emit_pe name v;
      emit_row name v)
    named;
  (* the waves follow every PE and row: interleaved with them, they
     moved the golden engine's row loops in the binary, which cost
     batch-golden 4-8% on a 2-vCPU VM *)
  List.iter (fun (name, v, _) -> emit_wave name v) named;
  pr "let table =\n  [|\n";
  List.iter
    (fun (name, v, _) ->
      match lookups v with
      | [] ->
        pr "    (key_%s, (fun _ -> pe_%s), (fun _ -> row_%s), fun _ -> wave_%s);\n" name name
          name name
      | _ -> pr "    (key_%s, pe_%s, row_%s, wave_%s);\n" name name name name)
    named;
  pr "  |]\n\n";
  pr
    "let entry p =\n\
    \  let v = Datapath.view p in\n\
    \  Array.find_opt (fun (key, _, _, _) -> key = v) table\n\n\
     let find p = Option.map (fun (_, pe, _, _) -> pe (Datapath.luts p)) (entry p)\n\n\
     let find_row p = Option.map (fun (_, _, row, _) -> row (Datapath.luts p)) (entry p)\n\n\
     let find_wave p = Option.map (fun (_, _, _, wave) -> wave (Datapath.luts p)) (entry p)\n"
