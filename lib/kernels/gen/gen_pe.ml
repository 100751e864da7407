(* Prints lib/core/pe_gen.ml: one straight-line OCaml evaluator per
   distinct compiled datapath of the kernel catalog at its default
   parameters, and the table [Kernel.flat_pe] looks programs up in.

   The key of each entry is the program's decoded view (every
   instruction with its immediates, the layer and pointer registers and
   the pointer shifts), never its lookup tables: those are passed to the
   evaluator when it is built. Each instruction becomes one let-binding
   that does what [Datapath.exec] does for it: the same saturating add
   ([Datapath.sat_add]), [Score.mul]/[Score.abs], left-fold 3-way
   max/min, selects over two already-computed arms, bounds-checked
   character and table reads, and the same [Datapath.check_buffers] on
   entry.

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

let rhs = function
  | V_const c -> lit c
  | V_up l -> Printf.sprintf "Array.unsafe_get up %d" l
  | V_diag l -> Printf.sprintf "Array.unsafe_get diag %d" l
  | V_left l -> Printf.sprintf "Array.unsafe_get left %d" l
  | V_qry j -> Printf.sprintf "b.Pe.b_qry.(%d)" j
  | V_ref j -> Printf.sprintf "b.Pe.b_rf.(%d)" j
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

(* Evaluators without lookups are closed one-argument functions; the
   others take their tables first and return the per-cell closure (the
   [let] between the two keeps the compiler from merging them into one
   two-argument function, whose partial application would add a
   currying wrapper to every cell's call). *)
let emit_pe name v =
  let uses p = Array.exists p v.v_insts in
  let ind =
    match lookups v with
    | [] ->
      pr "let pe_%s (b : Pe.buffers) =\n" name;
      "  "
    | ts ->
      pr "let pe_%s (luts : int array array array) =\n" name;
      List.iter (fun t -> pr "  let t%d = luts.(%d) in\n" t t) ts;
      pr "  fun (b : Pe.buffers) ->\n";
      "    "
  in
  let line fmt = Printf.ksprintf (fun s -> pr "%s%s\n" ind s) fmt in
  line "Datapath.check_buffers %d b;" v.v_n_layers;
  if uses (function V_up _ -> true | _ -> false) then line "let up = b.Pe.b_up in";
  if uses (function V_diag _ -> true | _ -> false) then line "let diag = b.Pe.b_diag in";
  if uses (function V_left _ -> true | _ -> false) then line "let left = b.Pe.b_left in";
  Array.iteri (fun i inst -> line "let %s = %s in" (r i) (rhs inst)) v.v_insts;
  Array.iteri (fun l reg -> line "Array.unsafe_set b.Pe.b_scores %d %s;" l (r reg)) v.v_layer_regs;
  let fields =
    Array.to_list
      (Array.mapi
         (fun i reg ->
           match v.v_tb_shifts.(i) with
           | 0 -> r reg
           | s -> Printf.sprintf "(%s lsl %d)" (r reg) s)
         v.v_tb_regs)
  in
  line "b.Pe.b_tb <- %s" (match fields with [] -> "0" | fs -> String.concat " lor " fs);
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
    \   One straight-line evaluator per distinct compiled program: each\n\
    \   instruction of the program's view is one let-binding, computed as\n\
    \   Datapath.exec computes it. *)\n\n";
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
      emit_pe name v)
    named;
  pr "let table =\n  [|\n";
  List.iter
    (fun (name, v, _) ->
      match lookups v with
      | [] -> pr "    (key_%s, fun _ -> pe_%s);\n" name name
      | _ -> pr "    (key_%s, pe_%s);\n" name name)
    named;
  pr "  |]\n\n";
  pr
    "let find p =\n\
    \  let v = Datapath.view p in\n\
    \  let rec go i =\n\
    \    if i = Array.length table then None\n\
    \    else\n\
    \      let key, make = table.(i) in\n\
    \      if key = v then Some (make (Datapath.luts p)) else go (i + 1)\n\
    \  in\n\
    \  go 0\n"
