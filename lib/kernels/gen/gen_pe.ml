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
   ([Datapath.sat_add], or its one-operand form
   [Datapath.sat_add_finite] where the other operand's static range, a
   literal or a select of literals, is finite), [Score.mul]/[Score.abs],
   left-fold 3-way max/min, selects over two already-computed arms, and
   bounds-checked character and table reads. The PE makes the same
   [Datapath.check_buffers] on entry. The row checks the ring
   ([Pe.check_row]) and the traceback plane ([Pe.check_plane]) once
   per call, carries each left and diag layer it reads from the cell
   before instead of re-reading the ring, and stores pointers unchecked
   ([Pe.set_pointer]), keeping the per-cell 16-bit range check
   ([Pe.check_pointer]) only where the pointer's fields are not
   provably within 16 bits. The wave checks its planes, rows and
   columns ([Pe.check_wave]) and the traceback plane once per call and
   stores its pointers the same way.

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

(* The static range of each register, where the generator can bound it:
   a literal, or a select between bounded registers. *)
let ranges v =
  let rg = Array.make (Array.length v.v_insts) None in
  let join a b =
    match (rg.(a), rg.(b)) with
    | Some (l1, h1), Some (l2, h2) -> Some (min l1 l2, max h1 h2)
    | _ -> None
  in
  Array.iteri
    (fun i inst ->
      rg.(i) <-
        (match inst with
        | V_const c -> Some (c, c)
        | V_sel_eq (_, _, t, f) | V_sel_le (_, _, t, f) | V_sel_lt (_, _, t, f) -> join t f
        | _ -> None))
    v.v_insts;
  rg

(* A range strictly inside both infinity half-bands: [Datapath.sat_add_finite]'s
   precondition on its second operand. *)
let finite = function
  | Some (lo, hi) ->
    lo > Dphls_util.Score.neg_inf / 2 && hi < Dphls_util.Score.pos_inf / 2
  | None -> false

(* the range of [-x]; [-min_int] wraps, so no range holding it *)
let neg = function Some (lo, hi) when lo > min_int -> Some (-hi, -lo) | _ -> None

(* [sat_add x y] on rendered operands with their ranges: the
   one-operand form when [y] (or else [x], the sum being symmetric) is
   finite *)
let add (x, rx) (y, ry) =
  if finite ry then Printf.sprintf "Datapath.sat_add_finite %s %s" x y
  else if finite rx then Printf.sprintf "Datapath.sat_add_finite %s %s" y x
  else Printf.sprintf "Datapath.sat_add %s %s" x y

(* [input] renders the five reads of cell state (V_up, V_diag, V_left,
   V_qry, V_ref): the PE reads its register file, a row the ring *)
let rhs ~rg ~input =
  let reg a = (r a, rg.(a)) and negated a = (Printf.sprintf "(-%s)" (r a), neg rg.(a)) in
  function
  | V_const c -> lit c
  | (V_up _ | V_diag _ | V_left _ | V_qry _ | V_ref _) as i -> input i
  | V_add (a, b) -> add (reg a) (reg b)
  | V_addi (a, c) -> add (reg a) (lit c, Some (c, c))
  | V_sub (a, b) -> add (reg a) (negated b)
  | V_mul (a, b) -> Printf.sprintf "Dphls_util.Score.mul %s %s" (r a) (r b)
  | V_abs a -> Printf.sprintf "Dphls_util.Score.abs %s" (r a)
  | V_absdiff (a, b) -> Printf.sprintf "Dphls_util.Score.abs (%s)" (add (reg a) (negated b))
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

(* In a row, [u] is the ring offset of the cell above; left and diag
   are the locals the row carries from the cell before. *)
let row_input = function
  | V_up l -> Printf.sprintf "Array.unsafe_get ring %s" (plus "u" l)
  | V_diag l -> Printf.sprintf "!diag%d" l
  | V_left l -> Printf.sprintf "!left%d" l
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

(* Whether the packed pointer provably fits the plane's 16 bits: every
   field bounded, non-negative and below 2^16 at its shift. *)
let pointer_fits v rg =
  Array.for_all2
    (fun reg shift ->
      match rg.(reg) with
      | Some (lo, hi) -> lo >= 0 && shift < 16 && hi <= 0xFFFF lsr shift
      | None -> false)
    v.v_tb_regs v.v_tb_shifts

(* The pointer store of a row or wave, at plane word [word]: unchecked
   when the pointer provably fits, else after the 16-bit range check
   naming the cell. *)
let store_pointer ~line ~depth ~fits ~row ~col ~word v =
  if fits then
    line depth (Printf.sprintf "if has_tb then Pe.set_pointer tb %s (%s)" word (pointer v))
  else begin
    line depth "if has_tb then begin";
    line (depth + 1) (Printf.sprintf "let ptr = %s in" (pointer v));
    line (depth + 1) (Printf.sprintf "Pe.check_pointer ~row:%s ~col:%s ptr;" row col);
    line (depth + 1) (Printf.sprintf "Pe.set_pointer tb %s ptr" word);
    line depth "end"
  end

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
  let rg = ranges v in
  Array.iteri (fun i inst -> line "let %s = %s in" (r i) (rhs ~rg ~input:pe_input inst)) v.v_insts;
  Array.iteri (fun l reg -> line "Array.unsafe_set b.Pe.b_scores %d %s;" l (r reg)) v.v_layer_regs;
  line "b.Pe.b_tb <- %s" (pointer v);
  pr "\n"

let layers_read v p = List.sort_uniq compare (List.filter_map p (Array.to_list v.v_insts))

(* The same instructions inlined into a loop over cells [lo .. hi] of
   one ring row ([Pe.row]). Once per call: the ring bounds
   ([Pe.check_row]), the plane bound ([Pe.check_plane]) and the query
   character's elements. Each left and diag layer the program reads is
   a local carried from the cell before, starting from column [lo - 1]:
   left from the cell's outputs, diag from its up reads (an extra ring
   read where the program reads a layer's diag but not its up). Each
   cell writes its layers back into the ring and stores its pointer. *)
let emit_row name v =
  let n = v.v_n_layers and rg = ranges v in
  let ind =
    open_fn ~kind:"row" ~params:"~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi" name v
  in
  let line depth fmt =
    Printf.ksprintf (fun s -> pr "%s%s%s\n" ind (String.make (2 * depth) ' ') s) fmt
  in
  let lefts = layers_read v (function V_left l -> Some l | _ -> None)
  and diags = layers_read v (function V_diag l -> Some l | _ -> None) in
  (* the register of layer [l]'s up read, or a fresh read of it *)
  let up l =
    match Array.find_index (( = ) (V_up l)) v.v_insts with
    | Some i -> r i
    | None -> row_input (V_up l)
  in
  line 0 "if lo <= hi then begin";
  line 1 "Pe.check_row ~n_layers:%d ~ring ~above ~base ~reference ~lo ~hi;" n;
  List.iter (fun j -> line 1 "let q%d = qry.(%d) in" j j)
    (layers_read v (function V_qry j -> Some j | _ -> None));
  line 1 "let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in";
  line 1 "if has_tb then Pe.check_plane tb ~ref_len ~row ~col:hi;";
  line 1 "let at = row * ref_len in";
  (* layer [l] of column [lo - 1] in the ring row at [row_off] *)
  let before_lo row_off l =
    Printf.sprintf "(%s + (lo * %d)%s)" row_off n (if l = 0 then "" else Printf.sprintf " + %d" l)
  in
  List.iter
    (fun l -> line 1 "let left%d = ref (Array.unsafe_get ring %s) in" l (before_lo "base" l))
    lefts;
  List.iter
    (fun l -> line 1 "let diag%d = ref (Array.unsafe_get ring %s) in" l (before_lo "above" l))
    diags;
  line 1 "for c = lo to hi do";
  if diags <> [] || uses v (function V_up _ -> true | _ -> false) then
    line 2 "let u = above + ((c + 1) * %d) in" n;
  line 2 "let a = base + ((c + 1) * %d) in" n;
  if uses v (function V_ref _ -> true | _ -> false) then
    line 2 "let rf = Array.unsafe_get reference c in";
  Array.iteri
    (fun i inst -> line 2 "let %s = %s in" (r i) (rhs ~rg ~input:row_input inst))
    v.v_insts;
  Array.iteri
    (fun l reg -> line 2 "Array.unsafe_set ring %s %s;" (plus "a" l) (r reg))
    v.v_layer_regs;
  List.iter (fun l -> line 2 "left%d := %s;" l (r v.v_layer_regs.(l))) lefts;
  List.iter (fun l -> line 2 "diag%d := %s;" l (up l)) diags;
  store_pointer ~line:(fun d s -> line d "%s" s) ~depth:2 ~fits:(pointer_fits v rg) ~row:"row"
    ~col:"c" ~word:"(at + c)" v;
  line 1 "done";
  line 0 "end";
  pr "\n"

(* The same instructions inlined into a loop over PEs [lo .. hi] of one
   systolic wavefront ([Pe.wave]): the plane, row, column and traceback
   bounds are checked once per call ([Pe.check_wave], [Pe.check_plane]
   on PE [hi]'s cell, the last in the plane), and each PE reads its
   neighbours from the previous two planes, writes its layers into its
   slot of the new plane and stores its pointer at its cell of the
   traceback plane, as a row does. *)
let emit_wave name v =
  let n = v.v_n_layers and rg = ranges v in
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
  line 1 "if has_tb then Pe.check_plane tb ~ref_len ~row:(row0 + hi) ~col:(wavefront - hi);";
  (* PE [p]'s cell is plane word [at + p * (ref_len - 1)] *)
  line 1 "let at = (row0 * ref_len) + wavefront and step = ref_len - 1 in";
  line 1 "for p = lo to hi do";
  line 2 "let s = p * %d in" n;
  if uses v (function V_qry _ -> true | _ -> false) then
    line 2 "let q = Array.unsafe_get query (row0 + p) in";
  if uses v (function V_ref _ -> true | _ -> false) then
    line 2 "let rf = Array.unsafe_get reference (wavefront - p) in";
  Array.iteri
    (fun i inst -> line 2 "let %s = %s in" (r i) (rhs ~rg ~input:(wave_input n) inst))
    v.v_insts;
  Array.iteri
    (fun l reg -> line 2 "Array.unsafe_set w_new %s %s;" (plus "s" (n + l)) (r reg))
    v.v_layer_regs;
  store_pointer ~line:(fun d s -> line d "%s" s) ~depth:2 ~fits:(pointer_fits v rg)
    ~row:"(row0 + p)" ~col:"(wavefront - p)" ~word:"(at + (p * step))" v;
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
    \   computes it. The row reads up from the ring and carries left and\n\
    \   diag over from the cell before; the wave reads its neighbours\n\
    \   straight from the planes. Both check their bounds and the\n\
    \   traceback plane's once per call (Pe.check_row or Pe.check_wave,\n\
    \   then Pe.check_plane) and store pointers unchecked where the\n\
    \   generator proves they fit 16 bits. *)\n\n";
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
