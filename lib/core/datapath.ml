module Score = Dphls_util.Score

type cond =
  | Eq of expr * expr
  | Le of expr * expr
  | Lt of expr * expr

and expr =
  | Const of int
  | Param of string
  | Up of int
  | Diag of int
  | Left of int
  | Qry of int
  | Ref of int
  | Cur of int
  | Nbr of int * int * int
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Abs of expr
  | Max of expr list
  | Min of expr list
  | Ite of cond * expr * expr
  | Lookup2 of string * expr * expr

type tb_field = { bits : int; value : expr }

type cell = { layers : expr array; tb_fields : tb_field list }

type bindings = {
  params : (string * int) list;
  tables : (string * int array array) list;
}

(* Layer-0-last evaluation order (see the interface). *)
let eval_order n_layers =
  List.init (n_layers - 1) (fun i -> i + 1) @ [ 0 ]

(* The wavefront schedule's legality contract: the only cross-cell
   offsets the engines' double-buffered score planes can serve. *)
let wavefront_stencil = [ (1, 1); (1, 0); (0, 1) ]

let out_of_stencil_msg what drow dcol =
  Printf.sprintf
    "Datapath.%s: Nbr (%d, %d) is outside the wavefront stencil \
     {NW=(1,1), N=(1,0), W=(0,1)} — the anti-diagonal schedule \
     double-buffers only the previous two wavefronts, so this read \
     cannot be served (dphls check reports it as depend-out-of-stencil)"
    what drow dcol

type dep =
  | Dep_nbr of { drow : int; dcol : int; layer : int }
  | Dep_cur of int

let expr_deps e =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add d =
    if not (Hashtbl.mem seen d) then begin
      Hashtbl.add seen d ();
      out := d :: !out
    end
  in
  let rec walk = function
    | Const _ | Param _ | Qry _ | Ref _ -> ()
    | Up l -> add (Dep_nbr { drow = 1; dcol = 0; layer = l })
    | Diag l -> add (Dep_nbr { drow = 1; dcol = 1; layer = l })
    | Left l -> add (Dep_nbr { drow = 0; dcol = 1; layer = l })
    | Nbr (drow, dcol, l) -> add (Dep_nbr { drow; dcol; layer = l })
    | Cur l -> add (Dep_cur l)
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Lookup2 (_, a, b) ->
      walk a;
      walk b
    | Abs a -> walk a
    | Max es | Min es -> List.iter walk es
    | Ite (c, t, f) ->
      (match c with
      | Eq (a, b) | Le (a, b) | Lt (a, b) ->
        walk a;
        walk b);
      walk t;
      walk f
  in
  walk e;
  List.rev !out

let eval cell bindings =
  let param name =
    match List.assoc_opt name bindings.params with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Datapath.eval: unbound param %s" name)
  in
  let table name =
    match List.assoc_opt name bindings.tables with
    | Some t -> t
    | None -> invalid_arg (Printf.sprintf "Datapath.eval: unbound table %s" name)
  in
  let n_layers = Array.length cell.layers in
  fun (input : Pe.input) ->
    let cur = Array.make n_layers Score.neg_inf in
    let cur_done = Array.make n_layers false in
    let rec ev = function
      | Const c -> c
      | Param name -> param name
      | Up l -> input.Pe.up.(l)
      | Diag l -> input.Pe.diag.(l)
      | Left l -> input.Pe.left.(l)
      | Qry i -> input.Pe.qry.(i)
      | Ref i -> input.Pe.rf.(i)
      | Cur l ->
        if not cur_done.(l) then invalid_arg "Datapath.eval: Cur before definition";
        cur.(l)
      | Nbr (drow, dcol, l) -> (
        match (drow, dcol) with
        | 1, 1 -> input.Pe.diag.(l)
        | 1, 0 -> input.Pe.up.(l)
        | 0, 1 -> input.Pe.left.(l)
        | _ -> invalid_arg (out_of_stencil_msg "eval" drow dcol))
      | Add (a, b) -> Score.add (ev a) (ev b)
      | Sub (a, b) -> Score.add (ev a) (-ev b)
      | Mul (a, b) -> Score.mul (ev a) (ev b)
      | Abs a -> Score.abs (ev a)
      | Max es -> (
        match es with
        | [] -> invalid_arg "Datapath.eval: empty Max"
        | first :: rest -> List.fold_left (fun acc e -> Score.max2 acc (ev e)) (ev first) rest)
      | Min es -> (
        match es with
        | [] -> invalid_arg "Datapath.eval: empty Min"
        | first :: rest -> List.fold_left (fun acc e -> Score.min2 acc (ev e)) (ev first) rest)
      | Ite (c, t, f) -> if ev_cond c then ev t else ev f
      | Lookup2 (name, a, b) -> (table name).(ev a).(ev b)
    and ev_cond = function
      | Eq (a, b) -> ev a = ev b
      | Le (a, b) -> ev a <= ev b
      | Lt (a, b) -> ev a < ev b
    in
    List.iter
      (fun l ->
        cur.(l) <- ev cell.layers.(l);
        cur_done.(l) <- true)
      (eval_order n_layers);
    let tb, _ =
      List.fold_left
        (fun (acc, shift) f -> (acc lor (ev f.value lsl shift), shift + f.bits))
        (0, 0) cell.tb_fields
    in
    { Pe.scores = Array.copy cur; tb }

(* ---- compilation to a flat, closure-free evaluator ----

   The expression tree is lowered once per engine run into a linear SSA
   program over an integer register file: every unique node becomes one
   instruction (the same structural sharing [count] models), parameters
   and tables are resolved at compile time, [Cur l] disappears entirely
   (it is the register of the already-evaluated layer [l]), and constant
   subtrees are folded with the very same saturating runtime ops. Both
   arms of an [Ite] are evaluated eagerly (a hardware mux); this is safe
   because expressions are pure — when the condition itself is constant,
   only the taken arm is compiled, so the interpreter's laziness is
   preserved where it is observable. *)

type inst =
  | I_const of int
  | I_up of int
  | I_diag of int
  | I_left of int
  | I_qry of int
  | I_ref of int
  | I_add of int * int
  | I_addi of int * int  (* reg + immediate: fused gap-penalty adds *)
  | I_sub of int * int
  | I_mul of int * int
  | I_abs of int
  | I_absdiff of int * int  (* |a - b|: the DTW distance primitive *)
  | I_max of int * int
  | I_min of int * int
  | I_max3 of int * int * int  (* 3-way comparator trees, left-fold order *)
  | I_min3 of int * int * int
  | I_sel_eq of int * int * int * int
  | I_sel_le of int * int * int * int
  | I_sel_lt of int * int * int * int
  | I_lookup of int array array * int * int

(* Assembled opcodes: the [inst] variant above is the compilation IR
   (hashable for CSE, pattern-matchable for DCE); what [exec] runs is a
   flat integer code array — 5 slots per instruction [op; a; b; c; d] —
   so the per-cell loop never chases a per-instruction heap block. *)
let op_const = 0
and op_up = 1
and op_diag = 2
and op_left = 3
and op_qry = 4
and op_ref = 5
and op_add = 6
and op_addi = 7
and op_sub = 8
and op_mul = 9
and op_abs = 10
and op_absdiff = 11
and op_max = 12
and op_min = 13
and op_max3 = 14
and op_min3 = 15
and op_sel_eq = 16
and op_sel_le = 17
and op_sel_lt = 18
and op_lookup = 19

type program = {
  code : int array;         (* [op; a; b; c; d] x n_insts *)
  luts : int array array array;  (* lookup tables, indexed by operand [a] *)
  n_insts : int;
  layer_regs : int array;   (* register holding each layer's result *)
  tb_regs : int array;      (* register per pointer field, LSB-first *)
  tb_shifts : int array;
  n_layers : int;
}

let assemble insts =
  let n = Array.length insts in
  let code = Array.make (n * 5) 0 in
  let luts = ref [] in
  let n_luts = ref 0 in
  let lut t =
    let id = !n_luts in
    luts := t :: !luts;
    incr n_luts;
    id
  in
  Array.iteri
    (fun i inst ->
      let base = i * 5 in
      let put op a b c d =
        code.(base) <- op;
        code.(base + 1) <- a;
        code.(base + 2) <- b;
        code.(base + 3) <- c;
        code.(base + 4) <- d
      in
      match inst with
      | I_const c -> put op_const c 0 0 0
      | I_up l -> put op_up l 0 0 0
      | I_diag l -> put op_diag l 0 0 0
      | I_left l -> put op_left l 0 0 0
      | I_qry j -> put op_qry j 0 0 0
      | I_ref j -> put op_ref j 0 0 0
      | I_add (a, b) -> put op_add a b 0 0
      | I_addi (a, c) -> put op_addi a c 0 0
      | I_sub (a, b) -> put op_sub a b 0 0
      | I_mul (a, b) -> put op_mul a b 0 0
      | I_abs a -> put op_abs a 0 0 0
      | I_absdiff (a, b) -> put op_absdiff a b 0 0
      | I_max (a, b) -> put op_max a b 0 0
      | I_min (a, b) -> put op_min a b 0 0
      | I_max3 (a, b, c) -> put op_max3 a b c 0
      | I_min3 (a, b, c) -> put op_min3 a b c 0
      | I_sel_eq (a, b, t, f) -> put op_sel_eq a b t f
      | I_sel_le (a, b, t, f) -> put op_sel_le a b t f
      | I_sel_lt (a, b, t, f) -> put op_sel_lt a b t f
      | I_lookup (t, a, b) -> put op_lookup (lut t) a b 0)
    insts;
  (code, Array.of_list (List.rev !luts), n)

let compile cell bindings =
  let param name =
    match List.assoc_opt name bindings.params with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Datapath.compile: unbound param %s" name)
  in
  let table name =
    match List.assoc_opt name bindings.tables with
    | Some t -> t
    | None -> invalid_arg (Printf.sprintf "Datapath.compile: unbound table %s" name)
  in
  let n_layers = Array.length cell.layers in
  let rev_insts = ref [] in
  let next = ref 0 in
  let memo : (inst, int) Hashtbl.t = Hashtbl.create 64 in
  let consts : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let emit inst =
    match Hashtbl.find_opt memo inst with
    | Some r -> r
    | None ->
      let r = !next in
      incr next;
      rev_insts := inst :: !rev_insts;
      Hashtbl.add memo inst r;
      r
  in
  let const_of r = Hashtbl.find_opt consts r in
  let emit_const c =
    let r = emit (I_const c) in
    Hashtbl.replace consts r c;
    r
  in
  let layer_regs = Array.make n_layers (-1) in
  (* range-checked here so [exec] can read neighbour layers unchecked *)
  let check_layer what l =
    if l < 0 || l >= n_layers then
      invalid_arg
        (Printf.sprintf "Datapath.compile: %s layer %d out of range" what l)
    else l
  in
  let rec ev e =
    match e with
    | Const c -> emit_const c
    | Param name -> emit_const (param name)
    | Up l -> emit (I_up (check_layer "Up" l))
    | Diag l -> emit (I_diag (check_layer "Diag" l))
    | Left l -> emit (I_left (check_layer "Left" l))
    | Qry i -> emit (I_qry i)
    | Ref i -> emit (I_ref i)
    | Cur l ->
      if l < 0 || l >= n_layers || layer_regs.(l) < 0 then
        invalid_arg "Datapath.compile: Cur before definition";
      layer_regs.(l)
    | Nbr (drow, dcol, l) -> (
      match (drow, dcol) with
      | 1, 1 -> emit (I_diag (check_layer "Nbr" l))
      | 1, 0 -> emit (I_up (check_layer "Nbr" l))
      | 0, 1 -> emit (I_left (check_layer "Nbr" l))
      | _ -> invalid_arg (out_of_stencil_msg "compile" drow dcol))
    | Add (a, b) -> (
      let ra = ev a and rb = ev b in
      match (const_of ra, const_of rb) with
      | Some x, Some y -> emit_const (Score.add x y)
      | None, Some y -> emit (I_addi (ra, y))
      | Some x, None -> emit (I_addi (rb, x))
      | None, None -> emit (I_add (ra, rb)))
    | Sub (a, b) -> (
      let ra = ev a and rb = ev b in
      match (const_of ra, const_of rb) with
      | Some x, Some y -> emit_const (Score.add x (-y))
      | None, Some y -> emit (I_addi (ra, -y))
      | Some _, None | None, None -> emit (I_sub (ra, rb)))
    | Mul (a, b) -> bin Score.mul (fun x y -> I_mul (x, y)) a b
    | Abs (Sub (x, y)) -> (
      (* |x - y| fuses into one instruction (the DTW cost primitive);
         bit-identical to the interpreter's Abs-of-Sub composition *)
      let rx = ev x and ry = ev y in
      match (const_of rx, const_of ry) with
      | Some a, Some b -> emit_const (Score.abs (Score.add a (-b)))
      | Some _, None | None, Some _ ->
        (* one constant side: lower as the plain composition so the
           Add/Sub immediate fusion still applies *)
        let r =
          match const_of ry with
          | Some b -> emit (I_addi (rx, -b))
          | None -> emit (I_sub (rx, ry))
        in
        emit (I_abs r)
      | None, None -> emit (I_absdiff (rx, ry)))
    | Abs a -> (
      let r = ev a in
      match const_of r with
      | Some x -> emit_const (Score.abs x)
      | None -> emit (I_abs r))
    | Max es -> reduce Score.max2 (fun x y -> I_max (x, y))
        (fun a b c -> I_max3 (a, b, c)) "Max" es
    | Min es -> reduce Score.min2 (fun x y -> I_min (x, y))
        (fun a b c -> I_min3 (a, b, c)) "Min" es
    | Ite (c, t, f) -> (
      let op, a, b =
        match c with Eq (a, b) -> (0, a, b) | Le (a, b) -> (1, a, b) | Lt (a, b) -> (2, a, b)
      in
      let ra = ev a and rb = ev b in
      match (const_of ra, const_of rb) with
      | Some x, Some y ->
        (* constant condition: compile only the arm the interpreter would
           evaluate, keeping its laziness observable behaviour *)
        let taken = match op with 0 -> x = y | 1 -> x <= y | _ -> x < y in
        ev (if taken then t else f)
      | _ -> (
        let rt = ev t and rf = ev f in
        if rt = rf then rt
        else
          match op with
          | 0 -> emit (I_sel_eq (ra, rb, rt, rf))
          | 1 -> emit (I_sel_le (ra, rb, rt, rf))
          | _ -> emit (I_sel_lt (ra, rb, rt, rf))))
    | Lookup2 (name, a, b) ->
      let t = table name in
      let ra = ev a and rb = ev b in
      emit (I_lookup (t, ra, rb))
  and bin fold mk a b =
    let ra = ev a and rb = ev b in
    match (const_of ra, const_of rb) with
    | Some x, Some y -> emit_const (fold x y)
    | _ -> emit (mk ra rb)
  and reduce fold mk mk3 what es =
    (* left fold over binary ops, matching the interpreter's fold order;
       an all-register 3-way reduction fuses into one comparator-tree
       instruction (same left-fold association, so bit-identical) *)
    match es with
    | [] -> invalid_arg (Printf.sprintf "Datapath.compile: empty %s" what)
    | first :: rest -> (
      let r0 = ev first in
      let rs = List.map ev rest in
      match rs with
      | [ rb; rc ]
        when const_of r0 = None && const_of rb = None && const_of rc = None ->
        emit (mk3 r0 rb rc)
      | _ ->
        List.fold_left
          (fun acc r ->
            match (const_of acc, const_of r) with
            | Some x, Some y -> emit_const (fold x y)
            | _ -> emit (mk acc r))
          r0 rs)
  in
  List.iter (fun l -> layer_regs.(l) <- ev cell.layers.(l)) (eval_order n_layers);
  let n_fields = List.length cell.tb_fields in
  let tb_regs = Array.make n_fields 0 in
  let tb_shifts = Array.make n_fields 0 in
  let shift = ref 0 in
  List.iteri
    (fun i f ->
      tb_regs.(i) <- ev f.value;
      tb_shifts.(i) <- !shift;
      shift := !shift + f.bits)
    cell.tb_fields;
  (* Dead-code sweep: folding leaves its constant operands (and untaken
     constant-[Ite] arms) behind as unreferenced instructions; drop them
     and renumber. Instructions are in SSA order (operands precede
     results), so a stable renumbering preserves execution order. *)
  let insts = Array.of_list (List.rev !rev_insts) in
  let n = Array.length insts in
  let live = Array.make n false in
  let rec mark r =
    if not live.(r) then begin
      live.(r) <- true;
      match insts.(r) with
      | I_const _ | I_up _ | I_diag _ | I_left _ | I_qry _ | I_ref _ -> ()
      | I_add (a, b) | I_sub (a, b) | I_mul (a, b) | I_max (a, b) | I_min (a, b)
      | I_absdiff (a, b) ->
        mark a; mark b
      | I_addi (a, _) | I_abs a -> mark a
      | I_max3 (a, b, c) | I_min3 (a, b, c) -> mark a; mark b; mark c
      | I_sel_eq (a, b, t, f) | I_sel_le (a, b, t, f) | I_sel_lt (a, b, t, f) ->
        mark a; mark b; mark t; mark f
      | I_lookup (_, a, b) -> mark a; mark b
    end
  in
  Array.iter mark layer_regs;
  Array.iter mark tb_regs;
  let map = Array.make n (-1) in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if live.(i) then begin
      map.(i) <- !kept;
      incr kept
    end
  done;
  let out = Array.make !kept (I_const 0) in
  for i = 0 to n - 1 do
    if live.(i) then
      out.(map.(i)) <-
        (match insts.(i) with
        | (I_const _ | I_up _ | I_diag _ | I_left _ | I_qry _ | I_ref _) as leaf ->
          leaf
        | I_add (a, b) -> I_add (map.(a), map.(b))
        | I_addi (a, c) -> I_addi (map.(a), c)
        | I_sub (a, b) -> I_sub (map.(a), map.(b))
        | I_mul (a, b) -> I_mul (map.(a), map.(b))
        | I_abs a -> I_abs map.(a)
        | I_absdiff (a, b) -> I_absdiff (map.(a), map.(b))
        | I_max (a, b) -> I_max (map.(a), map.(b))
        | I_min (a, b) -> I_min (map.(a), map.(b))
        | I_max3 (a, b, c) -> I_max3 (map.(a), map.(b), map.(c))
        | I_min3 (a, b, c) -> I_min3 (map.(a), map.(b), map.(c))
        | I_sel_eq (a, b, t, f) -> I_sel_eq (map.(a), map.(b), map.(t), map.(f))
        | I_sel_le (a, b, t, f) -> I_sel_le (map.(a), map.(b), map.(t), map.(f))
        | I_sel_lt (a, b, t, f) -> I_sel_lt (map.(a), map.(b), map.(t), map.(f))
        | I_lookup (t, a, b) -> I_lookup (t, map.(a), map.(b)))
  done;
  let code, luts, n_insts = assemble out in
  {
    code;
    luts;
    n_insts;
    layer_regs = Array.map (fun r -> map.(r)) layer_regs;
    tb_regs = Array.map (fun r -> map.(r)) tb_regs;
    tb_shifts;
    n_layers;
  }

let program_insts p = p.n_insts

(* [Score.add] restated as a macro-style inline: additions dominate
   compiled programs and the compiler (no flambda) will not reliably
   inline the call; the eval-vs-compiled differential suite pins the two
   implementations together. The generated evaluators ([Pe_gen]) call
   this one too.

   The fast path is one test: [x + 2^58] lies in [0, 2^59) (no high
   bit set, overflow included) exactly when [x] lies in
   [-2^58, 2^58). Two such operands are far from the infinity
   half-bands ([Score.neg_inf / 2] is -2^59, [Score.pos_inf / 2] is
   2^59 - 1) and their sum cannot reach a sentinel, so [Score.add] is
   [a + b] for them. Every other input takes [Score.add]'s branches. *)
let fast_bias = 1 lsl 58

let[@inline always] sat_add a b =
  if ((a + fast_bias) lor (b + fast_bias)) lsr 59 = 0 then a + b
  else if a <= Score.neg_inf / 2 || b <= Score.neg_inf / 2 then Score.neg_inf
  else if a >= Score.pos_inf / 2 || b >= Score.pos_inf / 2 then Score.pos_inf
  else
    let s = a + b in
    if s < Score.neg_inf then Score.neg_inf
    else if s > Score.pos_inf then Score.pos_inf
    else s

(* With [k] finite (strictly inside both half-bands) only [a] can be
   infinite, and a finite [a] sums with [k] to strictly inside
   (neg_inf, pos_inf): no clamp is needed. *)
let[@inline always] sat_add_finite a k =
  if (a + fast_bias) lsr 59 = 0 then a + k
  else if a <= Score.neg_inf / 2 then Score.neg_inf
  else if a >= Score.pos_inf / 2 then Score.pos_inf
  else a + k

let[@inline always] check_buffers n_layers (buf : Pe.buffers) =
  if Array.length buf.Pe.b_scores <> n_layers then
    invalid_arg "Datapath.exec: score buffer layer count mismatch";
  if
    Array.length buf.Pe.b_up < n_layers
    || Array.length buf.Pe.b_diag < n_layers
    || Array.length buf.Pe.b_left < n_layers
  then invalid_arg "Datapath.exec: input buffer layer count mismatch"

let exec p regs (buf : Pe.buffers) =
  check_buffers p.n_layers buf;
  let code = p.code in
  let n = p.n_insts in
  if Array.length regs < n then
    invalid_arg "Datapath.exec: register file too small";
  (* The unchecked accesses below are sound by construction: the code
     array is assembled by [compile] (which range-checks neighbour layer
     indices; the input arrays are length-checked just above), register
     operands always precede their instruction, and [regs] covers the
     program. Character and table-content indices are data-dependent, so
     those stay bounds-checked. *)
  for i = 0 to n - 1 do
    let base = i * 5 in
    let a = Array.unsafe_get code (base + 1) in
    let b = Array.unsafe_get code (base + 2) in
    let v =
      match Array.unsafe_get code base with
      | 0 (* op_const *) -> a
      | 1 (* op_up *) -> Array.unsafe_get buf.Pe.b_up a
      | 2 (* op_diag *) -> Array.unsafe_get buf.Pe.b_diag a
      | 3 (* op_left *) -> Array.unsafe_get buf.Pe.b_left a
      | 4 (* op_qry *) -> buf.Pe.b_qry.(a)
      | 5 (* op_ref *) -> buf.Pe.b_rf.(a)
      | 6 (* op_add *) ->
        sat_add (Array.unsafe_get regs a) (Array.unsafe_get regs b)
      | 7 (* op_addi *) -> sat_add (Array.unsafe_get regs a) b
      | 8 (* op_sub *) ->
        sat_add (Array.unsafe_get regs a) (-Array.unsafe_get regs b)
      | 9 (* op_mul *) ->
        Score.mul (Array.unsafe_get regs a) (Array.unsafe_get regs b)
      | 10 (* op_abs *) -> Score.abs (Array.unsafe_get regs a)
      | 11 (* op_absdiff *) ->
        Score.abs
          (sat_add (Array.unsafe_get regs a) (-Array.unsafe_get regs b))
      | 12 (* op_max *) ->
        let x = Array.unsafe_get regs a and y = Array.unsafe_get regs b in
        if x >= y then x else y
      | 13 (* op_min *) ->
        let x = Array.unsafe_get regs a and y = Array.unsafe_get regs b in
        if x <= y then x else y
      | 14 (* op_max3 *) ->
        let x = Array.unsafe_get regs a and y = Array.unsafe_get regs b in
        let m = if x >= y then x else y in
        let z = Array.unsafe_get regs (Array.unsafe_get code (base + 3)) in
        if m >= z then m else z
      | 15 (* op_min3 *) ->
        let x = Array.unsafe_get regs a and y = Array.unsafe_get regs b in
        let m = if x <= y then x else y in
        let z = Array.unsafe_get regs (Array.unsafe_get code (base + 3)) in
        if m <= z then m else z
      | 16 (* op_sel_eq *) ->
        Array.unsafe_get regs
          (Array.unsafe_get code
             (base + if Array.unsafe_get regs a = Array.unsafe_get regs b then 3 else 4))
      | 17 (* op_sel_le *) ->
        Array.unsafe_get regs
          (Array.unsafe_get code
             (base + if Array.unsafe_get regs a <= Array.unsafe_get regs b then 3 else 4))
      | 18 (* op_sel_lt *) ->
        Array.unsafe_get regs
          (Array.unsafe_get code
             (base + if Array.unsafe_get regs a < Array.unsafe_get regs b then 3 else 4))
      | 19 (* op_lookup *) ->
        (Array.unsafe_get p.luts a).(Array.unsafe_get regs b).(Array.unsafe_get
                                                                 regs
                                                                 (Array.unsafe_get
                                                                    code (base + 3)))
      | _ -> invalid_arg "Datapath.exec: corrupt opcode"
    in
    Array.unsafe_set regs i v
  done;
  let scores = buf.Pe.b_scores in
  for l = 0 to p.n_layers - 1 do
    scores.(l) <- Array.unsafe_get regs p.layer_regs.(l)
  done;
  (* the mutable [b_tb] field doubles as the accumulator so the packing
     loop allocates nothing (a local [ref] might) *)
  buf.Pe.b_tb <- 0;
  for i = 0 to Array.length p.tb_regs - 1 do
    buf.Pe.b_tb <- buf.Pe.b_tb lor (regs.(p.tb_regs.(i)) lsl p.tb_shifts.(i))
  done

let flat p =
  let regs = Array.make (max 1 p.n_insts) 0 in
  fun buf -> exec p regs buf

type view_inst =
  | V_const of int
  | V_up of int
  | V_diag of int
  | V_left of int
  | V_qry of int
  | V_ref of int
  | V_add of int * int
  | V_addi of int * int
  | V_sub of int * int
  | V_mul of int * int
  | V_abs of int
  | V_absdiff of int * int
  | V_max of int * int
  | V_min of int * int
  | V_max3 of int * int * int
  | V_min3 of int * int * int
  | V_sel_eq of int * int * int * int
  | V_sel_le of int * int * int * int
  | V_sel_lt of int * int * int * int
  | V_lookup of int * int * int

type view = {
  v_insts : view_inst array;
  v_layer_regs : int array;
  v_tb_regs : int array;
  v_tb_shifts : int array;
  v_n_layers : int;
}

let view p =
  let decode i =
    let base = i * 5 in
    let a = p.code.(base + 1)
    and b = p.code.(base + 2)
    and c = p.code.(base + 3)
    and d = p.code.(base + 4) in
    match p.code.(base) with
    | 0 (* op_const *) -> V_const a
    | 1 (* op_up *) -> V_up a
    | 2 (* op_diag *) -> V_diag a
    | 3 (* op_left *) -> V_left a
    | 4 (* op_qry *) -> V_qry a
    | 5 (* op_ref *) -> V_ref a
    | 6 (* op_add *) -> V_add (a, b)
    | 7 (* op_addi *) -> V_addi (a, b)
    | 8 (* op_sub *) -> V_sub (a, b)
    | 9 (* op_mul *) -> V_mul (a, b)
    | 10 (* op_abs *) -> V_abs a
    | 11 (* op_absdiff *) -> V_absdiff (a, b)
    | 12 (* op_max *) -> V_max (a, b)
    | 13 (* op_min *) -> V_min (a, b)
    | 14 (* op_max3 *) -> V_max3 (a, b, c)
    | 15 (* op_min3 *) -> V_min3 (a, b, c)
    | 16 (* op_sel_eq *) -> V_sel_eq (a, b, c, d)
    | 17 (* op_sel_le *) -> V_sel_le (a, b, c, d)
    | 18 (* op_sel_lt *) -> V_sel_lt (a, b, c, d)
    | 19 (* op_lookup *) -> V_lookup (a, b, c)
    | op -> invalid_arg (Printf.sprintf "Datapath.view: corrupt opcode %d" op)
  in
  {
    v_insts = Array.init p.n_insts decode;
    v_layer_regs = Array.copy p.layer_regs;
    v_tb_regs = Array.copy p.tb_regs;
    v_tb_shifts = Array.copy p.tb_shifts;
    v_n_layers = p.n_layers;
  }

let luts p = p.luts

type op_count = {
  adders : int;
  multipliers : int;
  comparators : int;
  lookups : int;
  depth : int;
}

(* Structurally identical subexpressions are hardware-shared (the HLS
   compiler CSEs them), so each unique node is counted once. *)
let count cell =
  let module M = Map.Make (struct
    type t = expr

    let compare = compare
  end) in
  let adders = ref 0 and muls = ref 0 and cmps = ref 0 and lookups = ref 0 in
  let memo = ref M.empty in
  let rec walk e =
    match M.find_opt e !memo with
    | Some d -> d
    | None ->
      let d =
        match e with
        | Const _ | Param _ | Up _ | Diag _ | Left _ | Qry _ | Ref _ | Cur _
        | Nbr _ -> 1
        | Add (a, b) | Sub (a, b) ->
          incr adders;
          1 + max (walk a) (walk b)
        | Mul (a, b) ->
          incr muls;
          1 + max (walk a) (walk b)
        | Abs a ->
          incr adders;
          1 + walk a
        | Max es | Min es ->
          cmps := !cmps + max 0 (List.length es - 1);
          let d = List.fold_left (fun acc x -> max acc (walk x)) 0 es in
          d + max 1 (List.length es - 1)
        | Ite (c, t, f) ->
          incr cmps;
          1 + max (walk_cond c) (max (walk t) (walk f))
        | Lookup2 (_, a, b) ->
          incr lookups;
          1 + max (walk a) (walk b)
      in
      memo := M.add e d !memo;
      d
  and walk_cond = function Eq (a, b) | Le (a, b) | Lt (a, b) -> max (walk a) (walk b) in
  let depth =
    List.fold_left
      (fun acc e -> max acc (walk e))
      0
      (Array.to_list cell.layers @ List.map (fun f -> f.value) cell.tb_fields)
  in
  {
    adders = !adders;
    multipliers = !muls;
    comparators = !cmps;
    lookups = !lookups;
    depth;
  }

let validate cell ~n_layers =
  if Array.length cell.layers <> n_layers then
    invalid_arg "Datapath.validate: layer count mismatch";
  let check_layer l what =
    if l < 0 || l >= n_layers then
      invalid_arg (Printf.sprintf "Datapath.validate: %s layer %d out of range" what l)
  in
  (* Cur discipline: only layer-0 and pointer expressions may reference
     other layers, which are all evaluated before them. *)
  let rec walk ~allow_cur = function
    | Const _ | Param _ | Qry _ | Ref _ -> ()
    | Up l -> check_layer l "Up"
    | Diag l -> check_layer l "Diag"
    | Left l -> check_layer l "Left"
    (* stencil membership is deliberately NOT validated here: an
       out-of-stencil [Nbr] is a well-formed description of an illegal
       schedule, which the [Depend] analysis reports with context *)
    | Nbr (_, _, l) -> check_layer l "Nbr"
    | Cur l ->
      check_layer l "Cur";
      if not allow_cur then invalid_arg "Datapath.validate: Cur in a gap layer";
      if l = 0 then invalid_arg "Datapath.validate: Cur 0 is never available"
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Lookup2 (_, a, b) ->
      walk ~allow_cur a;
      walk ~allow_cur b
    | Abs a -> walk ~allow_cur a
    | Max es | Min es ->
      if es = [] then invalid_arg "Datapath.validate: empty Max/Min";
      List.iter (walk ~allow_cur) es
    | Ite (c, t, f) ->
      (match c with
      | Eq (a, b) | Le (a, b) | Lt (a, b) ->
        walk ~allow_cur a;
        walk ~allow_cur b);
      walk ~allow_cur t;
      walk ~allow_cur f
  in
  Array.iteri (fun l e -> walk ~allow_cur:(l = 0) e) cell.layers;
  List.iter
    (fun f ->
      if f.bits < 1 then invalid_arg "Datapath.validate: field width < 1";
      walk ~allow_cur:true f.value)
    cell.tb_fields

