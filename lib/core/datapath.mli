(** Symbolic PE datapath descriptions.

    A kernel's recurrence is a symbolic expression tree ([Kernel.t]'s
    [datapath]), the one definition the HLS back-end consumes in the
    real DP-HLS flow. From it this reproduction (a) evaluates the PE —
    {!eval} is the reference semantics, {!compile} the allocation-free
    program the engines run, and the test suite pins the two
    bit-identical (the analog of C-simulation vs RTL co-simulation),
    (b) emits structural Verilog for the PE and the surrounding systolic
    array, and (c) derives operator counts that cross-check the resource
    model's traits.

    Layer-evaluation convention: layers 1..n-1 are evaluated in ascending
    order first, then layer 0 (which may reference the freshly computed
    gap layers through {!Cur}) — this matches affine/two-piece/Viterbi
    dependencies. *)

type cond =
  | Eq of expr * expr
  | Le of expr * expr
  | Lt of expr * expr

and expr =
  | Const of int
  | Param of string            (** named scoring parameter *)
  | Up of int                  (** layer of cell (row-1, col) *)
  | Diag of int                (** layer of cell (row-1, col-1) *)
  | Left of int                (** layer of cell (row, col-1) *)
  | Qry of int                 (** element of the local query character *)
  | Ref of int                 (** element of the local reference character *)
  | Cur of int                 (** current cell's layer (must be evaluated
                                   earlier per the convention above) *)
  | Nbr of int * int * int     (** [Nbr (drow, dcol, layer)]: generalized
                                   neighbour read of cell
                                   (row-drow, col-dcol). Offsets inside
                                   {!wavefront_stencil} are exactly
                                   [Diag]/[Up]/[Left]; anything else is
                                   expressible (e.g. a row-2 recurrence)
                                   but unservable by the wavefront
                                   engines — {!eval} and {!compile}
                                   reject it, and the [Depend] pass of
                                   [dphls check] reports it statically. *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Abs of expr
  | Max of expr list
  | Min of expr list
  | Ite of cond * expr * expr
  | Lookup2 of string * expr * expr
      (** 2-D table indexed by two expressions (emission matrices,
          substitution matrices) *)

type tb_field = { bits : int; value : expr }
(** One field of the packed traceback pointer (LSB-first concatenation). *)

type cell = {
  layers : expr array;      (** one expression per output layer *)
  tb_fields : tb_field list;
}

type bindings = {
  params : (string * int) list;
  tables : (string * int array array) list;
}

val wavefront_stencil : (int * int) list
(** The [(drow, dcol)] offsets a wavefront-scheduled PE may legally
    read: [(1, 1)] (NW, two wavefronts back), [(1, 0)] (N) and [(0, 1)]
    (W, one wavefront back). This is the schedule-legality contract the
    systolic engines rely on (see {!Dphls_systolic.Schedule}): the
    anti-diagonal schedule double-buffers exactly the previous two
    wavefronts' score planes, so a read any deeper has already been
    overwritten by the time it would be consumed. *)

type dep =
  | Dep_nbr of { drow : int; dcol : int; layer : int }
      (** cross-cell read: [Up]/[Diag]/[Left]/[Nbr] *)
  | Dep_cur of int  (** same-cell read of an earlier-evaluated layer *)

val expr_deps : expr -> dep list
(** Every distinct cell-state read of the expression (first-occurrence
    order, deduplicated): the read footprint the [Depend] analysis of
    [dphls check] proves confined to {!wavefront_stencil}. [Qry]/[Ref]/
    [Param]/[Const] reads are not cell state and are not reported. *)

val eval : cell -> bindings -> Pe.f
(** Interpret the symbolic cell as a boxed PE function (with the
    saturating arithmetic of {!Dphls_util.Score}, including saturating
    [Mul]/[Abs]). Raises [Invalid_argument] on unbound names, bad layer
    references, out-of-range [Cur] uses or out-of-stencil [Nbr] reads. *)

type program
(** A cell lowered to a flat SSA-style instruction sequence over an
    integer register file: structurally shared subexpressions are
    emitted once (the CSE {!count} models), constant subtrees are folded
    with the same saturating ops the interpreter uses, [Param]s become
    immediate constants, [Lookup2] tables become direct array references
    and [Cur] references resolve to the defining layer's register.
    [Ite] lowers to an eager mux over both (pure) arms unless its
    condition is constant, in which case only the taken arm is compiled. *)

val compile : cell -> bindings -> program
(** Lower a cell. Raises [Invalid_argument] on unbound names (including
    names only reachable through a non-constant [Ite] arm — compilation
    is strict where the interpreter is lazy), out-of-range [Cur] uses or
    empty [Max]/[Min]. Results are bit-identical to {!eval} on every
    input: same fold order for [Max]/[Min], same [Sub] lowering, same
    saturating arithmetic. *)

val program_insts : program -> int
(** Number of instructions after CSE, folding and dead-code elimination
    (tests, diagnostics). *)

val exec : program -> int array -> Pe.buffers -> unit
(** [exec p regs buf] evaluates one cell from/into [buf] using [regs] as
    the register file ([Array.length regs >= program_insts p]); performs
    no allocation. Raises [Invalid_argument] if [buf]'s score array
    length differs from the program's layer count. *)

val flat : program -> Pe.flat
(** The program closed over a private register file — the allocation-free
    PE evaluator the engines run. The returned evaluator owns mutable
    scratch: share it freely within a domain, but build one per domain
    (e.g. per {!Dphls_host.Pool} worker) rather than sharing across
    domains. *)

(** Read-only decode of a compiled {!program}, for static analyses that
    walk the flat code the engines actually execute (the recurrence-II /
    critical-path pass of [dphls check]). Instruction [i] writes
    register [i]; operand registers always precede their instruction
    (SSA order). [V_lookup]'s first operand is the table id, not a
    register. *)
type view_inst =
  | V_const of int
  | V_up of int          (** layer index, not a register *)
  | V_diag of int        (** layer index *)
  | V_left of int        (** layer index *)
  | V_qry of int         (** character element index *)
  | V_ref of int         (** character element index *)
  | V_add of int * int
  | V_addi of int * int  (** register, immediate *)
  | V_sub of int * int
  | V_mul of int * int
  | V_abs of int
  | V_absdiff of int * int
  | V_max of int * int
  | V_min of int * int
  | V_max3 of int * int * int
  | V_min3 of int * int * int
  | V_sel_eq of int * int * int * int  (** cmp a, cmp b, taken, untaken *)
  | V_sel_le of int * int * int * int
  | V_sel_lt of int * int * int * int
  | V_lookup of int * int * int        (** table id, row reg, col reg *)

type view = {
  v_insts : view_inst array;
  v_layer_regs : int array;  (** register holding each layer's result *)
  v_tb_regs : int array;     (** register per pointer field, LSB-first *)
  v_n_layers : int;
}

val view : program -> view
(** Decode the assembled code array back into a walkable instruction
    list. Pure; the result shares nothing mutable with the program. *)

type op_count = {
  adders : int;       (** Add/Sub/Abs nodes *)
  multipliers : int;
  comparators : int;  (** Max/Min pairwise reductions + Ite conditions *)
  lookups : int;
  depth : int;        (** longest operator chain *)
}

val count : cell -> op_count
(** Structural operator counts of the whole cell (layers + pointer). *)

val validate : cell -> n_layers:int -> unit
(** Check layer indices, [Cur] ordering discipline and field widths. *)
