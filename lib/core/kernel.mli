(** The kernel specification — the DP-HLS front-end contract (§4).

    A kernel packages the six user customizations of the paper:
    (1) data types and parameters (alphabet width, score width, layer
    count, scoring parameters, traceback pointer type and states, banding),
    (2) initial row/column scores, (3) the PE function, (4) the traceback
    strategy, and the structural traits the back-end needs. Parallelism
    — step (5), the (N_PE, N_B, N_K) triple — lives with the engines, and
    step (6), the host program, in [dphls_host]. *)

type 'p t = {
  id : int;  (** Table 1 kernel number (0 for user-defined kernels) *)
  name : string;
  description : string;
  objective : Dphls_util.Score.objective;
  n_layers : int;          (** [N_LAYERS]: values stored per DP cell *)
  score_bits : int;        (** width of the score datatype [type_t] *)
  tb_bits : int;           (** bits per stored traceback pointer (0 = none) *)
  init_row : 'p -> ref_len:int -> layer:int -> col:int -> Types.score;
      (** [init_row_scr]: virtual row -1; the up/diag neighbour of row 0. *)
  init_col : 'p -> qry_len:int -> layer:int -> row:int -> Types.score;
      (** [init_col_scr]: virtual column -1. *)
  origin : 'p -> layer:int -> Types.score;
      (** Value of the virtual corner (-1,-1), the diag neighbour of (0,0). *)
  datapath : 'p -> Datapath.cell * Datapath.bindings;
      (** [PE_func]: the recurrence as a symbolic datapath plus the
          bindings of its named parameters and tables. A function of the
          parameters because a cell may bake them in (#8 embeds its
          sum-of-pairs matrix as constants). This one definition feeds
          the engines ({!flat_row}, {!flat_wave}), the RTL emitter and
          the static analyses; {!Datapath.eval} is its reference
          semantics. *)
  score_site : Traceback.start_rule;
      (** Where the kernel's objective value is read (and where traceback
          starts when enabled). *)
  traceback : 'p -> Traceback.spec option;
      (** [None] reproduces the paper's no-traceback option (#10, #12, #14). *)
  banding : Banding.t option;
  traits : Traits.t;
}

val structural_findings : 'p t -> 'p -> (string * string) list
(** All structural problems of the spec as [(check, message)] pairs:
    positive layer count, [score_bits]/[tb_bits] in range, traceback
    consistent with [tb_bits], FSM state count and [start_state] within
    [0, n_states), traits well-formed. Empty when structurally sound.
    [validate] raises on the first of these; the static analyzer
    ([Dphls_analysis]) reports them all under the same check names. *)

val validate : 'p t -> 'p -> unit
(** Raise [Invalid_argument] on the first of {!structural_findings},
    if any. *)

val has_traceback : 'p t -> 'p -> bool

val with_band : 'p t -> Banding.t option option -> 'p t
(** Apply a band override: [None] keeps the kernel's banding, [Some b]
    replaces it with [b] ([Some None] runs unbanded). *)

val flat_pe : 'p t -> 'p -> Pe.flat
(** The kernel's PE as one flat evaluator: the kernel's datapath compiled
    ({!Datapath.compile}), then looked up in the generated table
    ({!Pe_gen.find}). A hit (every catalog kernel at its default
    parameters) returns the program's straight-line evaluator; a miss
    (a user kernel, non-default parameters) returns the bytecode loop
    closed over a private register file ({!Datapath.flat}). The program
    decides which; both compute the same results. Build one per run or
    per domain: the bytecode evaluator owns mutable scratch. Neither
    engine calls it per cell: they run {!flat_row} and {!flat_wave}. *)

val flat_row : 'p t -> 'p -> Pe.row
(** The row evaluator the golden engine runs, chosen like {!flat_pe}:
    a hit in the generated table ({!Pe_gen.find_row}) returns the
    program's fused row loop, a miss the generic row around the
    bytecode loop ({!Pe.row_of_flat}). Build one per run or per
    domain. *)

val flat_wave : 'p t -> 'p -> Pe.wave
(** The wave evaluator the systolic engine runs, chosen like
    {!flat_pe}: a hit in the generated table ({!Pe_gen.find_wave})
    returns the program's fused wave loop, a miss the generic wave
    around the bytecode loop ({!Pe.wave_of_flat}). Build one per run or
    per domain. *)
