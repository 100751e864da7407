(** Existential packaging of kernels with their parameters, so collections
    of heterogeneous kernels (the Table 1 catalog) can be traversed
    uniformly. *)

type packed = Packed : 'p Kernel.t * 'p -> packed

val name : packed -> string
val id : packed -> int
val n_layers : packed -> int
val tb_bits : packed -> int
val traits : packed -> Traits.t
val objective : packed -> Dphls_util.Score.objective
val banding : packed -> Banding.t option
val has_traceback : packed -> bool
val validate : packed -> unit

val datapath : packed -> Datapath.cell * Datapath.bindings
(** The kernel's symbolic datapath bound to its packed parameters. *)
