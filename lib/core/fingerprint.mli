(** Stable digests of kernel configurations.

    The golden-vector corpus stamps each vector with {!params_hash} and
    the serve layer keys its result cache on it, so both depend on the
    digest changing whenever anything that shapes a kernel's per-cell
    results changes. *)

val fnv64 : string -> string
(** 64-bit FNV-1a digest as 16 lowercase hex chars, computed in [Int64]
    so it is identical on every platform. *)

val params_hash : 'p Kernel.t -> 'p -> n_pe:int -> string
(** {!fnv64} of a canonical rendering of the kernel facts and
    configuration a run depends on: id, name, objective, layer count,
    score/tb widths, traits, banding and [N_PE]; the datapath cell of
    [k.datapath p] (constants baked into it included, e.g. #8's
    sum-of-pairs matrix) and every parameter and table entry of its
    bindings; and the virtual-border values next to the origin. Any
    change to a scoring parameter therefore changes the digest.
    Implementation-defined but stable across runs and platforms. *)
