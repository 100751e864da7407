(** Performance-counter sink: one preallocated int array indexed by
    {!Counter.index}.

    Designed so instrumented hot paths stay allocation-free:
    {!disabled} is a shared no-op sink whose {!add} is a single
    predictable branch, and an enabled sink's {!add} is one bounds-free
    array update — no boxing, no hashing, no closures. Engines
    therefore accept a [?metrics] argument defaulting to {!disabled}
    and call {!add} unconditionally.

    A sink is {e not} thread-safe, and the code keeps one rule: only
    the domain that created a sink writes to it. {!Dphls_host.Pool.run}
    adds its counters on its caller after the batch, and the serve
    layer gives each per-worker slice of a flush a sink of its own and
    {!merge_into}s them on its admission thread. *)

type t

val disabled : t
(** The shared no-op sink: {!enabled} is [false], {!add} does nothing,
    {!get} always returns 0. *)

val create : unit -> t
(** A fresh enabled sink with every counter at 0. *)

val enabled : t -> bool

val add : t -> Counter.t -> int -> unit
(** [add t c n] bumps counter [c] by [n]; a no-op on {!disabled}. *)

val incr : t -> Counter.t -> unit
(** [add t c 1]. *)

val get : t -> Counter.t -> int
(** Current value (0 on {!disabled}). *)

val reset : t -> unit
(** Zero every counter. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] adds every counter of [src] into [into];
    used to combine per-domain sinks. *)

val to_alist : t -> (Counter.t * int) list
(** Every catalog counter with its value, in {!Counter.all} order. *)
