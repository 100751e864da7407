(** Bounded LRU result cache for the serve layer.

    Keyed on the full identity of an answer within one server: the
    serve group key (kernel id, band override, engine choice) and both
    sequences. The catalog cannot change while the process runs and
    [N_PE] is the server's, so a hit can only ever return the
    byte-identical response the engines would recompute. Eviction is
    least-recently-used; [find] refreshes recency. O(1) find/add via a hash table over an intrusive
    doubly-linked list. Not domain-safe: the server touches it from the
    admission thread only. *)

type value = {
  score : int;
  cigar : string;
  cycles : int option;
  engine : string;
}

type t

val create : capacity:int -> t
(** [capacity <= 0] creates a disabled cache: [find] always misses,
    [add] is a no-op. *)

val capacity : t -> int
val length : t -> int

val find : t -> string -> value option
(** Marks the entry most-recently-used on a hit. *)

val add : t -> string -> value -> unit
(** Insert or refresh; evicts the least-recently-used entry when over
    capacity. *)
