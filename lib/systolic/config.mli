(** Back-end configuration: the paper's inner-loop parallelism knob. *)

type t = {
  n_pe : int;  (** [N_PE]: processing elements in the linear array *)
}

val max_n_pe : int
(** The largest array the simulator builds: 1024. *)

val create : n_pe:int -> t
(** Raises [Invalid_argument] unless 1 <= n_pe <= {!max_n_pe}. *)
