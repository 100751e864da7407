(** Banked traceback-pointer memory with address coalescing (§5.2).

    One bank per PE so every PE can store its pointer each cycle;
    consecutive wavefronts map to consecutive addresses so all PEs write
    the same address in their own bank at a given wavefront
    ({!Schedule.tb_address}). {!bank_count} and {!depth} are that
    modeled memory. The backing store is one bank-major [int array]
    sized to the rows present: only the [min n_pe qry_len] banks whose
    PE owns a row, and per bank only the [ref_len] addresses of each
    chunk its PE writes, so an array far taller than the query costs no
    more memory than one as tall as it. *)

type t

val create : Schedule.t -> t

val write : t -> row:int -> col:int -> int -> unit

val read : t -> row:int -> col:int -> int

(** {1 Wavefront stores}

    The systolic engine's wave ({!Dphls_core.Pe.wave}) writes a whole
    wavefront's pointers straight into the store: PE [p]'s pointer of
    [wavefront] in [chunk] goes to
    [(store t).(wave_base t ~chunk ~wavefront + p * wave_step t)], where
    {!read} finds it. *)

val store : t -> int array
val wave_base : t -> chunk:int -> wavefront:int -> int
val wave_step : t -> int

val stored : t -> int -> unit
(** [stored t n] counts [n] pointers written through {!store}. *)

val words_written : t -> int
(** Number of pointer words stored (a BRAM-traffic statistic). *)

val bank_count : t -> int
(** [n_pe]: the modeled bank count, whether or not a bank's PE owns a
    row. *)

val depth : t -> int
(** {!Schedule.tb_depth}: the modeled words per bank. *)
