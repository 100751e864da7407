(** Alignment results returned by both engines. *)

type t = {
  score : Types.score;          (** objective value at the traceback start *)
  start_cell : Types.cell option;  (** where traceback started (None when the
                                       kernel returns score only) *)
  end_cell : Types.cell option;    (** last in-matrix cell on the path *)
  path : Traceback.op list;        (** operations in sequence order (5'->3') *)
  cells_computed : int;            (** DP cells evaluated (band-aware) *)
  tb_steps : int;
      (** traceback FSM steps (pointer reads) the walk took, 0 without a
          traceback: the traceback term of the device cycle model *)
}

val score_only : score:Types.score -> cells:int -> t

val cigar : t -> string
(** Compact CIGAR-style run-length encoding, e.g. ["12M1I3M2D"], using
    M for {!Traceback.Mmi}, I for insertions, D for deletions. *)

val path_consumes : t -> int * int
(** (query characters, reference characters) consumed by the path. *)

val equal_alignment : t -> t -> bool
(** Same score, same start/end cells and same path — the differential-test
    equality between golden and systolic engines. *)

val pp : Format.formatter -> t -> unit
