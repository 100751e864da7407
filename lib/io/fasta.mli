(** FASTA parsing and writing — the input format of every sequence
    workload a real deployment would feed the framework. *)

type record = {
  id : string;           (** text after '>' up to the first whitespace *)
  description : string;  (** remainder of the header line *)
  sequence : string;
}

val parse_string : string -> record list
(** Multi-line sequences are joined; blank lines and ';' comment lines
    are ignored. Raises [Failure] on sequence data before any header. *)

val read_file : string -> record list

val fold_file : string -> init:'a -> f:('a -> record -> 'a) -> 'a
(** Streaming variant of [read_file]: records are parsed one at a time
    and folded through [f], so only one record is in memory at once.
    Same line handling as [parse_string]. *)

val to_string : record list -> string
(** 60-column wrapped FASTA text. *)

val write_file : string -> record list -> unit

val dna_of_record : record -> int array
(** Encode as DNA, raising on non-ACGT characters. *)
