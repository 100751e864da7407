(** The repository's one JSON value type, with its strict RFC 8259
    reader and its one printer. The repository has no dependencies
    beyond the baked-in toolchain, so every JSON emitter (check report,
    trace export, profile summary, serve responses and summary, bench
    payloads) builds a {!t} and prints it with {!to_string}, and every
    JSON reader starts from {!parse}.

    Reader strictness: rejects trailing garbage, unterminated strings,
    bare control characters inside strings, invalid escapes, and
    malformed numbers. Numbers are represented as [float] (exact for
    integers below 2{^53}). [\uXXXX] escapes are decoded to UTF-8; lone
    surrogates are rejected. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields in source order *)

val parse : string -> (t, string) result
(** [Error msg] includes the byte offset of the failure. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val int : int -> t
(** [Num] of an integer. *)

val to_string : t -> string
(** Compact RFC 8259 text: no whitespace, object fields in list order.
    Strings escape the double quote, backslash, newline, tab and
    carriage return with short escapes and every other byte below 0x20
    as [\u00XX]; all other bytes, UTF-8 included, pass through raw.
    Integral numbers of
    magnitude below 2{^53} print as integers; other finite numbers
    print as the shorter of [%.15g] and [%.17g] that reads back to the
    same float; NaN and infinities print as [null]. For every value
    without NaN or infinities, [parse (to_string v) = Ok v]. *)
