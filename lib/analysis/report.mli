(** Severity-ranked findings of the pre-synthesis kernel checker.

    A report is what `dphls check` prints (and serializes with
    {!to_json}); [Error] findings are specs that would misbehave at run
    time (overflowing scores, non-terminating tracebacks, out-of-range
    pointers), [Warning] findings are configurations that are legal but
    known-bad (e.g. an adaptive band threshold beyond the
    [2·|gap|·width] guidance of docs/banding.md), [Info] findings
    record what the analyses established. *)

type severity = Error | Warning | Info

type finding = {
  check : string;     (** stable kebab-case check identifier *)
  severity : severity;
  message : string;
}

type t = {
  kernel_id : int;
  kernel_name : string;
  max_len : int;      (** workload length bound the report was computed for *)
  findings : finding list;  (** sorted most-severe first *)
}

val finding : check:string -> severity:severity -> string -> finding
val error : check:string -> string -> finding
val warning : check:string -> string -> finding
val info : check:string -> string -> finding

val create : kernel_id:int -> kernel_name:string -> max_len:int -> finding list -> t
(** Sorts findings most-severe first (stable within a severity). *)

val errors : t -> int
val warnings : t -> int
val infos : t -> int

val clean : t -> bool
(** No errors and no warnings. *)

val severity_label : severity -> string

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** Compact JSON ({!Dphls_util.Json.to_string}). Schema: [{"kernel":
    {"id", "name"}, "max_len", "summary": {"errors", "warnings",
    "infos"}, "findings": [{"check", "severity", "message"}]}] — see
    docs/analysis.md. *)

val list_to_json : t list -> string
(** [{"reports": [...], "errors": total}]. *)

val of_json : string -> (t, string) result
(** Strict inverse of {!to_json} (via {!Dphls_util.Json.parse}):
    validates the schema, including that the embedded summary counts
    match the findings list. Round-trip law (property tested):
    [of_json (to_json t) = Ok t]. *)

val list_of_json : string -> (t list, string) result
(** Inverse of {!list_to_json}; also validates the total error count.
    CI uses it to compare a fresh [dphls check --all --json] artifact
    against the committed baseline structurally. *)
