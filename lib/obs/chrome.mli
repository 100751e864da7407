(** Chrome [trace_event] export of recorded spans.

    The emitted file is the JSON Object Format of the Trace Event
    specification: a top-level object whose ["traceEvents"] array holds
    one complete ("ph":"X") event per span, with timestamps and
    durations in microseconds. Open it in Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) or
    [chrome://tracing]; spans land on one row per [tid] (worker), named
    rows when [?process_name] is given. See [docs/observability.md] for
    the field-by-field format. *)

(** One trace event, the parsed form of an entry of ["traceEvents"].
    [ts]/[dur] are microseconds since the tracer epoch. *)
type event = {
  name : string;
  cat : string;
  ph : string;  (** ["X"] for the complete events this module emits *)
  ts : float;
  dur : float;
  pid : int;
  tid : int;
}

val events_of_tracer : Tracer.t -> event list
(** The spans as complete events, in recording order. *)

val to_json : ?process_name:string -> Tracer.t -> string
(** The trace as one compact JSON object ({!Dphls_util.Json.to_string}).
    Every event lives in pid 0; [process_name] (default ["dphls"])
    labels it via the top-level ["otherData"] object. *)

val write_file : string -> ?process_name:string -> Tracer.t -> unit
(** {!to_json} and a final newline. *)

val parse : string -> event list
(** Parse the ["traceEvents"] of a trace file back into events —
    the round-trip check used by the test suite and by consumers that
    post-process traces. The text must be strict RFC 8259 JSON (read
    with {!Dphls_util.Json.parse}) holding an object with a
    ["traceEvents"] array of flat event objects; unknown fields are
    ignored, missing fields default to [0]/[""]. Raises [Failure] on
    malformed JSON or a missing ["traceEvents"] array. *)
