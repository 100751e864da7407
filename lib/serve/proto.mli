(** The serve wire protocol: one request per line in, one response per
    line out, both RFC 8259 JSON objects. Requests are read with the
    strict {!Dphls_util.Json.parse} — the same parser the report schema
    uses, so the service rejects exactly what the toolchain rejects —
    and responses are printed by {!Dphls_util.Json.to_string}.

    Request fields (unknown fields are a [Bad_request]):
    - ["kernel"] (required): catalog kernel, by number or name;
    - ["qry"], ["ref"] (required): the sequences, in the kernel's
      alphabet (DNA or protein);
    - ["id"] (optional): opaque correlation string, echoed back;
    - ["band"] (optional): [{"mode": "none"}] strips the kernel's band,
      [{"mode": "fixed", "width": W}] and
      [{"mode": "adaptive", "width": W, "threshold": T}] override it;
      absent keeps the kernel's catalog banding;
    - ["engine"] (optional): ["auto"] (default), ["systolic"],
      ["reference"] or ["bitpar"]. The parser keeps the name as sent;
      the server resolves it at admission, with its own [--n-pe];
    - ["deadline_ms"] (optional): per-request deadline, measured from
      admission; a request still queued when it expires is answered
      [deadline_exceeded] and never run.

    Responses: [{"id", "status": "ok", "score", "cigar", "cycles",
    "engine", "cached", "latency_ms"}] or [{"id", "status": "error",
    "code", "message"}] where ["code"] is one of {!error_codes}. *)

(** Every error code a response can carry. [docs/serve.md] documents
    each one; a unit test enumerates this variant and greps the doc. *)
type error_code =
  | Bad_request  (** malformed JSON, unknown field, or invalid value *)
  | Unknown_kernel  (** ["kernel"] matches no catalog entry *)
  | Unsupported
      (** kernel alphabet outside DNA/protein, or a forced engine that
          refuses the kernel shape *)
  | Oversized  (** request line or sequence above the configured cap *)
  | Overloaded  (** the kernel's bounded queue is full (backpressure) *)
  | Deadline_exceeded  (** deadline passed while queued; never run *)
  | Internal  (** unexpected server-side failure *)

val error_codes : error_code list
(** Every variant, in declaration order. *)

val error_name : error_code -> string
(** Wire spelling, e.g. ["deadline_exceeded"]. *)

type request = {
  rid : string option;
  kernel_spec : string;  (** number or name, as sent *)
  qry : string;
  ref_seq : string;
  band : Dphls_core.Banding.t option option;
      (** the band override: [None] (no ["band"] field) keeps the
          kernel's catalog banding, [Some None] strips it *)
  engine : string;  (** the ["engine"] name as sent, ["auto"] if absent *)
  deadline_ms : float option;
}

val parse_request :
  string -> (request, string option * error_code * string) result
(** Parse one request line. [Error (rid, code, message)] carries the
    request id when the line parsed far enough to recover one, so the
    error response can still be correlated. *)

type response =
  | Ok_response of {
      rid : string;
      score : int;
      cigar : string;  (** [""] for score-only kernels/engines *)
      cycles : int option;  (** modeled device cycles; engines without a
                                cycle model report [null] *)
      engine : string;  (** backend that ran (or would run) it *)
      cached : bool;
      latency_ms : float;  (** admission to response, wall clock *)
    }
  | Error_response of {
      rid : string option;
      code : error_code;
      message : string;
    }

val response_line : response -> string
(** One JSON line (no trailing newline). *)
