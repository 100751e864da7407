(** The persistent alignment service behind [dphls serve].

    One server owns a set of bounded coalescing queues, one per
    (kernel, band override, engine) group. {!submit} is the admission
    stage: it parses one request line, resolves its ["engine"] name
    with [n_pe] ({!Dphls_engines.Engines.of_string}), answers protocol
    errors, cache hits and backpressure rejections immediately, and
    enqueues the rest. A group exists only while it holds requests: the
    first queued request creates it, and the flush that drains it drops
    it, so the server's state stays proportional to its queued work. A
    group reaching [batch_max] pending requests is flushed
    automatically; {!flush} forces the rest out. A flush
    pops requests in admission order, answers [deadline_exceeded] for
    any whose deadline passed while queued (they are never run), and
    runs each key once: a survivor whose key is already cached, or
    whose identical twin earlier in the same batch runs, is answered
    from that answer ([cached:true], one [serve_cache_hits]). The rest
    go through {!Dphls_engines.Engines.run_batch}, the dispatch
    [Dphls.Align] uses. With [workers > 1] a batch of at least
    [2 * workers] requests is cut into per-worker slices
    ({!Dphls_host.Pool.slices}) around the dispatch, one [run_batch]
    per slice on a persistent {!Dphls_host.Pool}; the per-slice metric
    sinks are merged back on the admission thread, so counters stay
    exact without sharing a sink across domains.

    Backpressure is the point of the bounded queues: a full queue
    answers [overloaded] instead of growing, so memory stays flat no
    matter how fast clients push (the [bench --serve] soak gates on
    this). Every stage feeds {!Dphls_obs}: the six [serve_*] counters,
    per-request [request] spans (cat ["serve"]) plus [admit]/[compute]
    spans when a tracer is enabled, and a per-request latency record
    that {!summary} turns into nearest-rank p50/p99 for the SLO gate.

    Not domain-safe: one thread calls {!submit}/{!flush}; only the
    internal pool fans out. *)

type config = {
  queue_depth : int;
      (** per-group pending-request bound; a submit beyond it is
          [overloaded] *)
  batch_max : int;  (** coalescing target: auto-flush threshold and the
                        largest single engine batch *)
  cache_capacity : int;  (** LRU entries; [0] disables the cache *)
  max_seq_len : int;  (** per-sequence cap; above it is [oversized] *)
  max_line_bytes : int;  (** request-line cap; above it is [oversized] *)
  default_deadline_ms : float option;
      (** applied when a request has no ["deadline_ms"] *)
  n_pe : int;
      (** systolic array height for every group: the N_PE that
          ["systolic"] and ["auto"] resolve to *)
  workers : int;  (** [> 1] slices large flushes across a domain pool *)
  slo_p99_ms : float option;  (** latency objective checked by {!summary} *)
  now : unit -> float;
      (** wall clock in seconds; injectable so deadline tests are
          deterministic. Default: [Unix.gettimeofday]. *)
  metrics : Dphls_obs.Metrics.t;
      (** engine, dispatch and pool counters, and the six [serve_*]
          counts. Those counts are the server's only store of them:
          with this sink disabled the server keeps them in a private
          one, so {!summary} always has them. Give each server an
          enabled sink of its own: the summary's counts, and the latency
          sample it indexes by the completed count, would otherwise mix
          servers. *)
  tracer : Dphls_obs.Tracer.t;
}

val default_config : unit -> config
(** queue_depth 256, batch_max 64, cache 4096 entries, max_seq_len
    4096, max_line_bytes 1 MiB, no default deadline, n_pe 32, 1 worker,
    no SLO, [Unix.gettimeofday], disabled sinks. *)

type t

val create : config -> t

val submit : t -> string -> Proto.response list
(** Admit one request line. Returns the responses this submission
    produced: one immediate response (error, cache hit, or rejection),
    or none if queued, or a whole batch when the submission tripped an
    auto-flush. *)

val flush : t -> Proto.response list
(** Run every group now, in group-creation order, and drop them all.
    The CLI calls it at the end of the input. *)

val pending : t -> int
(** Requests admitted but not yet answered. *)

val close : t -> unit
(** Shut the worker pool down (if one was started). Does not flush —
    call {!flush} first. Idempotent. *)

(** End-of-run operational summary; [dphls serve] prints it on
    shutdown and [--check] gates its exit status on [slo_ok]. The six
    counts are read back from the [serve_*] counters. *)
type summary = {
  admitted : int;  (** accepted: enqueued or answered from cache *)
  rejected : int;  (** answered [overloaded] *)
  expired : int;  (** answered [deadline_exceeded] at dequeue *)
  cache_hits : int;
  completed : int;  (** [ok] responses, cached and computed *)
  batches : int;  (** coalesced engine runs *)
  p50_ms : float;
      (** nearest-rank over completed-request latencies; beyond 131072
          completions the sample set is a uniform reservoir so a soak's
          memory stays flat ([max_ms] stays exact) *)
  p99_ms : float;
  max_ms : float;
  slo_p99_ms : float option;
  slo_ok : bool;  (** [p99_ms <= slo] (vacuously true with no SLO or no
                      completed requests) *)
}

val summary : t -> summary

val summary_to_text : summary -> string
val summary_to_json : summary -> string
