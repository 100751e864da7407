(** Batched, multicore alignment — the host-side embodiment of the
    paper's N_K parallelism knob (§4 step 6).

    Every function dispatches independent alignments onto a
    {!Dphls_host.Pool} of OCaml domains. Results are always ordered by
    input index and are byte-identical at any worker count; the
    accompanying {!Dphls_host.Pool.stats} lets callers compare the
    measured wall-clock scaling against the analytical N_K model via
    {!Dphls_host.Throughput.scaling}. *)

(** Which one-call {!Align} entry point to run per pair. *)
type kind =
  | Global          (** Needleman-Wunsch, kernel #1 defaults *)
  | Global_affine   (** Gotoh, kernel #2 defaults *)
  | Local           (** Smith-Waterman, kernel #3 defaults *)
  | Semi_global     (** kernel #7 defaults *)
  | Protein_local   (** BLOSUM62 Smith-Waterman, kernel #15 *)

val kind_of_string : string -> kind
(** Parses ["global" | "global-affine" | "local" | "semi-global" |
    "protein-local"]; raises [Invalid_argument] otherwise.

    All batch entry points also accept [?band] (forwarded to {!Align})
    to run the chosen kernel under a fixed or adaptive band. *)

val align_one :
  ?band:Dphls_core.Banding.t ->
  ?engine:Align.engine -> kind -> query:string -> reference:string
  -> Align.alignment
(** Single-pair reference semantics: exactly the corresponding
    {!Align} call. Batched results are differential-tested against
    this. *)

val align_all :
  ?band:Dphls_core.Banding.t ->
  ?engine:Align.engine -> ?overlap:bool -> ?kind:kind -> ?workers:int
  -> (string * string) array -> Align.alignment array
(** [align_all pairs] aligns every [(query, reference)] pair in
    parallel on [workers] domains (default
    [Domain.recommended_domain_count ()]). [kind] defaults to
    [Global]. Result [i] is the alignment of [pairs.(i)].

    With [?overlap] (default [false]) the pairs are cut into contiguous
    per-worker slices, each run as one staged-engine batch that
    pipelines alignment [i+1]'s prologue under alignment [i]'s compute
    ({!Dphls_systolic.Engine.run_batch}) — the N_B-style block
    parallelism of the device model, inside one domain per slice.
    Results are byte-identical either way; only the modeled device
    cycles (and wall clock) change. A no-op on the golden engine. *)

val align_all_report :
  ?band:Dphls_core.Banding.t ->
  ?engine:Align.engine ->
  ?overlap:bool ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?kind:kind -> ?workers:int
  -> (string * string) array
  -> Align.alignment array * Dphls_host.Pool.stats
(** [align_all] plus the pool's wall-clock report (makespan and
    per-worker busy time in ns, {!Dphls_host.Scheduler.report}
    shape).

    [metrics]/[tracer] observe the {e pool} layer only — task/steal/
    idle counters added on the calling thread, one ["chunk"] span per
    queue entry tagged with the worker index (see
    {!Dphls_host.Pool.run}). Per-alignment engine counters are
    deliberately not threaded into worker tasks: {!Dphls_obs.Metrics}
    sinks are not domain-safe. To profile engine internals, run a
    single alignment with {!Align.global} and friends. *)

val align_all_overlap_report :
  ?band:Dphls_core.Banding.t ->
  ?engine:Align.engine ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?kind:kind -> ?workers:int
  -> (string * string) array
  -> Align.alignment array * Dphls_host.Pool.stats
     * Dphls_systolic.Engine.batch_stats
(** {!align_all_report} with [~overlap:true], additionally returning the
    modeled batch cycle accounting summed over the per-worker slices:
    sequential vs overlapped device cycles and the prologue cycles
    hidden. All-zero on the golden engine (no device model). *)

val iter :
  ?band:Dphls_core.Banding.t ->
  ?engine:Align.engine -> ?overlap:bool -> ?kind:kind -> ?workers:int
  -> ?chunk:int
  -> f:(int -> query:string -> reference:string -> Align.alignment -> unit)
  -> (string * string) Seq.t -> unit
(** Streaming batch alignment for inputs too large to hold as one
    array: pulls [chunk] pairs (default 256) from the sequence at a
    time, aligns each chunk in parallel on one shared pool, and calls
    [f] in input order. Memory stays bounded by the chunk size. *)

val iter_fasta_file :
  ?band:Dphls_core.Banding.t ->
  ?engine:Align.engine -> ?overlap:bool -> ?kind:kind -> ?workers:int
  -> ?chunk:int
  -> path:string
  -> f:
       (int -> Dphls_io.Fasta.record -> Dphls_io.Fasta.record
        -> Align.alignment -> unit)
  -> unit -> unit
(** Streams a FASTA pair file through {!Dphls_io.Fasta.fold_file}:
    consecutive records pair up as (query, reference) — records 2i and
    2i+1 form pair i. Raises [Failure] on an odd record count. *)

val scaling :
  ?band:Dphls_core.Banding.t ->
  ?engine:Align.engine -> ?overlap:bool -> ?kind:kind -> workers:int list
  -> (string * string) array
  -> Dphls_host.Throughput.scaling_point list
(** Runs the same batch once per worker count (plus a 1-worker
    baseline) and returns measured-vs-modeled N_K scaling points. *)
