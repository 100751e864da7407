(** Batched, multicore alignment — the host-side embodiment of the
    paper's N_K parallelism knob (§4 step 6).

    Every function dispatches independent alignments onto a
    {!Dphls_host.Pool} of OCaml domains. Results are always ordered by
    input index and are byte-identical at any worker count; the
    accompanying {!Dphls_host.Pool.stats} lets callers compare the
    measured wall-clock scaling against the analytical N_K model via
    {!Dphls_host.Throughput.scaling}. *)

(** Which kernel runs per pair: {!Align.kind}, re-exported so
    [Batch.Global_affine] and friends keep their names. *)
type kind = Align.kind =
  | Global | Global_affine | Local | Semi_global | Protein_local

val kind_of_string : string -> kind
(** Parses ["global" | "global-affine" | "local" | "semi-global" |
    "protein-local"]; raises [Invalid_argument] otherwise.

    All batch entry points also accept [?band], the {!Align} band
    override: absent keeps the kernel's band, [None] strips it, [Some b]
    runs under [b]. *)

val align_one :
  ?band:Dphls_core.Banding.t option ->
  ?engine:Align.engine -> kind -> query:string -> reference:string
  -> Align.alignment
(** Single-pair reference semantics: exactly the corresponding
    {!Align} call. Batched results are differential-tested against
    this. *)

val align_all :
  ?band:Dphls_core.Banding.t option ->
  ?engine:Align.engine -> ?kind:kind -> ?workers:int
  -> (string * string) array -> Align.alignment array
(** [align_all pairs] aligns every [(query, reference)] pair in
    parallel on [workers] domains (default
    [Domain.recommended_domain_count ()]), one pool task per pair.
    [kind] defaults to [Global]. Result [i] is the alignment of
    [pairs.(i)]. *)

val align_all_report :
  ?band:Dphls_core.Banding.t option ->
  ?engine:Align.engine ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?kind:kind -> ?workers:int
  -> (string * string) array
  -> Align.alignment array * Dphls_host.Pool.stats
(** [align_all] plus the pool's wall-clock report (makespan and
    per-worker busy time in ns, {!Dphls_host.Scheduler.report}
    shape; one job per pair).

    [tracer] observes the {e pool} layer only: one ["chunk"] span per
    queue entry tagged with the worker index (see
    {!Dphls_host.Pool.run}). Per-alignment engine counters are
    deliberately not threaded into worker tasks: {!Dphls_obs.Metrics}
    sinks are not domain-safe. To profile engine internals, run a
    single alignment with {!Align.global} and friends. *)

val align_all_overlap_report :
  ?band:Dphls_core.Banding.t option ->
  ?engine:Align.engine ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?kind:kind -> ?workers:int
  -> (string * string) array
  -> Align.alignment array * Dphls_host.Pool.stats
     * Dphls_systolic.Engine.batch_stats
(** {!align_all_report}'s results and pool stats (one job per pair),
    plus the modeled batch cycle accounting with prologue overlap,
    computed from the answers rather than by another run: the answers
    are cut into contiguous per-worker slices
    ({!Dphls_host.Pool.slices}), each slice counts as one stream in
    which alignment [i+1]'s prologue hides under alignment [i]'s
    compute ({!Dphls_systolic.Engine.batch_stats_of} with
    [~overlap:true]), and the slices' stats are summed — sequential vs
    overlapped device cycles and the prologue cycles hidden. Answers
    without modeled cycles add nothing, so the stats are all zero on
    the golden and bit-parallel engines. *)

val iter :
  ?band:Dphls_core.Banding.t option ->
  ?engine:Align.engine -> ?kind:kind -> ?workers:int
  -> ?chunk:int
  -> f:(int -> query:string -> reference:string -> Align.alignment -> unit)
  -> (string * string) Seq.t -> unit
(** Streaming batch alignment for inputs too large to hold as one
    array: pulls [chunk] pairs (default 256) from the sequence at a
    time, aligns each chunk in parallel on one shared pool, and calls
    [f] in input order. Memory stays bounded by the chunk size. *)

val iter_fasta_file :
  ?band:Dphls_core.Banding.t option ->
  ?engine:Align.engine -> ?kind:kind -> ?workers:int
  -> ?chunk:int
  -> path:string
  -> f:
       (int -> Dphls_io.Fasta.record -> Dphls_io.Fasta.record
        -> Align.alignment -> unit)
  -> unit -> Dphls_systolic.Engine.batch_stats
(** Streams a FASTA pair file through {!Dphls_io.Fasta.fold_file}:
    consecutive records pair up as (query, reference) — records 2i and
    2i+1 form pair i. Raises [Failure], naming the file and the record,
    on a pair file the kind cannot align: an odd record count, sequence
    data before the first header, an empty sequence or a letter outside
    the kind's alphabet ({!Align.alignable}). A record is checked as it
    is read, so the chunks before it have already reached [f].

    Returns the prologue-overlap accounting of
    {!align_all_overlap_report}, summed over the chunks, each chunk cut
    into its own per-worker slices: equal to
    {!align_all_overlap_report}'s on a file of at most [chunk] pairs,
    while a larger file adds a slice start at every chunk boundary. *)

val scaling :
  ?band:Dphls_core.Banding.t option ->
  ?engine:Align.engine -> ?kind:kind -> workers:int list
  -> (string * string) array
  -> Dphls_host.Throughput.scaling_point list
(** Runs the same batch once per worker count (plus a 1-worker
    baseline) and returns measured-vs-modeled N_K scaling points. *)
