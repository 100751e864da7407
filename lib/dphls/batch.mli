(** Batched, multicore alignment — the host-side embodiment of the
    paper's N_K parallelism knob (§4 step 6).

    Three entry points, one pool path: each runs one
    {!Dphls_host.Pool.run} task per pair, and each task is
    [fst (Align.run …)] on that pair. {!align_all} returns the
    alignments, {!align_all_overlap_report} adds the pool's wall-clock
    stats (for {!Dphls_host.Throughput.scaling}) and the modeled
    prologue overlap, and {!iter_fasta_file} streams a pair file
    through the same pool a chunk at a time. Results are always
    ordered by input index and are byte-identical at any worker count.
    A single pair is [fst (Align.run …)] itself. *)

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

val align_all :
  ?band:Dphls_core.Banding.t option ->
  ?engine:Align.engine -> ?kind:kind -> ?workers:int
  -> (string * string) array -> Align.alignment array
(** [align_all pairs] aligns every [(query, reference)] pair in
    parallel on [workers] domains (default
    [Domain.recommended_domain_count ()]), one pool task per pair.
    [kind] defaults to [Global]. Result [i] is the alignment of
    [pairs.(i)]. *)

val align_all_overlap_report :
  ?band:Dphls_core.Banding.t option ->
  ?engine:Align.engine ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?kind:kind -> ?workers:int
  -> (string * string) array
  -> Align.alignment array * Dphls_host.Pool.stats
     * Dphls_systolic.Engine.batch_stats
(** {!align_all}'s results, the pool's wall-clock stats (one job per
    pair; [tracer] records its per-chunk spans, see
    {!Dphls_host.Pool.run}), and the modeled batch cycle accounting with prologue overlap,
    computed from the answers rather than by another run: the answers
    are cut into contiguous per-worker slices
    ({!Dphls_host.Pool.slices}), each slice counts as one stream in
    which alignment [i+1]'s prologue hides under alignment [i]'s
    compute ({!Dphls_systolic.Engine.batch_stats_of} with
    [~overlap:true]), and the slices' stats are summed — sequential vs
    overlapped device cycles and the prologue cycles hidden. Answers
    without modeled cycles add nothing, so the stats are all zero on
    the golden and bit-parallel engines. *)

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
    is read, and every complete pair before the fault reaches [f]
    before the [Failure] is raised, at any [chunk].

    Returns the prologue-overlap accounting of
    {!align_all_overlap_report}, summed over the chunks, each chunk cut
    into its own per-worker slices: equal to
    {!align_all_overlap_report}'s on a file of at most [chunk] pairs,
    while a larger file adds a slice start at every chunk boundary. *)
