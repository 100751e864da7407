(** High-level one-call alignment API over the shipped kernels.

    For programs that just want alignments (not hardware modeling):
    string in, scored alignment out. Every call runs the requested
    engine — the exact golden engine by default, or the systolic
    simulator to obtain device-cycle estimates too. *)

type engine =
  | Golden                   (** exact rolling-row DP engine *)
  | Systolic of int          (** cycle-level array with the given N_PE *)
  | Bitpar
      (** bit-parallel Myers engine: score-only, no traceback; raises
          {!Dphls_engines.Engine_intf.Unsupported} for kernels outside
          the fast-path shape ({!Dphls_analysis.Fastpath}) *)
  | Auto of int
      (** {!Dphls_engines.Engines.select} per workload: [Bitpar] when
          the kernel+workload is fully fast-path eligible, else
          [Systolic] with the given N_PE. Results never depend on the
          routing; the decision is visible as the
          [engine_fastpath_hits]/[engine_fastpath_fallbacks] counters. *)

type datapath =
  | Compiled  (** flat compiled PE datapath (default; allocation-free) *)
  | Boxed     (** hand-written boxed PE closures, the reference semantics *)

type alignment = {
  score : int;
  cigar : string;
  identity : float;          (** matches / alignment columns *)
  query_span : int * int;    (** first consumed, one past last (0-based) *)
  reference_span : int * int;
  view : string;             (** three-line rendering *)
  device_cycles : int option;  (** Some when run on the systolic engine *)
}

val global :
  ?band:Dphls_core.Banding.t ->
  ?datapath:datapath ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine -> query:string -> reference:string -> unit -> alignment
(** Needleman-Wunsch (kernel #1 defaults) over DNA strings.

    All five helpers accept [?band] to override the kernel's banding
    (e.g. [Dphls_core.Banding.fixed 32] or [Banding.adaptive 32]).
    Under an adaptive band the Golden engine decides the band at its
    canonical single-chunk trajectory; the Systolic engine decides it
    with [N_PE]-row chunks, so their pruning (and possibly scores) may
    differ — that is the expected hardware behavior, not a bug.

    [?datapath] selects the PE implementation: the compiled flat
    datapath (default, faster) or the boxed interpreter closures.
    Results are bit-identical either way; [Boxed] exists for
    differential testing and as the fallback semantics.

    [?metrics]/[?tracer] (defaults: the disabled sinks) are forwarded to
    the chosen engine's run: counters land once per alignment, spans
    cover the engine phases. See {!Dphls_obs} and [dphls profile]. *)

val global_affine :
  ?band:Dphls_core.Banding.t ->
  ?datapath:datapath ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine -> query:string -> reference:string -> unit -> alignment
(** Gotoh (kernel #2 defaults). *)

val local :
  ?band:Dphls_core.Banding.t ->
  ?datapath:datapath ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine -> query:string -> reference:string -> unit -> alignment
(** Smith-Waterman (kernel #3 defaults). *)

val semi_global :
  ?band:Dphls_core.Banding.t ->
  ?datapath:datapath ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine -> query:string -> reference:string -> unit -> alignment
(** Query end-to-end within the reference (kernel #7 defaults). *)

val protein_local :
  ?band:Dphls_core.Banding.t ->
  ?datapath:datapath ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine -> query:string -> reference:string -> unit -> alignment
(** BLOSUM62 Smith-Waterman over amino-acid strings (kernel #15). *)

val global_batch :
  ?band:Dphls_core.Banding.t ->
  ?datapath:datapath ->
  ?overlap:bool ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine ->
  (string * string) array ->
  alignment array * Dphls_systolic.Engine.batch_stats option
(** Batched {!global}: one staged-engine batch over all [(query,
    reference)] pairs, in order.

    With the systolic engine, [?overlap] (default [false]) pipelines
    alignment [i+1]'s fetch/init prologue under alignment [i]'s compute
    ({!Dphls_systolic.Engine.run_batch}); per-alignment results are
    bit-identical either way, only the returned batch-level cycle
    accounting changes. The batch stats are [None] on the golden engine
    (no device cycle model — [overlap] is then a no-op). *)

val global_affine_batch :
  ?band:Dphls_core.Banding.t ->
  ?datapath:datapath ->
  ?overlap:bool ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine ->
  (string * string) array ->
  alignment array * Dphls_systolic.Engine.batch_stats option
(** Batched {!global_affine}. *)

val local_batch :
  ?band:Dphls_core.Banding.t ->
  ?datapath:datapath ->
  ?overlap:bool ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine ->
  (string * string) array ->
  alignment array * Dphls_systolic.Engine.batch_stats option
(** Batched {!local}. *)

val semi_global_batch :
  ?band:Dphls_core.Banding.t ->
  ?datapath:datapath ->
  ?overlap:bool ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine ->
  (string * string) array ->
  alignment array * Dphls_systolic.Engine.batch_stats option
(** Batched {!semi_global}. *)

val protein_local_batch :
  ?band:Dphls_core.Banding.t ->
  ?datapath:datapath ->
  ?overlap:bool ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine ->
  (string * string) array ->
  alignment array * Dphls_systolic.Engine.batch_stats option
(** Batched {!protein_local}. *)
