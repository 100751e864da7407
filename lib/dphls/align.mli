(** High-level one-call alignment API over the shipped kernels.

    For programs that just want alignments (not hardware modeling):
    string in, scored alignment out. Every call runs the requested
    engine — the exact golden engine by default, the systolic
    simulator, or [Auto], which also reports device cycles — through
    {!Dphls_engines.Engines.run_batch}, the same dispatch [dphls batch],
    [dphls profile] and [dphls serve] use. *)

(** The registry's engine choice ({!Dphls_engines.Engines.choice}),
    re-exported: [Golden] (the default here), [Systolic n_pe], [Bitpar]
    (score-only; raises {!Dphls_engines.Engine_intf.Unsupported} outside
    the fast-path shape) or [Auto n_pe]. Under [Auto] the routing is
    visible as the [engine_fastpath_hits]/[engine_fastpath_fallbacks]
    counters and never changes results. *)
type engine = Dphls_engines.Engines.choice =
  | Golden
  | Systolic of int
  | Bitpar
  | Auto of int

type alignment = {
  score : int;
  cigar : string;
  identity : float;          (** matches / alignment columns *)
  query_span : int * int;    (** first consumed, one past last (0-based) *)
  reference_span : int * int;
  view : string;             (** three-line rendering *)
  device_cycles : int option;
      (** Some on the systolic engine, and under [Auto] for answers the
          golden engine gave (the closed-form model, equal to the
          simulated count); None otherwise *)
}

(** Which shipped kernel, at its default parameters, an alignment runs. *)
type kind =
  | Global          (** Needleman-Wunsch, kernel #1 *)
  | Global_affine   (** Gotoh, kernel #2 *)
  | Local           (** Smith-Waterman, kernel #3 *)
  | Semi_global     (** kernel #7 *)
  | Protein_local   (** BLOSUM62 Smith-Waterman, kernel #15 *)

val run :
  ?band:Dphls_core.Banding.t option ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine ->
  kind ->
  query:string ->
  reference:string ->
  alignment * Dphls_systolic.Engine.cycles option
(** One pair through {!Dphls_engines.Engines.run_batch} on the kind's
    kernel (DNA strings, or amino-acid strings for [Protein_local]):
    the alignment, plus the answer's modeled device cycles in full
    ([device_cycles] is their [total]). The five named entry points
    below are this call; [Dphls.Batch] runs it once per pair and
    reads the cycles for its prologue-overlap accounting. *)

val alignable : kind -> string -> (unit, string) result
(** [Ok ()] when {!run} can take the string as one side of a pair of
    this kind: non-empty, every letter in the kind's alphabet (DNA, or
    amino acids for [Protein_local]). Otherwise the reason:
    ["empty sequence"], or the encoder's message
    (["Dna.encode: 'X'"]). *)

val global :
  ?band:Dphls_core.Banding.t option ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine -> query:string -> reference:string -> unit -> alignment
(** Needleman-Wunsch (kernel #1 defaults) over DNA strings.

    All five helpers accept [?band] to override the kernel's banding:
    absent keeps it, [~band:None] runs unbanded and
    [~band:(Some (Dphls_core.Banding.fixed 32))] (or [Banding.adaptive])
    runs under that band.
    Under an adaptive band the Golden engine decides the band at its
    canonical single-chunk trajectory; the Systolic engine decides it
    with [N_PE]-row chunks, so their pruning (and possibly scores) may
    differ — that is the expected hardware behavior, not a bug.

    [?metrics]/[?tracer] (defaults: the disabled sinks) are forwarded to
    the chosen engine's run: counters land once per alignment, spans
    cover the engine phases. See {!Dphls_obs} and [dphls profile]. *)

val global_affine :
  ?band:Dphls_core.Banding.t option ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine -> query:string -> reference:string -> unit -> alignment
(** Gotoh (kernel #2 defaults). *)

val local :
  ?band:Dphls_core.Banding.t option ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine -> query:string -> reference:string -> unit -> alignment
(** Smith-Waterman (kernel #3 defaults). *)

val semi_global :
  ?band:Dphls_core.Banding.t option ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine -> query:string -> reference:string -> unit -> alignment
(** Query end-to-end within the reference (kernel #7 defaults). *)

val protein_local :
  ?band:Dphls_core.Banding.t option ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  ?engine:engine -> query:string -> reference:string -> unit -> alignment
(** BLOSUM62 Smith-Waterman over amino-acid strings (kernel #15). *)
