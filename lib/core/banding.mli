(** Banding — the paper's [BANDING]/[BANDWIDTH] search-space pruning
    (§2.2.4, kernels #11-#13 and their adaptive variants #16-#18).

    [Fixed] keeps cells within a constant anti-diagonal distance of the
    main diagonal. [Adaptive] follows the paper's wavefront-best-cell
    band: a window of diagonals (offsets [row - col]) of half-width
    [width] is re-centered after every systolic wavefront on that
    wavefront's best layer-0 score, and additionally narrowed to the
    cells scoring within [threshold] of the wavefront best (X-drop-style
    pruning), so well-matching regions compute strictly fewer cells than
    a fixed band of equal width. Pruned cells read as the objective's
    worst value in both engines.

    A kernel's banding is a [t option] ([None] is unbanded), and an
    override of it — the CLI's [--band] flags, the serve ["band"]
    field, a vector spec — is a [t option option], [None] keeping the
    kernel's own. Build bands with {!fixed} and {!adaptive}, which
    refuse bad widths and thresholds. *)

type t =
  | Fixed of { width : int }
  | Adaptive of { width : int; threshold : int }

val default_threshold : int
(** Default score drop-off for {!adaptive} (40, matching the X-Drop
    ablation baseline in the experiments). *)

val fixed : int -> t
(** [fixed w] keeps cells with [|row - col| <= w]. Width must be >= 1 so
    the diagonal's direct neighbours exist. *)

val adaptive : ?threshold:int -> int -> t
(** [adaptive w] follows the wavefront-best cell with a half-width [w]
    window, pruning cells more than [threshold] below the running
    wavefront best. Raises on [w < 1] or [threshold < 0]. *)

val width : t -> int
(** The band half-width of either variant. *)

val to_string : t option -> string
(** The one spelling of a kernel's banding: ["none"], ["fixed W"] or
    ["adaptive W T"]. The [.dpv] header's band line, the
    {!Fingerprint.params_hash} input and the serve group and cache keys
    all use it. *)

val in_band : t option -> row:int -> col:int -> bool
(** Static membership. [None] means unbanded (always true). Virtual
    border cells (row or col = -1) follow the same rule so init values
    join the band smoothly. Raises [Invalid_argument] for [Adaptive]
    bands, whose membership is decided per wavefront — use {!Tracker}. *)

val cells_in_band : t option -> qry_len:int -> ref_len:int -> int
(** Computed-cell count for workload accounting, as a closed-form
    per-row window sum (O(qry_len)). For [Adaptive] this is the static
    envelope of the moving window; the engines report actual counts. *)

(** Shared adaptive-band state machine. Both engines drive one tracker
    through the identical chunked-wavefront traversal (chunks of
    [chunk_rows] query rows; within a chunk, wavefront [w] holds cells
    [(r0 + k, w - k)]), which is what keeps systolic and reference
    pruning bit-identical. Protocol per chunk: {!start_chunk}, then per
    wavefront {!decide} each candidate cell (in ascending row order),
    {!observe} each computed cell's layer-0 score, and {!end_wavefront}
    once the wavefront retires. *)
module Tracker : sig
  type band := t
  type t

  val create :
    band ->
    objective:Dphls_util.Score.objective ->
    chunk_rows:int ->
    qry_len:int ->
    ref_len:int ->
    t
  (** Raises [Invalid_argument] unless [band] is [Adaptive].
      [chunk_rows] is the systolic array height (N_PE); the band
      trajectory depends on it because only completed wavefronts can
      steer the window. *)

  val start_chunk : t -> chunk:int -> unit
  (** Re-seeds the window for chunk [chunk]: chunk 0 starts centered on
      the origin diagonal; later chunks re-center on the best cell of
      the previous chunk's last row (the freshest complete row). *)

  val decide : t -> row:int -> col:int -> bool
  (** Whether the cell is inside the current window; records the
      decision so {!member} can answer later reads. Call exactly once
      per candidate cell, in wavefront order. *)

  val observe : t -> row:int -> col:int -> score:int -> unit
  (** Feed a computed cell's layer-0 score into the wavefront stats. *)

  val end_wavefront : t -> unit
  (** Slide the window: re-center on this wavefront's best cell and
      shrink to the live (within-[threshold]) hull grown by one. A
      wavefront with no computed cells leaves the window unchanged. *)

  val member : t -> row:int -> col:int -> bool
  (** Was (row, col) decided in-band? Virtual border cells (row or col
      = -1) are always members so init values join the band. Only valid
      for cells whose wavefront has already been decided. *)

  val cells_computed : t -> int

  val window : t -> int * int
  (** Current window [(lo, hi)] in diagonal-offset ([row - col]) space —
      the band the next wavefront's {!decide} calls will consult. The
      golden-vector harness ({!Dphls_vectors}) records this after every
      wavefront so band trajectories can be diffed across PRs. *)

  val window_moves : t -> int
  (** How many times the window [(lo, hi)] actually changed — wavefront
      slides plus chunk re-seeds that landed somewhere new. Feeds the
      [band_window_moves] observability counter
      ({!Dphls_obs.Counter.t}); a high rate relative to wavefronts means
      the band is chasing a wandering alignment path. *)
end
