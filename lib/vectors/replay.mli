(** Feed a recorded vector's streams back through a PE implementation.

    Replay reconstructs each recorded cell's PE inputs from the vector
    itself — neighbour scores come from the recorded streams (or the
    kernel's virtual border), band membership from whether a neighbour
    was recorded — evaluates the PE, and diffs the outputs cell by cell
    against the recorded scores and traceback pointer. A kernel whose
    datapath drifted from the committed corpus is caught at the first
    diverging cell, with its (chunk, wavefront, PE) slot named.

    Because neighbours are read from the {e recorded} streams, a single
    perturbed cell in a vector is reported exactly at that cell: the
    perturbation does not propagate downstream as it would in a full
    re-run. *)

val run :
  ?evaluator:[ `Compiled | `Eval | `Pe of Dphls_core.Pe.f ] ->
  'p Dphls_core.Kernel.t ->
  'p ->
  Stream.t ->
  (int, Stream.divergence) result
(** Replay every cell record through the kernel's datapath — its
    compiled single-cell PE {!Dphls_core.Kernel.flat_pe} ([`Compiled],
    default; the engines run the generated row and wave loops pinned
    equal to it) or its reference interpreter
    {!Dphls_core.Datapath.eval} ([`Eval]) — or
    through any other PE for the same kernel ([`Pe f], e.g. a
    hand-written oracle of the recurrence), and return the number of
    cells replayed, or the first divergence.
    Traceback pointers are only compared when the kernel has traceback.
    Raises [Invalid_argument] if the vector's layer count disagrees with
    the kernel's. *)
