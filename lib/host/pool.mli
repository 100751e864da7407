(** Fixed-size domain pool: the host-side realization of the paper's
    N_K parallelism (§4 step 6, Fig 2B).

    Where [Scheduler] *models* N_K/N_B concurrency in cycle counts, this
    pool actually executes independent alignments on OCaml 5 domains.
    Work is dispatched as contiguous index chunks through a shared queue
    (the software analogue of the channel arbiter); results land in an
    array slot per input index, so output order is always input order no
    matter which worker finishes first.

    {!run} is the one way work crosses domains. A task shares nothing
    with the others but its own result slot, and the pool's counters
    are added on the caller after the batch, so a task that is a pure
    function of its index gives the same results at any worker count
    and chunking.

    The domain that calls [run] is worker 0: it runs chunks from the
    queue like the other workers and then waits for theirs, so a
    1-worker pool spawns nothing and runs every task on the caller's
    domain, where per-domain state ([Domain.DLS] buffers) persists
    from one [run] to the next.

    A pool is not reentrant: do not call [run] on the same pool
    from inside a task, and do not share one pool between concurrently
    mapping client domains. *)

type t

val create : ?workers:int -> unit -> t
(** [create ~workers ()] is a pool of [workers] workers (default
    [Domain.recommended_domain_count ()]): it starts [workers - 1]
    persistent domains, and whichever domain calls {!run} executes
    worker 0's chunks. Raises [Invalid_argument] if [workers < 1]. *)

val workers : t -> int

val shutdown : t -> unit
(** Join the spawned worker domains. Idempotent; the pool is unusable
    after. *)

val with_pool : ?workers:int -> (t -> 'a) -> 'a
(** Create, apply, and always shut down (also on exceptions). *)

(** Wall-clock execution statistics of one [run]. [report] reuses the
    {!Scheduler.report} shape with nanoseconds in place of device
    cycles, so measured scaling can be compared against the analytical
    N_K model side by side ({!Throughput.scaling}):
    - [makespan]: wall ns from dispatch to last result;
    - [arbiter_busy]: ns spent inside the shared queue's critical
      section (the dispatch arbiter);
    - [block_busy]: total ns workers spent executing tasks (clamped to
      [workers * makespan] against clock skew);
    - [bandwidth_bound]: dispatch overhead ≥ 95 % of the wall clock. *)
type stats = {
  report : Scheduler.report;
  worker_busy_ns : int array;  (** per-worker task-execution ns *)
}

val run :
  ?chunk:int ->
  ?metrics:Dphls_obs.Metrics.t ->
  ?tracer:Dphls_obs.Tracer.t ->
  t -> (int -> 'a) -> int -> 'a array * stats
(** [run pool f n] evaluates [| f 0; …; f (n-1) |] in parallel. [chunk]
    is the number of consecutive indices per queue entry (default
    [max 1 (n / (4 * workers))]). If any task raises, the exception of
    the lowest-indexed failing chunk is re-raised in the caller after
    the batch drains; the pool remains usable.

    [metrics] (default: disabled) receives [pool_tasks] (= [n]),
    [pool_steals] (queue entries dequeued, i.e. chunks), and
    [pool_idle_waits] (times a spawned worker blocked on an empty
    queue during the batch) — all added on the calling thread after the
    completion handshake, because {!Dphls_obs.Metrics} sinks are not
    domain-safe. [tracer] (default: disabled) records one ["chunk"] span
    per queue entry under the ["pool"] category with the executing
    worker's index as [tid] (0: the caller's track); the tracer is
    mutex-protected, so sharing it across worker domains is safe. *)

val slices : int -> 'a array -> 'a array array
(** [slices k arr] cuts the [n] elements of [arr] into
    [m = min k (max 1 n)] contiguous slices in input order, slice [s]
    holding indices [s*n/m] to [(s+1)*n/m - 1]: sizes differ by at most
    one, and an empty [arr] gives one empty slice. This is the
    per-worker cut: serve runs each slice of a large flush as one
    engine dispatch on its own worker, and [Dphls.Batch] cuts its
    answers this way to count prologue overlap per worker. Raises
    [Invalid_argument] if [k < 1]. *)
