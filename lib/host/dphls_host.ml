(** Host-side concurrency: the paper's N_K / N_B parallelism knobs,
    both modeled and executed.

    - {!Scheduler} — analytical model of the OpenCL host: jobs with
      transfer-in / compute / transfer-out costs flowing through N_K
      channel arbiters into N_B compute blocks, in device cycles;
    - {!Pool} — a fixed pool of OCaml 5 domains actually executing
      independent alignments, with a chunked shared work queue and
      wall-clock stats in the same report shape as {!Scheduler}, so
      measured and modeled concurrency compare side by side;
    - {!Throughput} — alignments/s arithmetic, measured-vs-modeled
      scaling points ({!Throughput.scaling}) and the bench row schema
      ({!Throughput.row}).

    See [docs/batch.md] for the batch runtime built on top
    ([Dphls.Batch]) and [docs/observability.md] for the pool's
    task/steal/idle counters and per-worker trace spans. *)

module Pool = Pool
module Scheduler = Scheduler
module Throughput = Throughput
