type t =
  | Cells_evaluated
  | Cells_band_skipped
  | Wavefronts
  | Tb_steps
  | Band_window_moves
  | Tiles
  | Alignments
  | Pool_tasks
  | Pool_steals
  | Pool_idle_waits
  | Engine_fastpath_hits
  | Engine_fastpath_fallbacks
  | Serve_requests_admitted
  | Serve_requests_rejected
  | Serve_requests_expired
  | Serve_cache_hits
  | Serve_requests_completed
  | Serve_batches

let all =
  [|
    Cells_evaluated;
    Cells_band_skipped;
    Wavefronts;
    Tb_steps;
    Band_window_moves;
    Tiles;
    Alignments;
    Pool_tasks;
    Pool_steals;
    Pool_idle_waits;
    Engine_fastpath_hits;
    Engine_fastpath_fallbacks;
    Serve_requests_admitted;
    Serve_requests_rejected;
    Serve_requests_expired;
    Serve_cache_hits;
    Serve_requests_completed;
    Serve_batches;
  |]

let count = Array.length all

(* Written out (rather than derived from [all]) so the hot-path callers
   compile to a constant load, not an array scan. *)
let index = function
  | Cells_evaluated -> 0
  | Cells_band_skipped -> 1
  | Wavefronts -> 2
  | Tb_steps -> 3
  | Band_window_moves -> 4
  | Tiles -> 5
  | Alignments -> 6
  | Pool_tasks -> 7
  | Pool_steals -> 8
  | Pool_idle_waits -> 9
  | Engine_fastpath_hits -> 10
  | Engine_fastpath_fallbacks -> 11
  | Serve_requests_admitted -> 12
  | Serve_requests_rejected -> 13
  | Serve_requests_expired -> 14
  | Serve_cache_hits -> 15
  | Serve_requests_completed -> 16
  | Serve_batches -> 17

let name = function
  | Cells_evaluated -> "cells_evaluated"
  | Cells_band_skipped -> "cells_band_skipped"
  | Wavefronts -> "wavefronts"
  | Tb_steps -> "tb_steps"
  | Band_window_moves -> "band_window_moves"
  | Tiles -> "tiles"
  | Alignments -> "alignments"
  | Pool_tasks -> "pool_tasks"
  | Pool_steals -> "pool_steals"
  | Pool_idle_waits -> "pool_idle_waits"
  | Engine_fastpath_hits -> "engine_fastpath_hits"
  | Engine_fastpath_fallbacks -> "engine_fastpath_fallbacks"
  | Serve_requests_admitted -> "serve_requests_admitted"
  | Serve_requests_rejected -> "serve_requests_rejected"
  | Serve_requests_expired -> "serve_requests_expired"
  | Serve_cache_hits -> "serve_cache_hits"
  | Serve_requests_completed -> "serve_requests_completed"
  | Serve_batches -> "serve_batches"

let unit_name = function
  | Cells_evaluated | Cells_band_skipped -> "cells"
  | Wavefronts -> "wavefronts"
  | Tb_steps -> "steps"
  | Band_window_moves -> "moves"
  | Tiles -> "tiles"
  | Alignments -> "alignments"
  | Pool_tasks -> "tasks"
  | Pool_steals -> "chunks"
  | Pool_idle_waits -> "waits"
  | Engine_fastpath_hits | Engine_fastpath_fallbacks -> "dispatches"
  | Serve_requests_admitted | Serve_requests_rejected
  | Serve_requests_expired | Serve_cache_hits | Serve_requests_completed ->
    "requests"
  | Serve_batches -> "batches"

let describe = function
  | Cells_evaluated ->
    "DP cells computed (PE firings) — systolic and golden engines"
  | Cells_band_skipped ->
    "in-matrix cells pruned by the band — systolic and golden engines"
  | Wavefronts ->
    "wavefronts executed (chunked anti-diagonal order) — systolic engine"
  | Tb_steps -> "traceback FSM iterations (pointer reads) — Walker.walk"
  | Band_window_moves ->
    "adaptive-band window movements (re-centers and edge slides) — \
     Banding.Tracker"
  | Tiles -> "GACT tiles executed — Tiling.align"
  | Alignments -> "engine runs completed — systolic and golden engines"
  | Pool_tasks -> "tasks executed by pool workers — Host.Pool.run"
  | Pool_steals ->
    "work chunks popped from the shared queue — Host.Pool.run"
  | Pool_idle_waits ->
    "times a worker blocked on an empty queue during a batch — Host.Pool"
  | Engine_fastpath_hits ->
    "auto dispatches routed to the bit-parallel engine — Engines.select"
  | Engine_fastpath_fallbacks ->
    "auto dispatches not routed to the bit-parallel engine: the golden \
     engine, or the simulator for adaptive bands — Engines.select"
  | Serve_requests_admitted ->
    "requests accepted into a per-kernel queue — Serve.Server.submit"
  | Serve_requests_rejected ->
    "requests refused with `overloaded` (queue full) — Serve.Server.submit"
  | Serve_requests_expired ->
    "requests whose deadline passed before dequeue (`deadline_exceeded`, \
     never run) — Serve.Server flush"
  | Serve_cache_hits ->
    "requests answered from the result cache, or from a twin's answer in \
     the same flush, without recompute — Serve.Server"
  | Serve_requests_completed ->
    "requests answered `ok`, from the cache or computed — Serve.Server"
  | Serve_batches ->
    "coalesced engine batches a flush ran — Serve.Server flush"

let of_name s = Array.find_opt (fun c -> name c = s) all
