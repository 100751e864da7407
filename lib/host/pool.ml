(* Fixed-size domain pool with a chunked work queue. Worker 0 is
   whichever domain calls [run]; workers 1 .. n-1 are the spawned
   domains. One mutex guards the queue, the completion latch, and the
   failure cell; [nonempty] wakes the spawned workers, [all_done] wakes
   the client waiting in [run] once it has drained the queue itself.
   Result slots are written by exactly one worker and read by the
   client only after the completion handshake, so no further
   synchronization is needed on the array itself. *)

let now () = Unix.gettimeofday ()

type t = {
  n_workers : int;
  queue : (int -> unit) Queue.t;  (* jobs receive the executing worker's id *)
  m : Mutex.t;
  nonempty : Condition.t;
  all_done : Condition.t;
  mutable stop : bool;
  mutable joined : bool;
  mutable domains : unit Domain.t array;  (* workers 1 .. n-1 *)
  busy_s : float array;      (* per-worker task-execution seconds *)
  mutable arbiter_s : float; (* queue critical-section seconds *)
  mutable idle_waits : int;  (* times a worker blocked on an empty queue *)
}

let workers t = t.n_workers

(* Pops the next job and runs it as worker [id]: called with [t.m] held
   and a non-empty queue, returns with [t.m] released. *)
let exec_next t id =
  let t0 = now () in
  let job = Queue.pop t.queue in
  t.arbiter_s <- t.arbiter_s +. (now () -. t0);
  Mutex.unlock t.m;
  let t1 = now () in
  (* jobs capture their own exceptions; belt and braces so a worker
     domain can never die *)
  (try job id with _ -> ());
  t.busy_s.(id) <- t.busy_s.(id) +. (now () -. t1)

let worker t id () =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stop do
      t.idle_waits <- t.idle_waits + 1;
      Condition.wait t.nonempty t.m
    done;
    if Queue.is_empty t.queue then (* stop requested and queue drained *)
      Mutex.unlock t.m
    else begin
      exec_next t id;
      loop ()
    end
  in
  loop ()

let create ?workers () =
  let n_workers =
    match workers with
    | None -> max 1 (Domain.recommended_domain_count ())
    | Some w -> if w < 1 then invalid_arg "Pool.create: workers < 1" else w
  in
  let t =
    {
      n_workers;
      queue = Queue.create ();
      m = Mutex.create ();
      nonempty = Condition.create ();
      all_done = Condition.create ();
      stop = false;
      joined = false;
      domains = [||];
      busy_s = Array.make n_workers 0.0;
      arbiter_s = 0.0;
      idle_waits = 0;
    }
  in
  t.domains <- Array.init (n_workers - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

let shutdown t =
  if not t.joined then begin
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.m;
    Array.iter Domain.join t.domains;
    t.joined <- true
  end

let with_pool ?workers f =
  let t = create ?workers () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

type stats = {
  report : Scheduler.report;
  worker_busy_ns : int array;
}

let ns_of_s s = int_of_float (s *. 1e9)

let build_stats t ~n ~makespan_s =
  let makespan = max 0 (ns_of_s makespan_s) in
  let worker_busy_ns =
    Array.map (fun s -> min (max 0 (ns_of_s s)) makespan) t.busy_s
  in
  let block_busy = Array.fold_left ( + ) 0 worker_busy_ns in
  let arbiter_busy = min (max 0 (ns_of_s t.arbiter_s)) makespan in
  let span = float_of_int (max 1 makespan) in
  let arbiter_utilization = float_of_int arbiter_busy /. span in
  {
    report =
      {
        Scheduler.makespan;
        jobs = n;
        arbiter_busy;
        block_busy;
        arbiter_utilization;
        block_utilization =
          float_of_int block_busy /. (span *. float_of_int t.n_workers);
        bandwidth_bound = arbiter_utilization >= 0.95;
      };
    worker_busy_ns;
  }

let run ?chunk ?(metrics = Dphls_obs.Metrics.disabled)
    ?(tracer = Dphls_obs.Tracer.disabled) t f n =
  if t.stop || t.joined then invalid_arg "Pool.run: pool is shut down";
  if n < 0 then invalid_arg "Pool.run: negative batch size";
  Array.fill t.busy_s 0 t.n_workers 0.0;
  t.arbiter_s <- 0.0;
  if n = 0 then ([||], build_stats t ~n:0 ~makespan_s:0.0)
  else begin
    let chunk =
      match chunk with
      | Some c -> if c < 1 then invalid_arg "Pool.run: chunk < 1" else c
      | None -> max 1 (n / (4 * t.n_workers))
    in
    let n_chunks = (n + chunk - 1) / chunk in
    let results = Array.make n None in
    let remaining = ref n_chunks in
    let failed = ref None in
    let trace_on = Dphls_obs.Tracer.enabled tracer in
    let job lo hi wid =
      let t_job = Dphls_obs.Tracer.now tracer in
      (try
         for i = lo to hi do
           results.(i) <- Some (f i)
         done
       with e ->
         Mutex.lock t.m;
         (match !failed with
         | Some (lo0, _) when lo0 <= lo -> ()
         | _ -> failed := Some (lo, e));
         Mutex.unlock t.m);
      (* the tracer has its own mutex, so workers on different domains
         can record concurrently; one span per dequeued chunk, on the
         worker's own trace row *)
      if trace_on then
        Dphls_obs.Tracer.add_span tracer ~cat:"pool" ~tid:wid ~t0:t_job
          ~t1:(Dphls_obs.Tracer.now tracer) "chunk";
      Mutex.lock t.m;
      decr remaining;
      if !remaining = 0 then Condition.broadcast t.all_done;
      Mutex.unlock t.m
    in
    let t_start = now () in
    Mutex.lock t.m;
    let idle_before = t.idle_waits in
    let t0 = now () in
    for c = 0 to n_chunks - 1 do
      let lo = c * chunk in
      Queue.push (job lo (min (lo + chunk - 1) (n - 1))) t.queue
    done;
    t.arbiter_s <- t.arbiter_s +. (now () -. t0);
    Condition.broadcast t.nonempty;
    (* the caller is worker 0: it drains the queue alongside the spawned
       workers, then waits for the chunks still running on them *)
    while not (Queue.is_empty t.queue) do
      exec_next t 0;
      Mutex.lock t.m
    done;
    while !remaining > 0 do
      Condition.wait t.all_done t.m
    done;
    (* Counters are added here on the client, never by workers: Metrics
       sinks are not domain-safe, and the batch totals are already known
       at the completion handshake. "Steals" are queue-entry grabs
       (chunks dequeued); the idle delta is read under the same lock as
       the completion latch. *)
    let idle_delta = t.idle_waits - idle_before in
    Mutex.unlock t.m;
    Dphls_obs.Metrics.add metrics Pool_tasks n;
    Dphls_obs.Metrics.add metrics Pool_steals n_chunks;
    Dphls_obs.Metrics.add metrics Pool_idle_waits idle_delta;
    let stats = build_stats t ~n ~makespan_s:(now () -. t_start) in
    (match !failed with Some (_, e) -> raise e | None -> ());
    let out =
      Array.map (function Some v -> v | None -> assert false) results
    in
    (out, stats)
  end

let map ?chunk t f n = fst (run ?chunk t f n)

let map_seeded ?chunk t ~seed f n =
  let base = Dphls_util.Rng.create seed in
  let streams = Array.init n (fun _ -> base) in
  for i = 0 to n - 1 do
    streams.(i) <- Dphls_util.Rng.split base
  done;
  map ?chunk t (fun i -> f streams.(i) i) n

let slices k arr =
  if k < 1 then invalid_arg "Pool.slices: k < 1";
  let n = Array.length arr in
  let k = min k (max 1 n) in
  Array.init k (fun s ->
      let lo = s * n / k and hi = (s + 1) * n / k in
      Array.sub arr lo (hi - lo))
