module Catalog = Dphls_kernels.Catalog
module Registry = Dphls_core.Registry
module Kernel = Dphls_core.Kernel
module Workload = Dphls_core.Workload
module Banding = Dphls_core.Banding
module Res = Dphls_core.Result
module Engines = Dphls_engines.Engines
module Engine_intf = Dphls_engines.Engine_intf
module Metrics = Dphls_obs.Metrics
module Tracer = Dphls_obs.Tracer
module Counter = Dphls_obs.Counter
module Stats = Dphls_util.Stats
module Pool = Dphls_host.Pool

type config = {
  queue_depth : int;
  batch_max : int;
  cache_capacity : int;
  max_seq_len : int;
  max_line_bytes : int;
  default_deadline_ms : float option;
  n_pe : int;
  workers : int;
  slo_p99_ms : float option;
  now : unit -> float;
  metrics : Metrics.t;
  tracer : Tracer.t;
}

let default_config () =
  {
    queue_depth = 256;
    batch_max = 64;
    cache_capacity = 4096;
    max_seq_len = 4096;
    max_line_bytes = 1 lsl 20;
    default_deadline_ms = None;
    n_pe = 32;
    workers = 1;
    slo_p99_ms = None;
    now = Unix.gettimeofday;
    metrics = Metrics.disabled;
    tracer = Tracer.disabled;
  }

(* one request sitting in a coalescing queue *)
type pending = {
  prid : string;
  w : Workload.t;
  admit_s : float;  (** [cfg.now] at admission — latency origin *)
  tr0 : float;  (** tracer clock at admission — "request" span origin *)
  deadline_s : float option;  (** absolute, [cfg.now] clock *)
  ckey : string option;  (** cache key; [None] when the cache is off *)
}

(* one coalescing group: every pending request here shares a kernel,
   a band override and an engine choice, so a flush is one batch *)
type group = {
  banded : Registry.packed;  (** kernel with the band override applied *)
  params_hash : string;
      (** {!Dphls_core.Fingerprint.params_hash} of [banded], computed once
          when the group is created *)
  choice : Engines.choice;
  q : pending Queue.t;
}

(* beyond this many completed requests, latency percentiles come from a
   uniform reservoir (Algorithm R) so a soak's memory stays flat;
   max_ms stays exact *)
let lat_reservoir_cap = 1 lsl 17

type t = {
  cfg : config;
  groups : (string, group) Hashtbl.t;
  mutable order : string list;  (* group keys, creation order reversed *)
  cache : Cache.t;
  mutable pool : Pool.t option;
  mutable next_rid : int;
  lat_rng : Dphls_util.Rng.t;
  mutable admitted : int;
  mutable rejected : int;
  mutable expired : int;
  mutable cache_hits : int;
  mutable completed : int;
  mutable batches : int;
  mutable lat : float array;
  mutable lat_n : int;
  mutable lat_seen : int;
  mutable lat_max : float;
  mutable closed : bool;
}

let create cfg =
  if cfg.queue_depth < 1 then invalid_arg "Server.create: queue_depth < 1";
  if cfg.batch_max < 1 then invalid_arg "Server.create: batch_max < 1";
  if cfg.max_seq_len < 1 then invalid_arg "Server.create: max_seq_len < 1";
  if cfg.n_pe < 1 then invalid_arg "Server.create: n_pe < 1";
  if cfg.workers < 1 then invalid_arg "Server.create: workers < 1";
  {
    cfg;
    groups = Hashtbl.create 16;
    order = [];
    cache = Cache.create ~capacity:cfg.cache_capacity;
    pool = None;
    next_rid = 0;
    lat_rng = Dphls_util.Rng.create 0x5e7e;
    admitted = 0;
    rejected = 0;
    expired = 0;
    cache_hits = 0;
    completed = 0;
    batches = 0;
    (* preallocated to the cap (1 MiB of floats) so the server's
       footprint is constant from the first request — the soak's flat-RSS
       gate would otherwise see the reservoir ramping for the first 128k
       completions *)
    lat = Array.make lat_reservoir_cap 0.0;
    lat_n = 0;
    lat_seen = 0;
    lat_max = 0.0;
    closed = false;
  }

let record_latency t ms =
  t.lat_seen <- t.lat_seen + 1;
  if ms > t.lat_max then t.lat_max <- ms;
  if t.lat_n < lat_reservoir_cap then begin
    t.lat.(t.lat_n) <- ms;
    t.lat_n <- t.lat_n + 1
  end
  else
    let j = Dphls_util.Rng.int t.lat_rng t.lat_seen in
    if j < lat_reservoir_cap then t.lat.(j) <- ms

let end_request_span t ~tr0 =
  Tracer.add_span t.cfg.tracer ~cat:"serve" ~t0:tr0
    ~t1:(Tracer.now t.cfg.tracer) "request"

let err rid code message = Proto.Error_response { rid; code; message }

let cycles_of stats =
  Option.map
    (fun s -> s.Dphls_systolic.Engine.cycles.Dphls_systolic.Engine.total)
    stats

let get_pool t =
  match t.pool with
  | Some p -> p
  | None ->
    let p = Pool.create ~workers:t.cfg.workers () in
    t.pool <- Some p;
    p

(* contiguous slices for the worker pool; at most [n] non-empty ones *)
let slices_of arr n =
  let len = Array.length arr in
  let n = max 1 (min n len) in
  let base = len / n and extra = len mod n in
  Array.init n (fun i ->
      let start = (i * base) + min i extra in
      let stop = ((i + 1) * base) + min (i + 1) extra in
      Array.sub arr start (stop - start))

(* run [ws] on one concrete engine as a single coalesced batch, slicing
   across the pool when it is big enough to amortize the dispatch *)
let run_uniform (type p) t e (k : p Kernel.t) (p : p)
    (ws : Workload.t array) =
  let (module E : Engine_intf.S) = e in
  let ecfg = Engine_intf.config ~n_pe:t.cfg.n_pe () in
  t.batches <- t.batches + 1;
  let results =
    if t.cfg.workers > 1 && Array.length ws >= 2 * t.cfg.workers then begin
      let pool = get_pool t in
      let slices = slices_of ws (Pool.workers pool) in
      let per, _stats =
        Pool.run ~metrics:t.cfg.metrics pool
          (fun i ->
            (* per-worker sink, merged below: Metrics.t is not
               domain-safe, so workers never touch the shared one *)
            let local = Metrics.create () in
            let rs, _ = E.run_batch ~overlap:true ~metrics:local ecfg k p
                slices.(i)
            in
            (rs, local))
          (Array.length slices)
      in
      Array.iter
        (fun (_, local) -> Metrics.merge_into ~into:t.cfg.metrics local)
        per;
      Array.concat (Array.to_list (Array.map fst per))
    end
    else
      fst
        (E.run_batch ~overlap:true ~metrics:t.cfg.metrics
           ~tracer:t.cfg.tracer ecfg k p ws)
  in
  Array.map
    (fun (r, stats) ->
      {
        Cache.score = r.Res.score;
        cigar = Res.cigar r;
        cycles = cycles_of stats;
        engine = E.name;
      })
    results

(* one Cache.value per workload, or one error for the whole run *)
let compute t g (ws : Workload.t array) =
  match g.banded with
  | Registry.Packed (k, p) -> (
    try
      Ok
        (match g.choice with
        | Engines.Forced e -> run_uniform t e k p ws
        | Engines.Auto ->
          let choices =
            Array.map
              (fun w ->
                let qry_len, ref_len = Workload.sizes w in
                Engines.select ~metrics:t.cfg.metrics ~qry_len ~ref_len k p)
              ws
          in
          if
            Array.length ws > 0
            && Array.for_all (fun e -> e == choices.(0)) choices
          then run_uniform t choices.(0) k p ws
          else
            Array.mapi
              (fun i w -> (run_uniform t choices.(i) k p [| w |]).(0))
              ws)
    with
    | Engine_intf.Unsupported msg -> Error (Proto.Unsupported, msg)
    | Stack_overflow -> Error (Proto.Internal, "stack overflow")
    | exn -> Error (Proto.Internal, Printexc.to_string exn))

let take_chunk q n =
  let m = min n (Queue.length q) in
  Array.init m (fun _ -> Queue.pop q)

let ok_response t (pnd : pending) (v : Cache.value) ~cached ~done_s =
  let latency_ms = (done_s -. pnd.admit_s) *. 1e3 in
  t.completed <- t.completed + 1;
  record_latency t latency_ms;
  end_request_span t ~tr0:pnd.tr0;
  Proto.Ok_response
    {
      rid = pnd.prid;
      score = v.Cache.score;
      cigar = v.Cache.cigar;
      cycles = v.Cache.cycles;
      engine = v.Cache.engine;
      cached;
      latency_ms;
    }

(* flush one group completely, in admission order, [batch_max] at a
   time: expire stale requests at dequeue, batch the survivors *)
let flush_group t g =
  let out = ref [] in
  while not (Queue.is_empty g.q) do
    let chunk = take_chunk g.q t.cfg.batch_max in
    let n = Array.length chunk in
    let slots = Array.make n None in
    let now_s = t.cfg.now () in
    let live_idx =
      let keep = ref [] in
      Array.iteri
        (fun i pnd ->
          match pnd.deadline_s with
          | Some d when now_s > d ->
            t.expired <- t.expired + 1;
            Metrics.incr t.cfg.metrics Counter.Serve_requests_expired;
            end_request_span t ~tr0:pnd.tr0;
            slots.(i) <-
              Some
                (err (Some pnd.prid) Proto.Deadline_exceeded
                   (Printf.sprintf
                      "deadline passed %.1f ms before dequeue; not run"
                      ((now_s -. d) *. 1e3)))
          | _ -> keep := i :: !keep)
        chunk;
      Array.of_list (List.rev !keep)
    in
    if Array.length live_idx > 0 then begin
      let ws = Array.map (fun i -> chunk.(i).w) live_idx in
      let outcome =
        Tracer.span t.cfg.tracer ~cat:"serve" "compute" (fun () ->
            compute t g ws)
      in
      let done_s = t.cfg.now () in
      match outcome with
      | Ok values ->
        Array.iteri
          (fun j i ->
            let pnd = chunk.(i) in
            let v = values.(j) in
            (match pnd.ckey with
            | Some key -> Cache.add t.cache key v
            | None -> ());
            slots.(i) <- Some (ok_response t pnd v ~cached:false ~done_s))
          live_idx
      | Error (code, msg) ->
        Array.iter
          (fun i ->
            let pnd = chunk.(i) in
            end_request_span t ~tr0:pnd.tr0;
            slots.(i) <- Some (err (Some pnd.prid) code msg))
          live_idx
    end;
    Array.iter
      (fun s -> match s with Some r -> out := r :: !out | None -> ())
      slots
  done;
  List.rev !out

(* --- admission ------------------------------------------------------- *)

let apply_band band packed =
  match packed with
  | Registry.Packed (k, p) ->
    let k' =
      match band with
      | Proto.Band_keep -> k
      | Proto.Band_none -> { k with Kernel.banding = None }
      | Proto.Band_fixed w -> { k with Kernel.banding = Some (Banding.fixed w) }
      | Proto.Band_adaptive (w, th) ->
        { k with Kernel.banding = Some (Banding.adaptive ~threshold:th w) }
    in
    Registry.Packed (k', p)

let find_group t (req : Proto.request) ~kid ~(entry : Catalog.entry) =
  let key =
    Printf.sprintf "%d|%s|%s" kid
      (Proto.band_signature req.Proto.band)
      req.Proto.engine_label
  in
  let g =
    match Hashtbl.find_opt t.groups key with
    | Some g -> g
    | None ->
      let banded = apply_band req.Proto.band entry.Catalog.packed in
      let (Registry.Packed (k, p)) = banded in
      let g =
        {
          banded;
          params_hash = Dphls_core.Fingerprint.params_hash k p ~n_pe:t.cfg.n_pe;
          choice = req.Proto.engine;
          q = Queue.create ();
        }
      in
      Hashtbl.add t.groups key g;
      t.order <- key :: t.order;
      g
  in
  (key, g)

let cache_key t g (req : Proto.request) ~kid =
  if Cache.capacity t.cache <= 0 then None
  else
    (* the engine label is part of the identity: a forced engine must
       report its own characteristics (cycles, cigar emptiness), not
       another backend's cached answer *)
    Some
      (Printf.sprintf "%d|%s|%s|%s|%s|%s" kid
         g.params_hash
         (Proto.band_signature req.Proto.band)
         req.Proto.engine_label req.Proto.qry req.Proto.ref_seq)

let admit t (req : Proto.request) ~t_admit ~tr0 =
  let reply code msg =
    end_request_span t ~tr0;
    [ err req.Proto.rid code msg ]
  in
  match
    match int_of_string_opt req.Proto.kernel_spec with
    | Some n -> Catalog.find n
    | None -> Catalog.find_by_name req.Proto.kernel_spec
  with
  | exception Not_found ->
    reply Proto.Unknown_kernel
      (Printf.sprintf "no catalog kernel matches %S" req.Proto.kernel_spec)
  | entry -> (
    let kid = Registry.id entry.Catalog.packed in
    let encode =
      match entry.Catalog.alphabet with
      | "DNA" -> Some Dphls_alphabet.Dna.of_string
      | "Amino acids" -> Some Dphls_alphabet.Protein.of_string
      | _ -> None
    in
    match encode with
    | None ->
      reply Proto.Unsupported
        (Printf.sprintf
           "kernel #%d takes %s inputs, which the line protocol cannot carry"
           kid entry.Catalog.alphabet)
    | Some encode -> (
      let ql = String.length req.Proto.qry
      and rl = String.length req.Proto.ref_seq in
      if ql > t.cfg.max_seq_len || rl > t.cfg.max_seq_len then
        reply Proto.Oversized
          (Printf.sprintf "sequence length %d exceeds max_seq_len %d"
             (max ql rl) t.cfg.max_seq_len)
      else if ql = 0 || rl = 0 then
        reply Proto.Bad_request "qry and ref must be non-empty"
      else
        match
          Workload.of_bases ~query:(encode req.Proto.qry)
            ~reference:(encode req.Proto.ref_seq)
        with
        | exception Invalid_argument msg -> reply Proto.Bad_request msg
        | w -> (
          let _key, g = find_group t req ~kid ~entry in
          let prid =
            match req.Proto.rid with
            | Some r -> r
            | None ->
              t.next_rid <- t.next_rid + 1;
              Printf.sprintf "r%d" t.next_rid
          in
          let ckey = cache_key t g req ~kid in
          let cached =
            match ckey with Some k -> Cache.find t.cache k | None -> None
          in
          match cached with
          | Some v ->
            t.admitted <- t.admitted + 1;
            t.cache_hits <- t.cache_hits + 1;
            Metrics.incr t.cfg.metrics Counter.Serve_requests_admitted;
            Metrics.incr t.cfg.metrics Counter.Serve_cache_hits;
            let pnd =
              { prid; w; admit_s = t_admit; tr0; deadline_s = None; ckey }
            in
            [ ok_response t pnd v ~cached:true ~done_s:(t.cfg.now ()) ]
          | None ->
            if Queue.length g.q >= t.cfg.queue_depth then begin
              t.rejected <- t.rejected + 1;
              Metrics.incr t.cfg.metrics Counter.Serve_requests_rejected;
              reply Proto.Overloaded
                (Printf.sprintf
                   "kernel #%d queue is full (%d pending); retry later" kid
                   (Queue.length g.q))
            end
            else begin
              let deadline_s =
                match
                  match req.Proto.deadline_ms with
                  | Some _ as d -> d
                  | None -> t.cfg.default_deadline_ms
                with
                | Some d -> Some (t_admit +. (d /. 1e3))
                | None -> None
              in
              Queue.push { prid; w; admit_s = t_admit; tr0; deadline_s; ckey }
                g.q;
              t.admitted <- t.admitted + 1;
              Metrics.incr t.cfg.metrics Counter.Serve_requests_admitted;
              if Queue.length g.q >= t.cfg.batch_max then flush_group t g
              else []
            end)))

let submit t line =
  if t.closed then invalid_arg "Server.submit: server is closed";
  let t_admit = t.cfg.now () in
  let tr0 = Tracer.now t.cfg.tracer in
  Tracer.span t.cfg.tracer ~cat:"serve" "admit" (fun () ->
      if String.length line > t.cfg.max_line_bytes then
        [
          err None Proto.Oversized
            (Printf.sprintf "request line of %d bytes exceeds max of %d"
               (String.length line) t.cfg.max_line_bytes);
        ]
      else
        match Proto.parse_request line with
        | Error (rid, code, msg) -> [ err rid code msg ]
        | Ok req -> admit t req ~t_admit ~tr0)

let flush t =
  List.concat_map
    (fun key -> flush_group t (Hashtbl.find t.groups key))
    (List.rev t.order)

let drain = flush

let pending t =
  Hashtbl.fold (fun _ g acc -> acc + Queue.length g.q) t.groups 0

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.pool with
    | Some p ->
      Pool.shutdown p;
      t.pool <- None
    | None -> ()
  end

(* --- summary --------------------------------------------------------- *)

type summary = {
  admitted : int;
  rejected : int;
  expired : int;
  cache_hits : int;
  completed : int;
  batches : int;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
  slo_p99_ms : float option;
  slo_ok : bool;
}

let summary t =
  let p50, p99 =
    if t.lat_n = 0 then (0.0, 0.0)
    else
      let xs = Array.sub t.lat 0 t.lat_n in
      (Stats.percentile_exact xs 50.0, Stats.percentile_exact xs 99.0)
  in
  let slo_ok =
    match t.cfg.slo_p99_ms with
    | None -> true
    | Some s -> t.lat_n = 0 || p99 <= s
  in
  {
    admitted = t.admitted;
    rejected = t.rejected;
    expired = t.expired;
    cache_hits = t.cache_hits;
    completed = t.completed;
    batches = t.batches;
    p50_ms = p50;
    p99_ms = p99;
    max_ms = t.lat_max;
    slo_p99_ms = t.cfg.slo_p99_ms;
    slo_ok;
  }

let summary_to_text s =
  let b = Buffer.create 256 in
  Buffer.add_string b "serve summary:\n";
  Buffer.add_string b
    (Printf.sprintf "  admitted   %10d requests\n" s.admitted);
  Buffer.add_string b
    (Printf.sprintf "  rejected   %10d requests (overloaded)\n" s.rejected);
  Buffer.add_string b
    (Printf.sprintf "  expired    %10d requests (deadline_exceeded)\n"
       s.expired);
  Buffer.add_string b
    (Printf.sprintf "  cache hits %10d requests\n" s.cache_hits);
  Buffer.add_string b
    (Printf.sprintf "  completed  %10d requests in %d batches\n" s.completed
       s.batches);
  Buffer.add_string b
    (Printf.sprintf "  latency    p50 %.3f ms  p99 %.3f ms  max %.3f ms\n"
       s.p50_ms s.p99_ms s.max_ms);
  (match s.slo_p99_ms with
  | Some slo ->
    Buffer.add_string b
      (Printf.sprintf "  SLO        p99 <= %.3f ms: %s\n" slo
         (if s.slo_ok then "met" else "VIOLATED"))
  | None -> ());
  Buffer.contents b

let summary_to_json s =
  Printf.sprintf
    "{\"admitted\":%d,\"rejected\":%d,\"expired\":%d,\"cache_hits\":%d,\"completed\":%d,\"batches\":%d,\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"max_ms\":%.3f,\"slo_p99_ms\":%s,\"slo_ok\":%b}"
    s.admitted s.rejected s.expired s.cache_hits s.completed s.batches
    s.p50_ms s.p99_ms s.max_ms
    (match s.slo_p99_ms with Some v -> Printf.sprintf "%.3f" v | None -> "null")
    s.slo_ok
