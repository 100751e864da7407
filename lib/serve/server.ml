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
module Json = Dphls_util.Json
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
   a band override and an engine choice, so a flush is one batch. A
   group exists only while it holds requests: the first queued request
   creates it, and draining its queue drops it. *)
type group = {
  banded : Registry.packed;  (** kernel with the band override applied *)
  choice : Engines.choice;
  q : pending Queue.t;
}

(* beyond this many completed requests, latency percentiles come from a
   uniform reservoir (Algorithm R) so a soak's memory stays flat;
   max_ms stays exact *)
let lat_reservoir_cap = 1 lsl 17

type t = {
  cfg : config;
  counts : Metrics.t;
      (* the one store of the six serve counts: [cfg.metrics] when it is
         enabled, a private sink otherwise *)
  groups : (string, group) Hashtbl.t;  (* the groups holding requests *)
  mutable order : string list;  (* their keys, creation order reversed *)
  cache : Cache.t;
  mutable pool : Pool.t option;
  mutable next_rid : int;
  lat_rng : Dphls_util.Rng.t;
  lat : float array;
      (* the first [min completed lat_reservoir_cap] slots are filled *)
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
    counts =
      (if Metrics.enabled cfg.metrics then cfg.metrics else Metrics.create ());
    groups = Hashtbl.create 16;
    order = [];
    cache = Cache.create ~capacity:cfg.cache_capacity;
    pool = None;
    next_rid = 0;
    lat_rng = Dphls_util.Rng.create 0x5e7e;
    (* preallocated to the cap (1 MiB of floats) so the server's
       footprint is constant from the first request — the soak's flat-RSS
       gate would otherwise see the reservoir ramping for the first 128k
       completions *)
    lat = Array.make lat_reservoir_cap 0.0;
    lat_max = 0.0;
    closed = false;
  }

let count t c = Metrics.get t.counts c

(* the [seen]-th completed request's latency *)
let record_latency t ~seen ms =
  if ms > t.lat_max then t.lat_max <- ms;
  if seen <= lat_reservoir_cap then t.lat.(seen - 1) <- ms
  else
    let j = Dphls_util.Rng.int t.lat_rng seen in
    if j < lat_reservoir_cap then t.lat.(j) <- ms

let end_request_span t ~tr0 =
  Tracer.add_span t.cfg.tracer ~cat:"serve" ~t0:tr0
    ~t1:(Tracer.now t.cfg.tracer) "request"

let err rid code message = Proto.Error_response { rid; code; message }

let get_pool t =
  match t.pool with
  | Some p -> p
  | None ->
    let p = Pool.create ~workers:t.cfg.workers () in
    t.pool <- Some p;
    p

(* one Cache.value per workload, or one error for the whole run *)
let compute t g (ws : Workload.t array) =
  match g.banded with
  | Registry.Packed (k, p) -> (
    Metrics.incr t.counts Counter.Serve_batches;
    let dispatch ?tracer metrics ws = Engines.run_batch ~metrics ?tracer g.choice k p ws in
    try
      let ran =
        if t.cfg.workers > 1 && Array.length ws >= 2 * t.cfg.workers then begin
          (* big enough to amortize the pool: cut into per-worker
             slices, each one dispatch into a sink of its own, merged
             below, because Metrics.t is not domain-safe *)
          let pool = get_pool t in
          let slices = Pool.slices (Pool.workers pool) ws in
          let per, _stats =
            Pool.run ~metrics:t.cfg.metrics pool
              (fun i ->
                let local = Metrics.create () in
                (dispatch local slices.(i), local))
              (Array.length slices)
          in
          Array.iter
            (fun (_, local) -> Metrics.merge_into ~into:t.cfg.metrics local)
            per;
          Array.concat (Array.to_list (Array.map fst per))
        end
        else dispatch ~tracer:t.cfg.tracer t.cfg.metrics ws
      in
      Ok
        (Array.map
           (fun (r : Engines.ran) ->
             {
               Cache.score = r.Engines.result.Res.score;
               cigar = Res.cigar r.Engines.result;
               cycles =
                 Option.map
                   (fun c -> c.Dphls_systolic.Engine.total)
                   r.Engines.cycles;
               engine = r.Engines.engine;
             })
           ran)
    with
    | Engine_intf.Unsupported msg -> Error (Proto.Unsupported, msg)
    | Stack_overflow -> Error (Proto.Internal, "stack overflow")
    | exn -> Error (Proto.Internal, Printexc.to_string exn))

let take_chunk q n =
  let m = min n (Queue.length q) in
  Array.init m (fun _ -> Queue.pop q)

let ok_response t (pnd : pending) (v : Cache.value) ~cached ~done_s =
  let latency_ms = (done_s -. pnd.admit_s) *. 1e3 in
  Metrics.incr t.counts Counter.Serve_requests_completed;
  record_latency t ~seen:(count t Counter.Serve_requests_completed) latency_ms;
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

(* how a live request of a chunk is answered *)
type source =
  | Hit of Cache.value  (* the result cache already holds its key *)
  | Run of int  (* workload [j] of the chunk's engine batch *)
  | Twin of int  (* workload [j], which an earlier request with its key runs *)

(* flush one group completely, in admission order, [batch_max] at a
   time: expire stale requests at dequeue, answer the ones whose key is
   cached or already runs in this chunk, batch the rest *)
let flush_group t g =
  let out = ref [] in
  while not (Queue.is_empty g.q) do
    let chunk = take_chunk g.q t.cfg.batch_max in
    let n = Array.length chunk in
    let slots = Array.make n None and sources = Array.make n None in
    (* the batch, newest first, and each key's index in it *)
    let runs = ref [] and n_runs = ref 0 and first = Hashtbl.create 16 in
    let run w =
      runs := w :: !runs;
      incr n_runs;
      !n_runs - 1
    in
    let now_s = t.cfg.now () in
    Array.iteri
      (fun i pnd ->
        match pnd.deadline_s with
        | Some d when now_s > d ->
          Metrics.incr t.counts Counter.Serve_requests_expired;
          end_request_span t ~tr0:pnd.tr0;
          slots.(i) <-
            Some
              (err (Some pnd.prid) Proto.Deadline_exceeded
                 (Printf.sprintf
                    "deadline passed %.1f ms before dequeue; not run"
                    ((now_s -. d) *. 1e3)))
        | _ ->
          sources.(i) <-
            Some
              (match pnd.ckey with
              | None -> Run (run pnd.w)
              | Some key -> (
                match Cache.find t.cache key with
                | Some v -> Hit v
                | None -> (
                  match Hashtbl.find_opt first key with
                  | Some j -> Twin j
                  | None ->
                    let j = run pnd.w in
                    Hashtbl.add first key j;
                    Run j))))
      chunk;
    if Array.exists Option.is_some sources then begin
      let outcome =
        if !n_runs = 0 then Ok [||]
        else
          let ws = Array.of_list (List.rev !runs) in
          Tracer.span t.cfg.tracer ~cat:"serve" "compute" (fun () ->
              compute t g ws)
      in
      let done_s = t.cfg.now () in
      Array.iteri
        (fun i source ->
          let pnd = chunk.(i) in
          let reuse v =
            Metrics.incr t.counts Counter.Serve_cache_hits;
            slots.(i) <- Some (ok_response t pnd v ~cached:true ~done_s)
          in
          match (source, outcome) with
          | None, _ -> ()
          | Some (Hit v), _ -> reuse v
          | Some (Twin j), Ok values -> reuse values.(j)
          | Some (Run j), Ok values ->
            Option.iter (fun key -> Cache.add t.cache key values.(j)) pnd.ckey;
            slots.(i) <- Some (ok_response t pnd values.(j) ~cached:false ~done_s)
          | Some (Run _ | Twin _), Error (code, msg) ->
            end_request_span t ~tr0:pnd.tr0;
            slots.(i) <- Some (err (Some pnd.prid) code msg))
        sources
    end;
    Array.iter
      (fun s -> match s with Some r -> out := r :: !out | None -> ())
      slots
  done;
  List.rev !out

(* --- admission ------------------------------------------------------- *)

(* The group key: kernel, band override ("keep" when there is none) and
   engine choice. Within one server it fixes everything an answer
   depends on but the two sequences: the catalog parameters cannot
   change while the process runs, and N_PE is the server's. *)
let group_key (req : Proto.request) choice ~kid =
  Printf.sprintf "%d|%s|%s" kid
    (match req.Proto.band with
    | None -> "keep"
    | Some b -> Banding.to_string b)
    (Engines.choice_name choice)

(* the group a request is queued in, created with its first request *)
let join_group t ~key (req : Proto.request) choice (entry : Catalog.entry) =
  match Hashtbl.find_opt t.groups key with
  | Some g -> g
  | None ->
    let (Registry.Packed (k, p)) = entry.Catalog.packed in
    let g =
      {
        banded = Registry.Packed (Kernel.with_band k req.Proto.band, p);
        choice;
        q = Queue.create ();
      }
    in
    Hashtbl.add t.groups key g;
    t.order <- key :: t.order;
    g

(* answer a group's requests and forget the group *)
let flush_and_drop t key g =
  let out = flush_group t g in
  Hashtbl.remove t.groups key;
  t.order <- List.filter (fun k -> k <> key) t.order;
  out

let admit t (req : Proto.request) choice ~t_admit ~tr0 =
  let reply code msg =
    end_request_span t ~tr0;
    [ err req.Proto.rid code msg ]
  in
  match Catalog.lookup req.Proto.kernel_spec with
  | None ->
    reply Proto.Unknown_kernel
      (Printf.sprintf "no catalog kernel matches %S" req.Proto.kernel_spec)
  | Some entry -> (
    let kid = Registry.id entry.Catalog.packed in
    match Catalog.text_encoder entry with
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
          let key = group_key req choice ~kid in
          let prid =
            match req.Proto.rid with
            | Some r -> r
            | None ->
              t.next_rid <- t.next_rid + 1;
              Printf.sprintf "r%d" t.next_rid
          in
          (* the group key is part of the identity: a forced engine must
             report its own characteristics (cycles, cigar emptiness),
             not another backend's cached answer *)
          let ckey =
            if Cache.capacity t.cache <= 0 then None
            else Some (String.concat "|" [ key; req.Proto.qry; req.Proto.ref_seq ])
          in
          match Option.bind ckey (Cache.find t.cache) with
          | Some v ->
            Metrics.incr t.counts Counter.Serve_requests_admitted;
            Metrics.incr t.counts Counter.Serve_cache_hits;
            let pnd =
              { prid; w; admit_s = t_admit; tr0; deadline_s = None; ckey }
            in
            [ ok_response t pnd v ~cached:true ~done_s:(t.cfg.now ()) ]
          | None ->
            (* a new group takes this request (queue_depth >= 1), so no
               group is left without one *)
            let g = join_group t ~key req choice entry in
            if Queue.length g.q >= t.cfg.queue_depth then begin
              Metrics.incr t.counts Counter.Serve_requests_rejected;
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
              Metrics.incr t.counts Counter.Serve_requests_admitted;
              if Queue.length g.q >= t.cfg.batch_max then flush_and_drop t key g
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
        | Ok req -> (
          match Engines.of_string ~n_pe:t.cfg.n_pe req.Proto.engine with
          | Error msg -> [ err req.Proto.rid Proto.Bad_request msg ]
          | Ok choice -> admit t req choice ~t_admit ~tr0))

let flush t =
  let out =
    List.concat_map
      (fun key -> flush_group t (Hashtbl.find t.groups key))
      (List.rev t.order)
  in
  Hashtbl.reset t.groups;
  t.order <- [];
  out

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
  let completed = count t Counter.Serve_requests_completed in
  let lat_n = min completed lat_reservoir_cap in
  let p50, p99 =
    if lat_n = 0 then (0.0, 0.0)
    else
      let xs = Array.sub t.lat 0 lat_n in
      (Stats.percentile_exact xs 50.0, Stats.percentile_exact xs 99.0)
  in
  let slo_ok =
    match t.cfg.slo_p99_ms with
    | None -> true
    | Some s -> lat_n = 0 || p99 <= s
  in
  {
    admitted = count t Counter.Serve_requests_admitted;
    rejected = count t Counter.Serve_requests_rejected;
    expired = count t Counter.Serve_requests_expired;
    cache_hits = count t Counter.Serve_cache_hits;
    completed;
    batches = count t Counter.Serve_batches;
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
  Json.(
    to_string
      (Obj
         [
           ("admitted", int s.admitted);
           ("rejected", int s.rejected);
           ("expired", int s.expired);
           ("cache_hits", int s.cache_hits);
           ("completed", int s.completed);
           ("batches", int s.batches);
           ("p50_ms", Num s.p50_ms);
           ("p99_ms", Num s.p99_ms);
           ("max_ms", Num s.max_ms);
           ("slo_p99_ms", match s.slo_p99_ms with Some v -> Num v | None -> Null);
           ("slo_ok", Bool s.slo_ok);
         ]))
