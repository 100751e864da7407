(* The repository benchmark: two workloads driven through the library's
   public entry points (Dphls.Batch and Dphls_serve.Server), with
   per-layer numbers timed from this file around calls into each layer.

     main.exe setup --workload W --seed N --set k=v ...
     main.exe run --workload W --seed N --seconds S --trace 0|1 --set k=v ...

   [setup] times one cold set-up (pool or server creation plus the
   first alignment or request) and prints the seconds. [run] measures
   for S seconds and prints one JSON result object as its last stdout
   line: the end-to-end metrics with [--trace 0], the per-layer metrics
   with [--trace 1] (which also writes a Perfetto trace under
   .bench_out/). run.py drives both and supplies the workload parameters
   from workloads.json as [--set] pairs. *)

module Rng = Dphls_util.Rng
module Stats = Dphls_util.Stats
module Tracer = Dphls_obs.Tracer
module Metrics = Dphls_obs.Metrics
module Counter = Dphls_obs.Counter
module Catalog = Dphls_kernels.Catalog
module Registry = Dphls_core.Registry
module Kernel = Dphls_core.Kernel
module Pe = Dphls_core.Pe
module Types = Dphls_core.Types
module Workload = Dphls_core.Workload
module Res = Dphls_core.Result
module Engines = Dphls_engines.Engines
module Engine_intf = Dphls_engines.Engine_intf
module Sys_engine = Dphls_systolic.Engine
module Pool = Dphls_host.Pool
module Scheduler = Dphls_host.Scheduler
module Server = Dphls_serve.Server
module Proto = Dphls_serve.Proto
module Dna = Dphls_alphabet.Dna
module Protein = Dphls_alphabet.Protein

(* seconds on the monotonic clock, nanosecond resolution *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Between closed-loop samples, untimed: start every sample from a
   compacted heap, so a sample's GC work is its own and not the
   accident of where the previous one left the major cycle (the
   repository's Bechamel benches stabilize the same way). *)
let stabilize () = Gc.compact ()

(* ---- command line ------------------------------------------------------ *)

let params : (string, string) Hashtbl.t = Hashtbl.create 16

let param k =
  match Hashtbl.find_opt params k with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing workload parameter --set %s=..." k)

let p_int k = int_of_string (param k)

(* settings every workload shares *)
let n_pe = 32  (* systolic array height, as in the paper's short-read design point *)
let rung_seconds = 0.4  (* each ladder rung of the traced run *)
let scaling_workers = 2  (* the pool's scaling check, 2 against 1 worker *)
let saturated_share = 0.5  (* of a serve run spent in the saturated phase *)
let p_float k = float_of_string (param k)
let p_ints k = Array.of_list (List.map int_of_string (String.split_on_char ',' (param k)))

(* ---- small numeric helpers --------------------------------------------- *)

(* growable float sample vector *)
module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

let median xs = if Array.length xs = 0 then 0.0 else Stats.median xs

(* nearest-rank percentile: always an observed sample *)
let pct xs p = if Array.length xs = 0 then 0.0 else Stats.percentile_exact xs p
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* peak resident set of this process, from the kernel's high-water mark *)
let rss_peak_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec loop () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> loop ()
      | exception End_of_file -> 0
    in
    let kb = loop () in
    close_in ic;
    float_of_int kb /. 1024.0

(* ---- input generation (never timed) ------------------------------------ *)

let random_dna rng n = Dna.to_string (Dna.random rng n)

(* a copy of [s] where a [divergence] share of positions carries an
   edit: 70% substitutions, 15% insertions, 15% deletions *)
let mutate_dna rng s ~divergence =
  let b = Buffer.create (String.length s + 16) in
  String.iter
    (fun c ->
      if Rng.bernoulli rng divergence then begin
        let u = Rng.int rng 20 in
        if u < 14 then
          Buffer.add_char b
            (Dna.decode ((Dna.encode c + 1 + Rng.int rng 3) mod 4))
        else if u < 17 then begin
          Buffer.add_char b c;
          Buffer.add_char b (Dna.decode (Rng.int rng 4))
        end
      end
      else Buffer.add_char b c)
    s;
  if Buffer.length b = 0 then s else Buffer.contents b

(* (query, reference) *)
let dna_pair rng ~len ~divergence =
  let r = random_dna rng len in
  (mutate_dna rng r ~divergence, r)

let protein_pair rng ~len ~divergence =
  let r = Protein.random rng len in
  let q = Dphls_seqgen.Protein_gen.homolog rng r ~identity:(1.0 -. divergence) in
  (Protein.to_string q, Protein.to_string r)

let is_protein kernel = (Catalog.find kernel).Catalog.alphabet = "Amino acids"

let encode kernel s =
  if is_protein kernel then Protein.of_string s else Dna.of_string s

(* ---- oracles (never timed) --------------------------------------------- *)

(* the golden engine on the catalog kernel: score and cigar *)
let reference_answer kernel ~qry ~rf =
  let w = Workload.of_bases ~query:(encode kernel qry) ~reference:(encode kernel rf) in
  match (Catalog.find kernel).Catalog.packed with
  | Registry.Packed (k, p) ->
    let (module E : Engine_intf.S) = Engines.reference in
    let r, _ = E.run (Engine_intf.config ~n_pe ()) k p w in
    (r.Res.score, Res.cigar r)

(* kernel #2's score from the independent rolling-row SeqAn-like aligner *)
let k02_oracle_score (q, r) =
  let d = Dphls_kernels.K02_global_affine.default in
  let module S = Dphls_baselines.Seqan_like in
  S.score
    (S.dna_scoring ~match_:d.match_ ~mismatch:d.mismatch
       ~gap:(S.Affine { open_ = d.gap_open; extend = d.gap_extend })
       ~mode:S.Global)
    ~query:(Dna.of_string q) ~reference:(Dna.of_string r)

(* ---- result output ------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value =
  { name; unit_; value = (if Float.is_finite value then value else 0.0) }

let print_result ~attempted ~failed metrics =
  let body =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" x.name x.value
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (failed = 0) attempted failed body

let note fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---- tracing helpers ---------------------------------------------------- *)

(* run [f] until [budget] seconds have passed, at least once *)
let time_boxed ~budget f =
  let t0 = now () in
  let n = ref 0 in
  while !n = 0 || now () -. t0 < budget do
    f ();
    incr n
  done;
  (!n, now () -. t0)

(* Self time per (category, name): spans on one track nest by
   containment, and a span's self time is its duration minus that of its
   direct children. Serve "request" spans run from admission to answer
   across calls, so they are latency records, not busy intervals, and
   are left out. *)
let self_times tracer =
  let spans =
    List.filter
      (fun (s : Tracer.span) -> not (s.cat = "serve" && s.span_name = "request"))
      (Tracer.spans tracer)
  in
  let tbl = Hashtbl.create 16 in
  let add key self =
    let t, c = Option.value (Hashtbl.find_opt tbl key) ~default:(0.0, 0) in
    Hashtbl.replace tbl key (t +. self, c + 1)
  in
  let tids = List.sort_uniq compare (List.map (fun (s : Tracer.span) -> s.tid) spans) in
  List.iter
    (fun tid ->
      let mine =
        Array.of_list (List.filter (fun (s : Tracer.span) -> s.tid = tid) spans)
      in
      Array.stable_sort
        (fun (a : Tracer.span) (b : Tracer.span) ->
          if a.t0 <> b.t0 then compare a.t0 b.t0 else compare b.t1 a.t1)
        mine;
      let child = Array.make (Array.length mine) 0.0 in
      let stack = ref [] in
      Array.iteri
        (fun i (s : Tracer.span) ->
          let rec pop () =
            match !stack with
            | j :: rest when mine.(j).Tracer.t1 < s.t1 ->
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | j :: _ -> child.(j) <- child.(j) +. (s.t1 -. s.t0)
          | [] -> ());
          stack := i :: !stack)
        mine;
      Array.iteri
        (fun i (s : Tracer.span) ->
          add (s.cat ^ "." ^ s.span_name) (s.t1 -. s.t0 -. child.(i)))
        mine)
    tids;
  List.sort compare (Hashtbl.fold (fun k (t, c) acc -> (k, t, c) :: acc) tbl [])

(* ---- batch workloads ---------------------------------------------------- *)

(* the library's default engine, what Dphls.Align and dphls batch run
   unless told otherwise *)
let batch_engine = Dphls.Align.Golden

let batch_pairs rng =
  let len = p_int "len" and divergence = p_float "divergence" in
  Array.init (p_int "pairs") (fun _ -> dna_pair rng ~len ~divergence)

let batch_call ?tracer ~engine ~workers pairs =
  Dphls.Batch.align_all_overlap_report ?tracer ~engine
    ~kind:Dphls.Batch.Global_affine ~workers pairs

type batch_run = {
  call_s : float array;  (** wall seconds per closed-loop call *)
  gap_s : float array;  (** client time between one call's end and the next's start *)
  pool : Pool.stats list;
  device : Sys_engine.batch_stats list;
  b_attempted : int;
  b_failed : int;
}

(* closed loop: one caller submits the whole batch, waits, checks the
   answers (untimed) and submits it again *)
let batch_loop ?(tracer = Tracer.disabled) ~engine ~seconds ~workers pairs expected =
  let calls = Fvec.create () and gaps = Fvec.create () in
  let pools = ref [] and devs = ref [] and failed = ref 0 and attempted = ref 0 in
  let t_end = now () +. seconds and last_end = ref nan in
  while calls.Fvec.n = 0 || now () < t_end do
    stabilize ();
    let t0 = now () in
    if Float.is_finite !last_end then Fvec.push gaps (t0 -. !last_end);
    let res, pool, dev =
      Tracer.span tracer ~cat:"bench" "Batch.align_all" (fun () ->
          batch_call ~tracer ~engine ~workers pairs)
    in
    let t1 = now () in
    Fvec.push calls (t1 -. t0);
    pools := pool :: !pools;
    devs := dev :: !devs;
    attempted := !attempted + Array.length pairs;
    Array.iteri
      (fun i (a : Dphls.Align.alignment) ->
        if (a.score, a.cigar) <> expected.(i) then incr failed)
      res;
    last_end := now ()
  done;
  {
    call_s = Fvec.to_array calls;
    gap_s = Fvec.to_array gaps;
    pool = !pools;
    device = !devs;
    b_attempted = !attempted;
    b_failed = !failed;
  }

(* ---- serve workloads ----------------------------------------------------- *)

type req = {
  line : string;
  rid : string;
  kernel : int;
  qry : string;
  rf : string;
  key : int;  (** index of the request *)
}

let request_line ?engine ~rid ~kernel qry rf =
  Printf.sprintf "{\"id\":\"%s\",\"kernel\":%d,%s\"qry\":\"%s\",\"ref\":\"%s\"}" rid
    kernel
    (match engine with Some e -> Printf.sprintf "\"engine\":\"%s\"," e | None -> "")
    qry rf

let make_req ?engine ~prefix ~key ~kernel (qry, rf) =
  let rid = Printf.sprintf "%s%d" prefix key in
  { line = request_line ?engine ~rid ~kernel qry rf; rid; kernel; qry; rf; key }

(* serve-miss: every request a fresh pair, kernels round-robin *)
let miss_gen rng =
  let kernels = p_ints "kernels" and lo = p_int "len_min" and hi = p_int "len_max" in
  let divergence = p_float "divergence" in
  let next = ref 0 in
  fun () ->
    let i = !next in
    incr next;
    let kernel = kernels.(i mod Array.length kernels) in
    let len = Rng.int_in rng lo hi in
    let pair =
      if is_protein kernel then protein_pair rng ~len ~divergence
      else dna_pair rng ~len ~divergence
    in
    make_req ~prefix:"m" ~key:i ~kernel pair

type send = { req : req; due : float; sent : float; idx : int; mutable answered : bool }

(* one in-process client of one server, with the bookkeeping every
   phase shares; [check] sees each answer after it is timestamped *)
type client = {
  server : Server.t;
  tracer : Tracer.t;
  batch_wait_s : float;
  outstanding : (string, send Queue.t) Hashtbl.t;
  order : send Queue.t;  (** submission order, answered entries pruned lazily *)
  mutable open_n : int;
  mutable failed : int;
  mutable attempted : int;
  check : send -> Proto.response -> unit;
  admit_s : Fvec.t;  (** submit calls that ran no flush *)
  flush_s : Fvec.t;  (** flush calls and submits that tripped an auto-flush *)
  wait_s : Fvec.t;  (** admission to the start of the call that answered *)
  mutable busy_s : float;  (** total time inside Server.submit/flush *)
  mutable encode_sample : Proto.response list;  (** the first answers, for the encode rung *)
  mutable encode_n : int;
}

let client ?(tracer = Tracer.disabled) ?(metrics = Metrics.disabled) ~check () =
  let cfg =
    {
      (Server.default_config ()) with
      Server.workers = p_int "workers";
      n_pe;
      metrics;
      tracer;
    }
  in
  {
    server = Server.create cfg;
    tracer;
    batch_wait_s = p_float "batch_wait_ms" /. 1e3;
    outstanding = Hashtbl.create 1024;
    order = Queue.create ();
    open_n = 0;
    failed = 0;
    attempted = 0;
    check;
    admit_s = Fvec.create ();
    flush_s = Fvec.create ();
    wait_s = Fvec.create ();
    busy_s = 0.0;
    encode_sample = [];
    encode_n = 0;
  }

(* retire the oldest outstanding send with this id; [None] if unknown *)
let retire c rid =
  match Option.bind rid (Hashtbl.find_opt c.outstanding) with
  | Some q ->
    let s = Queue.pop q in
    if Queue.is_empty q then Hashtbl.remove c.outstanding s.req.rid;
    s.answered <- true;
    c.open_n <- c.open_n - 1;
    if c.open_n = 0 then Queue.clear c.order;
    Some s
  | None -> None

let handle c ~call_start ~on_latency responses =
  List.iter
    (fun resp ->
      (match resp with
      | Proto.Ok_response o -> (
        match retire c (Some o.rid) with
        | Some s ->
          on_latency s;
          if not o.cached then Fvec.push c.wait_s (call_start -. s.sent);
          c.check s resp
        | None -> c.failed <- c.failed + 1)
      | Proto.Error_response e ->
        c.failed <- c.failed + 1;
        ignore (retire c e.rid));
      if c.encode_n < 1024 then begin
        c.encode_sample <- resp :: c.encode_sample;
        c.encode_n <- c.encode_n + 1
      end)
    responses

let submit c ~on_latency ~due ~idx req =
  let s = { req; due; sent = now (); idx; answered = false } in
  (match Hashtbl.find_opt c.outstanding req.rid with
  | Some q -> Queue.push s q
  | None ->
    let q = Queue.create () in
    Queue.push s q;
    Hashtbl.add c.outstanding req.rid q);
  Queue.push s c.order;
  c.open_n <- c.open_n + 1;
  c.attempted <- c.attempted + 1;
  let t0 = now () in
  let rs =
    Tracer.span c.tracer ~cat:"loadgen" "Server.submit" (fun () ->
        Server.submit c.server req.line)
  in
  let t1 = now () in
  c.busy_s <- c.busy_s +. (t1 -. t0);
  Fvec.push (if List.compare_length_with rs 1 > 0 then c.flush_s else c.admit_s) (t1 -. t0);
  handle c ~call_start:t0 ~on_latency:(on_latency t1) rs

let flush c ~on_latency =
  let t0 = now () in
  let rs =
    Tracer.span c.tracer ~cat:"loadgen" "Server.flush" (fun () -> Server.flush c.server)
  in
  let t1 = now () in
  c.busy_s <- c.busy_s +. (t1 -. t0);
  if rs <> [] then Fvec.push c.flush_s (t1 -. t0);
  handle c ~call_start:t0 ~on_latency:(on_latency t1) rs

let rec oldest_sent c =
  match Queue.peek_opt c.order with
  | Some s when s.answered ->
    ignore (Queue.pop c.order);
    oldest_sent c
  | Some s -> s.sent
  | None -> infinity

(* the stand-in for a flush timer: flush once the oldest pending request
   has waited [batch_wait_ms] *)
let flush_due c t = c.open_n > 0 && t -. oldest_sent c >= c.batch_wait_s

let drain c ~on_latency =
  flush c ~on_latency;
  (* anything still unanswered after a full flush is lost *)
  c.failed <- c.failed + c.open_n;
  Hashtbl.reset c.outstanding;
  Queue.clear c.order;
  c.open_n <- 0

let no_latency _ _ = ()

(* saturated closed loop: submit the next line as soon as submit
   returns; one round is [reqs], ended by a drain, and gives one rate *)
let closed_round c reqs =
  let on_latency = no_latency in
  let t0 = now () in
  Array.iter
    (fun r ->
      submit c ~on_latency ~due:(now ()) ~idx:0 r;
      if flush_due c (now ()) then flush c ~on_latency)
    reqs;
  drain c ~on_latency;
  float_of_int (Array.length reqs) /. (now () -. t0)

(* open loop at a fixed rate: request i is due at t0 + i/rate whether or
   not earlier ones are answered; latency counts from the due time *)
let open_loop c ~rate reqs =
  let n = Array.length reqs in
  let lat = Array.make n nan and lag = Array.make n 0.0 in
  let on_latency t_done s = lat.(s.idx) <- (t_done -. s.due) *. 1e3 in
  let t0 = now () +. 0.001 in
  let i = ref 0 in
  while !i < n || c.open_n > 0 do
    let t = now () in
    let due = t0 +. (float_of_int !i /. rate) in
    if !i < n && due <= t then begin
      lag.(!i) <- (t -. due) *. 1e3;
      submit c ~on_latency ~due ~idx:!i reqs.(!i);
      incr i
    end
    else if flush_due c t then flush c ~on_latency
    else begin
      let wake =
        Float.min
          (if !i < n then due else infinity)
          (if c.open_n > 0 then oldest_sent c +. c.batch_wait_s else infinity)
      in
      if Float.is_finite wake && wake -. t > 3e-4 then Unix.sleepf (wake -. t -. 2e-4)
    end
  done;
  drain c ~on_latency;
  (* a request that never got an ok answer has no latency: it counts as
     missing every latency limit *)
  let lat = Array.map (fun x -> if Float.is_nan x then infinity else x) lat in
  (lat, lag)

(* ---- serve answer checks ------------------------------------------------ *)

type checks = {
  oracle : (req * int * string) Queue.t;  (** sampled answers still to verify *)
  mutable mismatched : int;
}

let new_checks () = { oracle = Queue.create (); mismatched = 0 }

(* queue the answers of the sampled requests for the golden engine *)
let oracle_check ck ~sampled s resp =
  match resp with
  | Proto.Ok_response o when sampled s.req.key -> Queue.push (s.req, o.score, o.cigar) ck.oracle
  | _ -> ()

let verify_oracle ck =
  let per_kernel = Hashtbl.create 4 in
  Queue.iter
    (fun (r, score, cigar) ->
      Hashtbl.replace per_kernel r.kernel
        (1 + Option.value (Hashtbl.find_opt per_kernel r.kernel) ~default:0);
      let s, c = reference_answer r.kernel ~qry:r.qry ~rf:r.rf in
      (* score-only engines (bitpar) answer with an empty cigar *)
      if s <> score || (cigar <> "" && cigar <> c) then ck.mismatched <- ck.mismatched + 1)
    ck.oracle;
  note "  golden-engine checks per kernel: %s"
    (String.concat ", "
       (List.map
          (fun (k, n) -> Printf.sprintf "#%d %d" k n)
          (List.sort compare (List.of_seq (Hashtbl.to_seq per_kernel)))));
  Queue.clear ck.oracle

(* ---- serve workload phases ---------------------------------------------- *)

type serve_src = {
  fresh : int -> req array;  (** the next [n] requests *)
  checks : checks;
  check : send -> Proto.response -> unit;
  lines : req array;  (** distinct lines, for the protocol rung *)
}

(* serve-miss. Request [key] runs kernel [key mod n_kernels], so one in
   [oracle_every] requests of each kernel, at a seeded offset, goes to
   the golden engine: every kernel is checked on every seed. *)
let serve_src seed =
  let gen = miss_gen (Rng.create seed) in
  let n_kernels = Array.length (p_ints "kernels") and every = p_int "oracle_every" in
  let offset = seed mod every in
  let ck = new_checks () in
  let fresh n = Array.init n (fun _ -> gen ()) in
  {
    fresh;
    checks = ck;
    check = oracle_check ck ~sampled:(fun key -> key / n_kernels mod every = offset);
    lines = fresh 256;
  }

type serve_run = {
  rates : float array;  (** saturated rounds, req/s *)
  lat_ms : float array;  (** open loop, from due time *)
  lag_ms : float array;
  cl : client;
  summary : Server.summary;
}

(* The first alignment of a set-up, outside the workload's inputs. It
   is short so that set-up time is creation and first-call cost: a full
   workload-sized alignment would repeat aln_per_s, with its host noise,
   in a measurement a tenth as long. *)
let warmup_pair seed = dna_pair (Rng.create (seed lxor 0x5e7)) ~len:96 ~divergence:0.1

(* the warm-up request every server answers before timing starts; the
   same line the set-up measurement uses *)
let warmup_req seed =
  make_req ~prefix:"w" ~key:0 ~kernel:(p_ints "kernels").(0) (warmup_pair seed)

let serve_phases ?tracer ?metrics ~seed ~seconds src =
  (* the warm-up line is not one of the workload's, so it is not checked *)
  let live = ref false in
  let c = client ?tracer ?metrics ~check:(fun s r -> if !live then src.check s r) () in
  let w = warmup_req seed in
  submit c ~on_latency:no_latency ~due:(now ()) ~idx:0 w;
  drain c ~on_latency:no_latency;
  c.attempted <- 0;
  live := true;
  let sat_s = seconds *. saturated_share in
  let round = p_int "round" in
  let rates = Fvec.create () in
  let t_end = now () +. sat_s in
  while rates.Fvec.n < 3 || now () < t_end do
    let reqs = src.fresh round in
    stabilize ();
    Fvec.push rates (closed_round c reqs)
  done;
  let rate = p_float "offered_rate_per_s" in
  let n_open = max 1 (int_of_float (rate *. (seconds -. sat_s))) in
  let lat, lag = open_loop c ~rate (src.fresh n_open) in
  let summary = Server.summary c.server in
  Server.close c.server;
  {
    rates = Fvec.to_array rates;
    lat_ms = lat;
    lag_ms = lag;
    cl = c;
    summary;
  }

(* ---- ladder rungs on the workload's own inputs --------------------------- *)

(* the compiled PE alone, swept over a q x r grid of characters; the
   left neighbour is the previous cell's output, as in a DP row *)
let pe_mcups ~tracer kernel (q : Types.seq) (r : Types.seq) =
  match (Catalog.find kernel).Catalog.packed with
  | Registry.Packed (k, p) ->
    let f = Kernel.flat_pe k p in
    let nl = k.Kernel.n_layers in
    let b = Pe.create_buffers ~n_layers:nl in
    b.Pe.b_up <- Array.make nl 0;
    b.Pe.b_diag <- Array.make nl 0;
    let left = ref (Array.make nl 0) and out = ref (Array.make nl 0) in
    let sweep () =
      for i = 0 to Array.length q - 1 do
        b.Pe.b_qry <- q.(i);
        b.Pe.b_row <- i;
        Array.fill !left 0 nl 0;
        for j = 0 to Array.length r - 1 do
          b.Pe.b_rf <- r.(j);
          b.Pe.b_col <- j;
          b.Pe.b_left <- !left;
          b.Pe.b_scores <- !out;
          f b;
          let t = !left in
          left := !out;
          out := t
        done
      done
    in
    let n, secs =
      Tracer.span tracer ~cat:"ladder" (Printf.sprintf "pe.k%02d" kernel) (fun () ->
          time_boxed ~budget:(rung_seconds) sweep)
    in
    float_of_int (n * Array.length q * Array.length r) /. secs /. 1e6

type rung = {
  cells : int;
  secs : float;
  alns : int;
  fires : int;
  slots : int;
  dev : Sys_engine.batch_stats;
  words : float;  (** heap words allocated *)
}

(* one engine, single domain, through E.run_batch on [ws] in chunks *)
let engine_rung ~tracer ~label engine kernel (ws : Workload.t array) ~chunk =
  match (Catalog.find kernel).Catalog.packed with
  | Registry.Packed (k, p) ->
    let (module E : Engine_intf.S) = engine in
    let cfg = Engine_intf.config ~n_pe () in
    let chunk = max 1 (min chunk (Array.length ws)) in
    let cells = ref 0 and alns = ref 0 and fires = ref 0 and slots = ref 0 in
    let dev = ref Sys_engine.{ alignments = 0; seq_cycles = 0; overlapped_cycles = 0; hidden_cycles = 0 } in
    let pos = ref 0 and words = ref 0.0 and secs = ref 0.0 in
    let t_end = now () +. rung_seconds in
    while !alns = 0 || now () < t_end do
      let batch = Array.init chunk (fun i -> ws.((!pos + i) mod Array.length ws)) in
      pos := !pos + chunk;
      let mi0, pr0, ma0 = Gc.counters () in
      let t0 = now () in
      let results, bstats =
        Tracer.span tracer ~cat:"ladder" label (fun () ->
            E.run_batch ~overlap:true cfg k p batch)
      in
      secs := !secs +. (now () -. t0);
      let mi1, pr1, ma1 = Gc.counters () in
      words := !words +. (mi1 -. mi0) +. (ma1 -. ma0) -. (pr1 -. pr0);
      Array.iter (fun w -> cells := !cells + Workload.cells w) batch;
      alns := !alns + chunk;
      Array.iter
        (fun (_, st) ->
          match st with
          | Some (s : Sys_engine.stats) ->
            fires := !fires + s.pe_fires;
            slots := !slots + s.pe_slots
          | None -> ())
        results;
      match bstats with
      | Some b ->
        let d = !dev in
        dev :=
          Sys_engine.
            {
              alignments = d.alignments + b.alignments;
              seq_cycles = d.seq_cycles + b.seq_cycles;
              overlapped_cycles = d.overlapped_cycles + b.overlapped_cycles;
              hidden_cycles = d.hidden_cycles + b.hidden_cycles;
            }
      | None -> ()
    done;
    { cells = !cells; secs = !secs; alns = !alns; fires = !fires; slots = !slots; dev = !dev; words = !words }

let mcups r = float_of_int r.cells /. r.secs /. 1e6

(* ns of pool-worker busy time per alignment and aln/s, from Batch calls *)
let pool_numbers (runs : batch_run) =
  let busy =
    List.fold_left
      (fun a (s : Pool.stats) -> a +. float_of_int (Array.fold_left ( + ) 0 s.worker_busy_ns))
      0.0 runs.pool
  and makespan, arbiter, block =
    List.fold_left
      (fun (m, a, b) (s : Pool.stats) ->
        let r = s.report in
        ( m +. float_of_int r.Scheduler.makespan,
          a +. float_of_int r.Scheduler.arbiter_busy,
          b +. float_of_int r.Scheduler.block_busy ))
      (0.0, 0.0, 0.0) runs.pool
  in
  (busy, makespan, arbiter, block)

(* Alignments over the total time inside the calls. The host runs in
   fast and slow phases a few seconds long; a run's call times are a mix
   of the two, and the median jumps between them as the mix moves from
   run to run while the total moves in proportion. *)
let batch_rate (runs : batch_run) n_pairs =
  float_of_int (n_pairs * Array.length runs.call_s) /. Array.fold_left ( +. ) 0.0 runs.call_s

(* ---- per-workload entry points ---------------------------------------------- *)

type outcome = { attempted : int; failed : int; metrics : metric list }

let is_batch w = w = "batch-golden"

(* One cold set-up: seconds, then this process's peak RSS in MB. Input
   generation is not part of set-up. A batch process then runs one
   whole batch call, so its peak is that of the workload's call from a
   fresh heap: over a long run the peak steps with the GC's heap growth,
   and the median over fresh processes does not. *)
let setup ~workload ~seed =
  if is_batch workload then begin
    let engine = batch_engine and workers = p_int "workers" in
    let pairs = batch_pairs (Rng.create seed) and w = warmup_pair seed in
    let t0 = now () in
    ignore (batch_call ~engine ~workers [| w |]);
    let dt = now () -. t0 in
    ignore (batch_call ~engine ~workers pairs);
    (dt, rss_peak_mb ())
  end
  else begin
    let w = warmup_req seed in
    let t0 = now () in
    let c = client ~check:(fun _ _ -> ()) () in
    submit c ~on_latency:no_latency ~due:(now ()) ~idx:0 w;
    drain c ~on_latency:no_latency;
    let dt = now () -. t0 in
    Server.close c.server;
    if c.failed > 0 then exit 1;
    (dt, rss_peak_mb ())
  end

(* the first, untimed call: the answers every later call must repeat,
   checked against the independent oracle *)
let batch_expected ~engine ~workers pairs =
  let res, _, _ = batch_call ~engine ~workers pairs in
  let bad = ref 0 in
  Array.iteri
    (fun i (a : Dphls.Align.alignment) -> if a.score <> k02_oracle_score pairs.(i) then incr bad)
    res;
  (Array.map (fun (a : Dphls.Align.alignment) -> (a.score, a.cigar)) res, !bad)

let batch_e2e runs n_pairs =
  let ms = Array.map (fun s -> s *. 1e3) runs.call_s in
  note "  %d closed-loop calls of %d pairs, %.1f / %.1f / %.1f / %.1f ms min / median / p90 / max"
    (Array.length ms) n_pairs (Stats.min_of ms) (median ms) (pct ms 90.0) (Stats.max_of ms);
  (* the median call is bimodal with the host's phases; p90 sits in the
     slow mode and holds still *)
  [ m "aln_per_s" "1/s" (batch_rate runs n_pairs); m "latency_ms" "ms" (pct ms 90.0) ]

(* Open-loop percentiles over consecutive windows of at least
   [window_min] requests: the median of the windows' nearest-rank
   values, so one stall of the host shifts one window, not the run.
   Below two windows' worth of samples this is the plain percentile. *)
let window_min = 500

(* requests over the saturated phase's time: every round has the same
   size, so this is the harmonic mean of the round rates *)
let saturated_rate rates =
  float_of_int (Array.length rates) /. Array.fold_left (fun a r -> a +. (1.0 /. r)) 0.0 rates

let windowed_pct xs p =
  let n = Array.length xs in
  let k = max 1 (n / window_min) in
  median (Array.init k (fun i -> pct (Array.sub xs (i * n / k) (((i + 1) * n / k) - (i * n / k))) p))

let serve_e2e (r : serve_run) =
  note "  %d saturated rounds at %.0f / %.0f / %.0f req/s min / median / max, %d open-loop requests in %d windows (p99 has %d samples above it)"
    (Array.length r.rates) (Stats.min_of r.rates) (median r.rates) (Stats.max_of r.rates)
    (Array.length r.lat_ms) (max 1 (Array.length r.lat_ms / window_min))
    (Array.length r.lat_ms - int_of_float (Float.ceil (0.99 *. float_of_int (Array.length r.lat_ms))));
  (* the median: the open-loop queue turns a slow host phase into a
     tail, and p90 moves with it *)
  [ m "aln_per_s" "1/s" (saturated_rate r.rates); m "latency_ms" "ms" (windowed_pct r.lat_ms 50.0) ]

let serve_failed (r : serve_run) (src : serve_src) =
  verify_oracle src.checks;
  let f = r.cl.failed + src.checks.mismatched in
  if f > 0 then
    note "  failures: %d errors or unanswered (%d rejected, %d expired), %d wrong answers"
      r.cl.failed r.summary.rejected r.summary.expired src.checks.mismatched;
  src.checks.mismatched <- 0;
  f

let run_untraced ~workload ~seed ~seconds =
  if is_batch workload then begin
    let workers = p_int "workers" and engine = batch_engine in
    let pairs = batch_pairs (Rng.create seed) in
    let expected, bad = batch_expected ~engine ~workers pairs in
    let runs = batch_loop ~engine ~seconds ~workers pairs expected in
    {
      attempted = runs.b_attempted;
      failed = runs.b_failed + bad;
      metrics = batch_e2e runs (Array.length pairs);
    }
  end
  else begin
    let src = serve_src seed in
    let r = serve_phases ~seed ~seconds src in
    let failed = serve_failed r src in
    { attempted = r.cl.attempted; failed; metrics = serve_e2e r }
  end

(* ---- traced mode ---------------------------------------------------------- *)

(* serve-layer numbers of one traced client *)
let serve_layer_metrics ~tracer (c : client) (s : Server.summary) (lines : req array) =
  let parse_n, parse_s =
    Tracer.span tracer ~cat:"ladder" "Proto.parse_request" (fun () ->
        time_boxed ~budget:(rung_seconds /. 2.0) (fun () ->
            Array.iter (fun r -> ignore (Proto.parse_request r.line)) lines))
  in
  let sample = Array.of_list c.encode_sample in
  let enc_n, enc_s =
    Tracer.span tracer ~cat:"ladder" "Proto.response_line" (fun () ->
        time_boxed ~budget:(rung_seconds /. 2.0) (fun () ->
            Array.iter (fun r -> ignore (Proto.response_line r)) sample))
  in
  let compute_s =
    List.fold_left
      (fun a (sp : Tracer.span) ->
        if sp.cat = "serve" && sp.span_name = "compute" then a +. (sp.t1 -. sp.t0) else a)
      0.0 (Tracer.spans tracer)
  in
  let wait = Array.map (fun x -> x *. 1e3) (Fvec.to_array c.wait_s) in
  [
    m "proto.parse_us" "us" (parse_s *. 1e6 /. float_of_int (parse_n * Array.length lines));
    m "proto.encode_us" "us" (enc_s *. 1e6 /. float_of_int (max 1 (enc_n * Array.length sample)));
    m "server.admit_us" "us" (median (Fvec.to_array c.admit_s) *. 1e6);
    m "server.flush_ms" "ms" (median (Fvec.to_array c.flush_s) *. 1e3);
    m "server.batch_size" "count"
      (ratio (float_of_int (s.completed - s.cache_hits)) (float_of_int s.batches));
    m "server.queue_wait_p50_ms" "ms" (pct wait 50.0);
    m "server.queue_wait_p99_ms" "ms" (pct wait 99.0);
    m "server.compute_share" "share" (ratio compute_s c.busy_s);
  ]

(* The cache read path: [lines] once through a fresh server, computed,
   then submitted again and again, every answer a cache hit that must
   equal the computed one. Returns µs per cached submit, attempted and
   failed. *)
let cache_rung ~tracer (lines : req array) =
  let computed = Hashtbl.create (Array.length lines) and wrong = ref 0 in
  let check s = function
    | Proto.Ok_response o when not o.cached -> Hashtbl.replace computed s.req.rid (o.score, o.cigar)
    | Proto.Ok_response o ->
      if Hashtbl.find_opt computed s.req.rid <> Some (o.score, o.cigar) then incr wrong
    | Proto.Error_response _ -> ()
  in
  let c = client ~check () in
  ignore (closed_round c lines);
  let on_latency = no_latency in
  let n, secs =
    Tracer.span tracer ~cat:"ladder" "Server.submit (cached)" (fun () ->
        time_boxed ~budget:(rung_seconds /. 2.0) (fun () ->
            Array.iter (fun r -> submit c ~on_latency ~due:0.0 ~idx:0 r) lines))
  in
  drain c ~on_latency;
  Server.close c.server;
  ( m "cache.hit_us" "us" (secs *. 1e6 /. float_of_int (n * Array.length lines)),
    c.attempted,
    c.failed + !wrong )

let fastpath_share metrics =
  let h = float_of_int (Metrics.get metrics Counter.Engine_fastpath_hits)
  and f = float_of_int (Metrics.get metrics Counter.Engine_fastpath_fallbacks) in
  ratio h (h +. f)

let workloads_of pairs = Array.map (fun (q, r) -> Workload.of_bases ~query:(Dna.of_string q) ~reference:(Dna.of_string r)) pairs

(* PE and engine rungs on the workload's characters: DNA pairs drive
   k01/k02/k19 and the engines, protein pairs drive k15 (seeded ones of
   the workload's length when it has none) *)
let ladder ~tracer ~seed ~dna ~protein =
  let seq_of kernel s = Types.seq_of_bases (encode kernel s) in
  let q, r = dna.(0) in
  let pq, pr =
    match protein with
    | Some p -> p
    | None -> protein_pair (Rng.create (seed + 15)) ~len:(String.length r) ~divergence:0.1
  in
  let pe01 = pe_mcups ~tracer 1 (seq_of 1 q) (seq_of 1 r) in
  let pe02 = pe_mcups ~tracer 2 (seq_of 2 q) (seq_of 2 r) in
  let pe15 = pe_mcups ~tracer 15 (seq_of 15 pq) (seq_of 15 pr) in
  let ws = workloads_of dna in
  let sys = engine_rung ~tracer ~label:"engine.systolic" Engines.systolic 2 ws ~chunk:8 in
  let rf = engine_rung ~tracer ~label:"engine.reference" Engines.reference 2 ws ~chunk:2 in
  let bp = engine_rung ~tracer ~label:"engine.bitpar" Engines.bitpar 19 ws ~chunk:8 in
  let d = sys.dev in
  ( [
      m "pe.k01.mcups" "Mcell/s" pe01;
      m "pe.k02.mcups" "Mcell/s" pe02;
      m "pe.k15.mcups" "Mcell/s" pe15;
      m "engine.systolic.mcups" "Mcell/s" (mcups sys);
      m "engine.systolic.utilization" "share" (ratio (float_of_int sys.fires) (float_of_int sys.slots));
      m "engine.systolic.cycles_per_aln" "cycles" (ratio (float_of_int d.seq_cycles) (float_of_int d.alignments));
      m "engine.systolic.hidden_share" "share" (ratio (float_of_int d.hidden_cycles) (float_of_int d.seq_cycles));
      (* modeled at the 250 MHz clock of the experiment tables *)
      m "engine.systolic.device_us_per_aln" "model_us"
        (ratio (float_of_int d.overlapped_cycles) (float_of_int d.alignments) /. 250.0);
      m "engine.reference.mcups" "Mcell/s" (mcups rf);
      m "engine.reference.alloc_words_per_cell" "words/cell" (rf.words /. float_of_int rf.cells);
      m "engine.bitpar.mcups" "Mcell/s" (mcups bp);
    ],
    sys,
    rf )

(* Batch rungs: pool shares from the traced calls, scaling against one
   worker, and the engine rung's share of the pool's busy time *)
let pool_metrics ~(two : batch_run) ~(one : batch_run) ~n_pairs ~(engine : rung) =
  let busy, makespan, arbiter, block = pool_numbers two in
  let workers = float_of_int scaling_workers in
  let alns = float_of_int (List.length two.pool * n_pairs) in
  [
    m "pool.busy_share" "share" (ratio block (workers *. makespan));
    m "pool.arbiter_share" "share" (ratio arbiter makespan);
    m "pool.efficiency" "share"
      (ratio (batch_rate two n_pairs) (workers *. batch_rate one n_pairs));
    m "batch.engine_share" "share"
      (ratio (engine.secs *. 1e9 /. float_of_int engine.alns) (busy /. alns));
  ]

let traced_batch ~seed ~seconds ~tracer =
  let workers = p_int "workers" and engine = batch_engine in
  let pairs = batch_pairs (Rng.create seed) in
  let n = Array.length pairs in
  let expected, bad = batch_expected ~engine ~workers pairs in
  let plain = batch_loop ~engine ~seconds:(seconds /. 2.0) ~workers pairs expected in
  let traced = batch_loop ~tracer ~engine ~seconds:(seconds /. 2.0) ~workers pairs expected in
  let two =
    batch_loop ~tracer ~engine ~seconds:rung_seconds ~workers:scaling_workers pairs
      expected
  in
  let one = batch_loop ~tracer ~engine ~seconds:rung_seconds ~workers:1 pairs expected in
  let rungs, _, engine = ladder ~tracer ~seed ~dna:pairs ~protein:None in
  (* the serve layers on the same pairs, one closed round through a server *)
  let ck = new_checks () in
  let metrics = Metrics.create () in
  let c = client ~tracer ~metrics ~check:(oracle_check ck ~sampled:(fun _ -> true)) () in
  let reqs = Array.mapi (fun i pr -> make_req ~engine:"reference" ~prefix:"b" ~key:i ~kernel:2 pr) pairs in
  ignore (closed_round c reqs);
  verify_oracle ck;
  let summary = Server.summary c.server in
  Server.close c.server;
  let hit_us, cache_attempted, cache_failed = cache_rung ~tracer reqs in
  let gaps = Array.map (fun s -> s *. 1e3) traced.gap_s in
  let overhead = ratio (batch_rate plain n) (batch_rate traced n) -. 1.0 in
  let failed =
    plain.b_failed + traced.b_failed + two.b_failed + one.b_failed + bad + c.failed
    + ck.mismatched + cache_failed
  in
  ( {
      attempted =
        plain.b_attempted + traced.b_attempted + two.b_attempted + one.b_attempted
        + c.attempted + cache_attempted;
      failed;
      metrics =
        rungs
        @ [ m "engines.fastpath_hit_share" "share" (fastpath_share metrics) ]
        @ pool_metrics ~two ~one ~n_pairs:n ~engine
        @ serve_layer_metrics ~tracer c summary reqs
        @ [
            hit_us;
            m "loadgen.lag_ms" "ms" (pct gaps 99.0);
            m "latency.p50_ms" "ms" (pct (Array.map (fun s -> s *. 1e3) plain.call_s) 50.0);
            m "latency.p90_ms" "ms" (pct (Array.map (fun s -> s *. 1e3) plain.call_s) 90.0);
            m "latency.p99_ms" "ms" (pct (Array.map (fun s -> s *. 1e3) plain.call_s) 99.0);
            m "trace.overhead_share" "share" overhead;
          ];
    },
    batch_e2e traced n )

let traced_serve ~seed ~seconds ~tracer =
  let src = serve_src seed in
  let plain = serve_phases ~seed ~seconds:(seconds /. 2.0) src in
  let plain_failed = serve_failed plain src in
  let src = serve_src seed in
  let metrics = Metrics.create () in
  let traced = serve_phases ~tracer ~metrics ~seed ~seconds:(seconds /. 2.0) src in
  let traced_failed = serve_failed traced src in
  let dna =
    Array.of_list
      (List.filter_map
         (fun r -> if is_protein r.kernel then None else Some (r.qry, r.rf))
         (Array.to_list src.lines))
  in
  let dna = Array.sub dna 0 (min 16 (Array.length dna)) in
  let protein =
    Array.fold_left
      (fun acc r -> if acc = None && is_protein r.kernel then Some (r.qry, r.rf) else acc)
      None src.lines
  in
  let rungs, sys, _ = ladder ~tracer ~seed ~dna ~protein in
  (* the Batch rung on the workload's DNA pairs *)
  let engine = Dphls.Align.Systolic n_pe and workers = scaling_workers in
  let expected, bad = batch_expected ~engine ~workers dna in
  let two = batch_loop ~tracer ~engine ~seconds:rung_seconds ~workers dna expected in
  let one = batch_loop ~tracer ~engine ~seconds:rung_seconds ~workers:1 dna expected in
  let hit_us, cache_attempted, cache_failed = cache_rung ~tracer src.lines in
  let overhead = ratio (saturated_rate plain.rates) (saturated_rate traced.rates) -. 1.0 in
  ( {
      attempted =
        plain.cl.attempted + traced.cl.attempted + two.b_attempted + one.b_attempted
        + cache_attempted;
      failed = plain_failed + traced_failed + bad + two.b_failed + one.b_failed + cache_failed;
      metrics =
        rungs
        @ [ m "engines.fastpath_hit_share" "share" (fastpath_share metrics) ]
        @ pool_metrics ~two ~one ~n_pairs:(Array.length dna) ~engine:sys
        @ serve_layer_metrics ~tracer traced.cl traced.summary src.lines
        @ [
            hit_us;
            m "loadgen.lag_ms" "ms" (pct traced.lag_ms 99.0);
            m "latency.p50_ms" "ms" (windowed_pct plain.lat_ms 50.0);
            m "latency.p90_ms" "ms" (windowed_pct plain.lat_ms 90.0);
            m "latency.p99_ms" "ms" (windowed_pct plain.lat_ms 99.0);
            m "trace.overhead_share" "share" overhead;
          ];
    },
    serve_e2e traced )

(* where the traced run writes its trace and self-time files *)
let out = ".bench_out"

let run_traced ~workload ~seed ~seconds =
  let tracer = Tracer.create () in
  let result, traced_e2e =
    if is_batch workload then traced_batch ~seed ~seconds ~tracer
    else traced_serve ~seed ~seconds ~tracer
  in
  let selfs = self_times tracer in
  let total = List.fold_left (fun a (_, t, _) -> a +. t) 0.0 selfs in
  note "self time per layer (traced run, %d spans):" (Tracer.count tracer);
  note "  %-34s %10s %7s %8s" "layer" "self ms" "share" "spans";
  List.iter
    (fun (k, t, c) -> note "  %-34s %10.3f %6.1f%% %8d" k (t *. 1e3) (100.0 *. ratio t total) c)
    selfs;
  List.iter (fun x -> note "  traced %s = %.4f %s" x.name x.value x.unit_) traced_e2e;
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let base = Filename.concat out (Printf.sprintf "%s-seed%d" workload seed) in
  Dphls_obs.Chrome.write_file (base ^ ".trace.json") ~process_name:("perfbench " ^ workload) tracer;
  let oc = open_out (base ^ ".layers.json") in
  Printf.fprintf oc "{\"workload\":\"%s\",\"seed\":%d,\"self_s\":{%s},\"metrics\":{%s}}\n" workload seed
    (String.concat "," (List.map (fun (k, t, _) -> Printf.sprintf "\"%s\":%.9f" k t) selfs))
    (String.concat "," (List.map (fun x -> Printf.sprintf "\"%s\":%.17g" x.name x.value) result.metrics));
  close_out oc;
  note "wrote %s.trace.json (open in ui.perfetto.dev) and %s.layers.json" base base;
  result

(* ---- entry point ----------------------------------------------------------- *)

let () =
  let mode = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  let set kv =
    match String.index_opt kv '=' with
    | Some i -> Hashtbl.replace params (String.sub kv 0 i) (String.sub kv (i + 1) (String.length kv - i - 1))
    | None -> raise (Arg.Bad ("--set expects key=value, got " ^ kv))
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--set", Arg.String set, "KEY=VALUE workload parameter");
    ]
    (fun a -> mode := a)
    "main.exe (setup|run) --workload NAME --seed N [--seconds S] [--trace 0|1] --set k=v ...";
  let workload = !workload and seed = !seed and seconds = !seconds in
  match !mode with
  | "setup" ->
    let dt, rss = setup ~workload ~seed in
    Printf.printf "%.9f %.6f\n%!" dt rss
  | "run" ->
    let r =
      if !trace = 1 then run_traced ~workload ~seed ~seconds
      else
        let r = run_untraced ~workload ~seed ~seconds in
        (* a batch workload's peak comes from the set-up processes *)
        if is_batch workload then r
        else { r with metrics = r.metrics @ [ m "rss_peak_mb" "MB" (rss_peak_mb ()) ] }
    in
    print_result ~attempted:r.attempted ~failed:r.failed r.metrics;
    if r.failed > 0 then exit 1
  | m -> prerr_endline ("unknown mode " ^ m ^ "; expected setup or run"); exit 2
