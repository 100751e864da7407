module Stats = Dphls_util.Stats
module Json = Dphls_util.Json

type span_stat = {
  span_name : string;
  cat : string;
  count : int;
  total_s : float;
  mean_s : float;
  p50_s : float;
  p99_s : float;
  max_s : float;
}

type t = {
  counters : (Counter.t * int) list;
  span_stats : span_stat list;
  wall_s : float;
}

let stat_of_group (name, cat) durations =
  let xs = Array.of_list (List.rev durations) in
  (* nearest-rank percentiles: always an observed duration, so the p99
     of a 1-sample (or any small-n) group is a real latency, not an
     interpolated value below the worst one — the serve SLO gate
     compares against these and must not flip on rounding *)
  {
    span_name = name;
    cat;
    count = Array.length xs;
    total_s = Array.fold_left ( +. ) 0.0 xs;
    mean_s = Stats.mean xs;
    p50_s = Stats.percentile_exact xs 50.0;
    p99_s = Stats.percentile_exact xs 99.0;
    max_s = Stats.max_of xs;
  }

let build ?(metrics = Metrics.disabled) ?(tracer = Tracer.disabled) () =
  let spans = Tracer.spans tracer in
  (* group by (name, cat), keeping the order of first appearance *)
  let order = ref [] in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (s : Tracer.span) ->
      let key = (s.Tracer.span_name, s.Tracer.cat) in
      let dur = s.Tracer.t1 -. s.Tracer.t0 in
      match Hashtbl.find_opt groups key with
      | Some ds -> Hashtbl.replace groups key (dur :: ds)
      | None ->
        order := key :: !order;
        Hashtbl.add groups key [ dur ])
    spans;
  {
    counters = Metrics.to_alist metrics;
    span_stats =
      List.rev_map (fun key -> stat_of_group key (Hashtbl.find groups key)) !order;
    wall_s =
      List.fold_left (fun acc (s : Tracer.span) -> Float.max acc s.Tracer.t1)
        0.0 spans;
  }

let ms s = s *. 1e3

let to_text t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "counters:\n";
  List.iter
    (fun (c, v) ->
      Buffer.add_string b
        (Printf.sprintf "  %-20s %12d %s\n" (Counter.name c) v
           (Counter.unit_name c)))
    t.counters;
  if t.span_stats <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "spans (wall %.3f ms):\n" (ms t.wall_s));
    Buffer.add_string b
      (Printf.sprintf "  %-16s %-8s %6s %12s %10s %10s %10s\n" "name" "cat"
         "count" "total ms" "p50 ms" "p99 ms" "max ms");
    List.iter
      (fun s ->
        Buffer.add_string b
          (Printf.sprintf "  %-16s %-8s %6d %12.3f %10.4f %10.4f %10.4f\n"
             s.span_name s.cat s.count (ms s.total_s) (ms s.p50_s)
             (ms s.p99_s) (ms s.max_s)))
      t.span_stats
  end;
  Buffer.contents b

let to_json t =
  let span s =
    Json.(
      Obj
        [
          ("name", Str s.span_name);
          ("cat", Str s.cat);
          ("count", int s.count);
          ("total_ms", Num (ms s.total_s));
          ("mean_ms", Num (ms s.mean_s));
          ("p50_ms", Num (ms s.p50_s));
          ("p99_ms", Num (ms s.p99_s));
          ("max_ms", Num (ms s.max_s));
        ])
  in
  Json.(
    to_string
      (Obj
         [
           ( "counters",
             Obj (List.map (fun (c, v) -> (Counter.name c, int v)) t.counters) );
           ("spans", Arr (List.map span t.span_stats));
           ("wall_ms", Num (ms t.wall_s));
         ]))
