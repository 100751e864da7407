open Dphls_core
module Score = Dphls_util.Score

type kind = Border | Cell

type overflow = {
  layer : int;
  kind : kind;
  wavefront : int;
  bound : int;
  max_safe_len : int;
}

type verdict = Safe of { projected_safe_len : int option } | Overflow of overflow

type t = {
  verdict : verdict;
  probes : int;
  wavefronts : int;
  extrapolated : bool;
  truncated : bool;
  tb_range : (int * int) option;
  gap_magnitude : int option;
}

let iteration_cap = 4096
let stable_needed = 8
let max_char_samples = 16

let min_repr bits = -(1 lsl (bits - 1))
let max_repr bits = (1 lsl (bits - 1)) - 1

(* Overflow at wavefront [d] constrains workloads: a (q x r) fill has
   wavefronts 0..q+r-2, so square lengths with 2*len - 2 >= d can reach
   it; the largest safe square is (d+1)/2. A border overflow at init
   index [d] instead constrains len <= d (index d is first read by
   workloads of length d+1). *)
let safe_len_of_wavefront ~kind d =
  match kind with Cell -> (d + 1) / 2 | Border -> d

(* The probe state at one wavefront: interval per layer for the computed
   cells (w) and for the virtual border inits revealed so far (b). *)
type snapshot = { w : Interval.t array; b : Interval.t array }

let flags_equal (a : Interval.t) (b : Interval.t) =
  a.Interval.finite = b.Interval.finite
  && a.Interval.neg_inf = b.Interval.neg_inf
  && a.Interval.pos_inf = b.Interval.pos_inf

(* Stride-2 growth vector between snapshots (wavefront parity matters:
   diag neighbours are two wavefronts back, so lo/hi growth can
   alternate with period 2). [None] when the shapes differ. *)
let delta_of ~(now : snapshot) ~(past : snapshot) =
  let n = Array.length now.w in
  let out = Array.make (2 * n) (0, 0) in
  let ok = ref true in
  for l = 0 to n - 1 do
    let pair slot (a : Interval.t) (p : Interval.t) =
      if not (flags_equal a p) then ok := false
      else if a.Interval.finite then
        out.(slot) <- (a.Interval.lo - p.Interval.lo, a.Interval.hi - p.Interval.hi)
    in
    pair l now.w.(l) past.w.(l);
    pair (n + l) now.b.(l) past.b.(l)
  done;
  if !ok then Some out else None

(* Strides until [v] growing by [d] per stride escapes [lo_bound, hi_bound];
   None when it never does. *)
let strides_to_escape ~v ~d ~lo_bound ~hi_bound =
  if d < 0 then Some (((v - lo_bound) / -d) + 1)
  else if d > 0 then Some (((hi_bound - v) / d) + 1)
  else None

let analyze (k : 'p Kernel.t) (p : 'p) ~max_len ~chars =
  if max_len < 1 then invalid_arg "Widths.analyze: max_len must be >= 1";
  if Array.length chars = 0 then invalid_arg "Widths.analyze: no character samples";
  if k.Kernel.score_bits < 2 || k.Kernel.score_bits > 62 then
    invalid_arg "Widths.analyze: score_bits out of [2,62]";
  if k.Kernel.n_layers < 1 then invalid_arg "Widths.analyze: n_layers < 1";
  let n_layers = k.Kernel.n_layers in
  let objective = k.Kernel.objective in
  let worst = Score.worst_value objective in
  let bits = k.Kernel.score_bits in
  let lo_bound = min_repr bits and hi_bound = max_repr bits in
  (* the compiled single-cell PE (the engines run its generated row and
     wave loops, pinned equal to it), each probe writing a fresh score
     array so its result can be kept *)
  let pe =
    let flat = Kernel.flat_pe k p in
    let buf = Pe.create_buffers ~n_layers in
    fun (input : Pe.input) ->
      buf.Pe.b_up <- input.Pe.up;
      buf.Pe.b_diag <- input.Pe.diag;
      buf.Pe.b_left <- input.Pe.left;
      buf.Pe.b_qry <- input.Pe.qry;
      buf.Pe.b_rf <- input.Pe.rf;
      buf.Pe.b_row <- input.Pe.row;
      buf.Pe.b_col <- input.Pe.col;
      buf.Pe.b_scores <- Array.make n_layers 0;
      flat buf;
      { Pe.scores = buf.Pe.b_scores; tb = buf.Pe.b_tb }
  in
  let chars =
    if Array.length chars > max_char_samples then Array.sub chars 0 max_char_samples
    else chars
  in
  let probes = ref 0 in
  let tb_lo = ref max_int and tb_hi = ref min_int in
  let call input =
    incr probes;
    let out = pe input in
    if out.Pe.tb < !tb_lo then tb_lo := out.Pe.tb;
    if out.Pe.tb > !tb_hi then tb_hi := out.Pe.tb;
    out
  in
  (* ---- neighbour corner assignments ---------------------------------
     The recurrences are monotone in every neighbour score (max/min of
     saturating sums), so interval extremes of the outputs are reached
     at corner points of the input box: the all-low / all-high corners
     (with and without sentinels standing in for the finite bounds),
     plus the "single live candidate" corners — one neighbour layer
     finite, everything else pruned to the objective's worst — which
     bound the outputs produced next to pruned / uninitialized
     regions. This is probing, not proof: see docs/analysis.md. *)
  let assignments (h : Interval.t array) =
    let value = Option.value ~default:worst in
    let vec f = Array.init n_layers (fun l -> value (f h.(l))) in
    let low_sent = vec Interval.low_value in
    let high_sent = vec Interval.high_value in
    let fin_or_low iv =
      match Interval.finite_low iv with Some _ as s -> s | None -> Interval.low_value iv
    in
    let fin_or_high iv =
      match Interval.finite_high iv with
      | Some _ as s -> s
      | None -> Interval.high_value iv
    in
    let low_fin = vec fin_or_low in
    let high_fin = vec fin_or_high in
    let worst_vec = Array.make n_layers worst in
    let uniform v = (v, v, v) in
    let base =
      [ uniform low_sent; uniform high_sent; uniform low_fin; uniform high_fin ]
    in
    let singles = ref [] in
    for neighbour = 0 to 2 do
      for l = 0 to n_layers - 1 do
        List.iter
          (fun bound ->
            match bound h.(l) with
            | None -> ()
            | Some v ->
              let arr = Array.copy worst_vec in
              arr.(l) <- v;
              let a =
                match neighbour with
                | 0 -> (arr, worst_vec, worst_vec)
                | 1 -> (worst_vec, arr, worst_vec)
                | _ -> (worst_vec, worst_vec, arr)
              in
              singles := a :: !singles)
          [ Interval.finite_low; Interval.finite_high ]
      done
    done;
    base @ !singles
  in
  let probe_step (h : Interval.t array) d =
    let row = min (d / 2) (max_len - 1) in
    let col = min (max 0 (d - row)) (max_len - 1) in
    let out_bounds = Array.make n_layers Interval.empty in
    List.iter
      (fun (up, diag, left) ->
        Array.iter
          (fun (q, r) ->
            let input = { Pe.up; diag; left; qry = q; rf = r; row; col } in
            let out = call input in
            Array.iteri
              (fun l s -> out_bounds.(l) <- Interval.observe out_bounds.(l) s)
              out.Pe.scores)
          chars)
      (assignments h);
    out_bounds
  in
  (* ---- skip-penalty probe (for the banding lint): primary layer live
     at 0, every other candidate pruned, so the output is one step of
     pure gap cost. *)
  let gap_magnitude =
    let zero0 = Array.init n_layers (fun l -> if l = 0 then 0 else worst) in
    let worst_vec = Array.make n_layers worst in
    let worst_out = ref None in
    List.iter
      (fun (up, diag, left) ->
        Array.iter
          (fun (q, r) ->
            let out = call { Pe.up; diag; left; qry = q; rf = r; row = 1; col = 1 } in
            Array.iter
              (fun s ->
                if not (Score.is_neg_inf s || Score.is_pos_inf s) then
                  let adverse =
                    match objective with Score.Maximize -> -s | Score.Minimize -> s
                  in
                  match !worst_out with
                  | None -> worst_out := Some adverse
                  | Some w -> if adverse > w then worst_out := Some adverse)
              out.Pe.scores)
          chars)
      [ (zero0, worst_vec, worst_vec); (worst_vec, worst_vec, zero0) ];
    match !worst_out with Some m when m > 0 -> Some m | _ -> None
  in
  (* ---- wavefront propagation ---------------------------------------- *)
  let border_at d =
    Array.init n_layers (fun layer ->
        let acc = Interval.empty in
        let acc =
          if d = 0 then Interval.observe acc (k.Kernel.origin p ~layer) else acc
        in
        let acc =
          Interval.observe acc (k.Kernel.init_row p ~ref_len:max_len ~layer ~col:d)
        in
        Interval.observe acc (k.Kernel.init_col p ~qry_len:max_len ~layer ~row:d))
  in
  let total = (2 * max_len) - 1 in
  let cap = min total iteration_cap in
  let empty_layers () = Array.make n_layers Interval.empty in
  let b = ref (empty_layers ()) in
  let w1 = ref (empty_layers ()) in
  let w2 = ref (empty_layers ()) in
  let snap1 = ref None and snap2 = ref None in
  let last_delta = ref None in
  let stable = ref 0 in
  let violation bounds =
    let rec go l =
      if l >= n_layers then None
      else if not (Interval.fits bounds.(l) ~bits) then
        let iv = bounds.(l) in
        let bad = if iv.Interval.lo < lo_bound then iv.Interval.lo else iv.Interval.hi in
        Some (l, bad)
      else go (l + 1)
    in
    go 0
  in
  let result = ref None in
  let d = ref 0 in
  while !result = None && !d < cap do
    let dd = !d in
    if dd < max_len then
      b := Array.mapi (fun l iv -> Interval.join iv (border_at dd).(l)) !b;
    (match violation !b with
    | Some (layer, bound) ->
      result :=
        Some
          (Overflow
             {
               layer;
               kind = Border;
               wavefront = dd;
               bound;
               max_safe_len = safe_len_of_wavefront ~kind:Border dd;
             })
    | None ->
      let hull =
        Array.init n_layers (fun l ->
            Interval.join !b.(l) (Interval.join !w1.(l) !w2.(l)))
      in
      let w_now = probe_step hull dd in
      (match violation w_now with
      | Some (layer, bound) ->
        result :=
          Some
            (Overflow
               {
                 layer;
                 kind = Cell;
                 wavefront = dd;
                 bound;
                 max_safe_len = safe_len_of_wavefront ~kind:Cell dd;
               })
      | None ->
        let now = { w = w_now; b = Array.copy !b } in
        (match !snap2 with
        | Some past -> (
          match delta_of ~now ~past with
          | Some delta -> (
            match !last_delta with
            | Some prev when prev = delta -> incr stable
            | _ ->
              stable := 0;
              last_delta := Some delta)
          | None ->
            stable := 0;
            last_delta := None)
        | None -> ());
        snap2 := !snap1;
        snap1 := Some now;
        w2 := !w1;
        w1 := w_now));
    incr d
  done;
  let wavefronts = !d in
  (* ---- extrapolate / project ---------------------------------------- *)
  let extrapolated = ref false in
  let truncated = ref false in
  (* First escape over all components, from the final snapshot using the
     stabilized stride-2 deltas; returns (wavefront, kind, layer, bound). *)
  let first_escape () =
    match (!snap1, !last_delta) with
    | Some snap, Some delta when !stable >= stable_needed ->
      let best = ref None in
      let consider ~kind ~layer (iv : Interval.t) (dlo, dhi) =
        if iv.Interval.finite then begin
          let candidate strides bound =
            let wf = wavefronts - 1 + (2 * strides) in
            match !best with
            | Some (w0, _, _, _) when w0 <= wf -> ()
            | _ -> best := Some (wf, kind, layer, bound)
          in
          (match strides_to_escape ~v:iv.Interval.lo ~d:dlo ~lo_bound ~hi_bound with
          | Some s -> candidate s (iv.Interval.lo + (s * dlo))
          | None -> ());
          match strides_to_escape ~v:iv.Interval.hi ~d:dhi ~lo_bound ~hi_bound with
          | Some s -> candidate s (iv.Interval.hi + (s * dhi))
          | None -> ()
        end
      in
      Array.iteri (fun l iv -> consider ~kind:Cell ~layer:l iv delta.(l)) snap.w;
      Array.iteri
        (fun l iv -> consider ~kind:Border ~layer:l iv delta.(n_layers + l))
        snap.b;
      Some !best
    | _ -> None
  in
  let verdict =
    match !result with
    | Some v -> v
    | None -> (
      if wavefronts >= total then
        (* iterated everything: safe for max_len; project further *)
        Safe
          {
            projected_safe_len =
              (match first_escape () with
              | Some (Some (wf, kind, _, _)) -> Some (safe_len_of_wavefront ~kind wf)
              | Some None -> None (* stable and never escaping *)
              | None -> Some max_len);
          }
      else
        match first_escape () with
        | Some (Some (wf, kind, layer, bound)) when wf < total ->
          extrapolated := true;
          Overflow
            { layer; kind; wavefront = wf; bound; max_safe_len = safe_len_of_wavefront ~kind wf }
        | Some (Some (wf, kind, _, _)) ->
          extrapolated := true;
          Safe { projected_safe_len = Some (safe_len_of_wavefront ~kind wf) }
        | Some None ->
          extrapolated := true;
          Safe { projected_safe_len = None }
        | None ->
          (* ran out of iterations without a stable growth pattern *)
          truncated := true;
          Safe { projected_safe_len = Some (safe_len_of_wavefront ~kind:Cell (wavefronts - 1)) })
  in
  {
    verdict;
    probes = !probes;
    wavefronts;
    extrapolated = !extrapolated;
    truncated = !truncated;
    tb_range = (if !tb_lo <= !tb_hi then Some (!tb_lo, !tb_hi) else None);
    gap_magnitude;
  }
