module Score = Dphls_util.Score

type t =
  | Fixed of { width : int }
  | Adaptive of { width : int; threshold : int }

let default_threshold = 40

let fixed width =
  if width < 1 then invalid_arg "Banding.fixed: width must be >= 1";
  Fixed { width }

let adaptive ?(threshold = default_threshold) width =
  if width < 1 then invalid_arg "Banding.adaptive: width must be >= 1";
  if threshold < 0 then invalid_arg "Banding.adaptive: threshold must be >= 0";
  Adaptive { width; threshold }

let width = function Fixed { width } | Adaptive { width; _ } -> width

let to_string = function
  | None -> "none"
  | Some (Fixed { width }) -> Printf.sprintf "fixed %d" width
  | Some (Adaptive { width; threshold }) ->
    Printf.sprintf "adaptive %d %d" width threshold

let in_band band ~row ~col =
  match band with
  | None -> true
  | Some (Fixed { width }) -> abs (row - col) <= width
  | Some (Adaptive _) ->
    invalid_arg "Banding.in_band: adaptive membership is decided per wavefront (use Tracker)"

let cells_in_band band ~qry_len ~ref_len =
  match band with
  | None -> qry_len * ref_len
  | Some (Fixed { width } | Adaptive { width; _ }) ->
    (* Closed-form per-row window sum: row [r] contributes the overlap of
       [r - width, r + width] with [0, ref_len). For Adaptive this is the
       static envelope (the per-wavefront window never exceeds the fixed
       band of the same width); engines report actual computed cells. *)
    let total = ref 0 in
    for row = 0 to qry_len - 1 do
      let lo = max 0 (row - width) and hi = min (ref_len - 1) (row + width) in
      if hi >= lo then total := !total + (hi - lo + 1)
    done;
    !total

module Tracker = struct
  type band = t

  type t = {
    width : int;
    threshold : int;
    objective : Score.objective;
    chunk_rows : int;
    qry_len : int;
    ref_len : int;
    mutable lo : int;  (** current window, inclusive, in offset (row-col) space *)
    mutable hi : int;
    bitmap : Bytes.t;  (** decided in-band cells, row-major *)
    mutable count : int;
    wf_off : int array;  (** offsets observed this wavefront *)
    wf_score : int array;  (** layer-0 scores observed this wavefront *)
    mutable wf_n : int;
    mutable last_row : int;  (** last row of the current chunk *)
    mutable row_best_col : int;  (** best cell of that row so far, -1 = none *)
    mutable row_best_score : int;
    mutable best : int;  (** running best score over every decided cell *)
    mutable moves : int;  (** window changes (wavefront slides + chunk reseeds) *)
  }

  let create band ~objective ~chunk_rows ~qry_len ~ref_len =
    let width, threshold =
      match (band : band) with
      | Adaptive { width; threshold } -> (width, threshold)
      | Fixed _ -> invalid_arg "Banding.Tracker.create: fixed bands need no tracker"
    in
    if chunk_rows < 1 then invalid_arg "Banding.Tracker.create: chunk_rows must be >= 1";
    if qry_len < 1 || ref_len < 1 then
      invalid_arg "Banding.Tracker.create: empty matrix";
    {
      width;
      threshold;
      objective;
      chunk_rows;
      qry_len;
      ref_len;
      lo = -width;
      hi = width;
      bitmap = Bytes.make (qry_len * ref_len) '\000';
      count = 0;
      (* a wavefront holds at most one cell per row of its chunk *)
      wf_off = Array.make (min chunk_rows qry_len) 0;
      wf_score = Array.make (min chunk_rows qry_len) 0;
      wf_n = 0;
      last_row = min chunk_rows qry_len - 1;
      row_best_col = -1;
      row_best_score = 0;
      best = Score.worst_value objective;
      moves = 0;
    }

  let start_chunk t ~chunk =
    if chunk > 0 then begin
      (* Re-seed the window on the best cell of the previous chunk's last
         row — the only full row of scores that is causally available when
         the next chunk starts streaming. If that row was fully pruned the
         window carries over unchanged. *)
      if t.row_best_col >= 0 then begin
        let off = t.last_row - t.row_best_col in
        let lo = off - t.width and hi = off + t.width in
        if lo <> t.lo || hi <> t.hi then t.moves <- t.moves + 1;
        t.lo <- lo;
        t.hi <- hi
      end;
      t.last_row <- min ((chunk + 1) * t.chunk_rows) t.qry_len - 1;
      t.row_best_col <- -1
    end;
    t.wf_n <- 0

  let decide t ~row ~col =
    let off = row - col in
    let ok = off >= t.lo && off <= t.hi in
    if ok then begin
      let i = (row * t.ref_len) + col in
      if Bytes.get t.bitmap i = '\000' then begin
        Bytes.set t.bitmap i '\001';
        t.count <- t.count + 1
      end
    end;
    ok

  let observe t ~row ~col ~score =
    t.wf_off.(t.wf_n) <- row - col;
    t.wf_score.(t.wf_n) <- score;
    t.wf_n <- t.wf_n + 1;
    if
      row = t.last_row
      && (t.row_best_col < 0 || Score.better t.objective score t.row_best_score)
    then begin
      t.row_best_col <- col;
      t.row_best_score <- score
    end

  let alive objective threshold ~best score =
    match (objective : Score.objective) with
    | Maximize -> score >= best - threshold
    | Minimize -> score <= best + threshold

  let end_wavefront t =
    if t.wf_n > 0 then begin
      (* Wavefront best: strictly better replaces, so the earliest (lowest
         offset, i.e. lowest row) observation wins ties in both engines.
         It feeds the running best, which is never reset: pruning is
         X-drop style against the best score seen anywhere so far, so once
         the alignment path has left a chunk's row strip the trailing
         wavefronts decay below the threshold and the band goes quiet
         instead of marching along the strip edge. *)
      let bi = ref 0 in
      for i = 1 to t.wf_n - 1 do
        if Score.better t.objective t.wf_score.(i) t.wf_score.(!bi) then bi := i
      done;
      if Score.better t.objective t.wf_score.(!bi) t.best then
        t.best <- t.wf_score.(!bi);
      let best = t.best and center = t.wf_off.(!bi) in
      let live_lo = ref max_int and live_hi = ref min_int in
      for i = 0 to t.wf_n - 1 do
        if alive t.objective t.threshold ~best t.wf_score.(i) then begin
          if t.wf_off.(i) < !live_lo then live_lo := t.wf_off.(i);
          if t.wf_off.(i) > !live_hi then live_hi := t.wf_off.(i)
        end
      done;
      (* An all-dead wavefront freezes the window: either the path left
         this chunk (nothing more will come alive) or the window is mid-
         jump over a region it skips (the frozen window waits for it). *)
      if !live_lo <= !live_hi then begin
        (* The next window is the live hull, growing a side by one only
           when the hull touches the current window there (an expanding
           frontier); a side whose boundary offsets died stays clamped to
           the hull. The window is clipped to [width] around the
           wavefront-best cell, and — like a hardware band register — each
           edge moves at most one offset per wavefront, so a transiently
           observed far-off cell (e.g. the border ramp at a chunk start)
           cannot teleport the window off the alignment path. *)
        let next_lo = if !live_lo <= t.lo then !live_lo - 1 else !live_lo in
        let next_hi = if !live_hi >= t.hi then !live_hi + 1 else !live_hi in
        let next_lo = max next_lo (center - t.width) in
        let next_hi = min next_hi (center + t.width) in
        let lo = min next_lo (t.lo + 1) and hi = max next_hi (t.hi - 1) in
        if lo <> t.lo || hi <> t.hi then t.moves <- t.moves + 1;
        t.lo <- lo;
        t.hi <- hi
      end;
      t.wf_n <- 0
    end

  let member t ~row ~col =
    if row < 0 || col < 0 then true
    else Bytes.get t.bitmap ((row * t.ref_len) + col) <> '\000'

  let cells_computed t = t.count
  let window_moves t = t.moves
  let window t = (t.lo, t.hi)
end
