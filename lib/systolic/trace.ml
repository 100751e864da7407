type event = {
  chunk : int;
  wavefront : int;
  pe : int;
  cell : Dphls_core.Types.cell;
  tb : int;
  scores : Dphls_core.Types.score array;
}

type window = {
  w_chunk : int;
  w_wavefront : int;
  w_lo : int;
  w_hi : int;
}

type t = {
  enabled : bool;
  capture : bool;
  mutable rev_events : event list;
  mutable rev_windows : window list;
}

let create ~enabled =
  { enabled; capture = false; rev_events = []; rev_windows = [] }

let create_capture () =
  { enabled = true; capture = true; rev_events = []; rev_windows = [] }

let enabled t = t.enabled
let capturing t = t.capture

let record t e = if t.enabled then t.rev_events <- e :: t.rev_events

let events t = List.rev t.rev_events

let record_window t w = if t.enabled then t.rev_windows <- w :: t.rev_windows

let windows t = List.rev t.rev_windows
