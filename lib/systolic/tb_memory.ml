(* Bank-major backing store. Bank [pe] is [span] words at
   [pe * span]; within a bank, chunk [c] takes [ref_len] words, one per
   column. The coalesced address [c * wavefronts_per_chunk + pe + col]
   is the modeled one; the [n_pe - 1] addresses of each chunk on which a
   PE idles, and the banks of PEs that own no row, take no storage. *)
type t = {
  schedule : Schedule.t;
  span : int;
  store : int array;
  mutable words : int;
}

let create schedule =
  let s = schedule in
  let banks = min s.Schedule.n_pe s.Schedule.qry_len in
  let span = s.Schedule.n_chunks * s.Schedule.ref_len in
  { schedule; span; store = Array.make (banks * span) 0; words = 0 }

let index t ~row ~col =
  let s = t.schedule in
  let chunk = Schedule.chunk_of_row s row and pe = Schedule.pe_of_row s row in
  (pe * t.span) + (chunk * s.Schedule.ref_len) + col

let write t ~row ~col ptr =
  t.store.(index t ~row ~col) <- ptr;
  t.words <- t.words + 1

let read t ~row ~col = t.store.(index t ~row ~col)

let store t = t.store

(* PE [p]'s word at [wavefront] is [p * span + chunk * ref_len +
   (wavefront - p)]: a base plus [p] steps of [span - 1]. *)
let wave_base t ~chunk ~wavefront = (chunk * t.schedule.Schedule.ref_len) + wavefront
let wave_step t = t.span - 1
let stored t n = t.words <- t.words + n
let words_written t = t.words
let bank_count t = t.schedule.Schedule.n_pe
let depth t = Schedule.tb_depth t.schedule
