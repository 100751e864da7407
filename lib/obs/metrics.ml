type t = { on : bool; counts : int array }

let disabled = { on = false; counts = [||] }
let create () = { on = true; counts = Array.make Counter.count 0 }
let enabled t = t.on

let add t c n =
  if t.on then begin
    let i = Counter.index c in
    t.counts.(i) <- t.counts.(i) + n
  end

let incr t c = add t c 1
let get t c = if t.on then t.counts.(Counter.index c) else 0
let reset t = if t.on then Array.fill t.counts 0 (Array.length t.counts) 0

let merge_into ~into src =
  if src.on then
    Array.iter (fun c -> add into c (get src c)) Counter.all

let to_alist t = Array.to_list (Array.map (fun c -> (c, get t c)) Counter.all)
