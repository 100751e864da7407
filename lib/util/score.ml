type t = int

let neg_inf = min_int / 4
let pos_inf = max_int / 4

(* A value is considered infinite once it crosses half the sentinel, so
   that sums of an infinity and any realistic score stay infinite. *)
let is_neg_inf x = x <= neg_inf / 2
let is_pos_inf x = x >= pos_inf / 2

let clamp x = if x < neg_inf then neg_inf else if x > pos_inf then pos_inf else x

let add a b =
  if is_neg_inf a || is_neg_inf b then neg_inf
  else if is_pos_inf a || is_pos_inf b then pos_inf
  else clamp (a + b)

let mul a b =
  if a = 0 || b = 0 then 0
  else if is_neg_inf a || is_neg_inf b || is_pos_inf a || is_pos_inf b then
    (* infinities are absorbing, with the sign of the product *)
    if (a < 0) <> (b < 0) then neg_inf else pos_inf
  else
    (* both operands are < max_int/8 in magnitude (outside the infinity
       half-bands), so the division check cannot hit the min_int/-1 trap *)
    let p = a * b in
    if p / b = a then clamp p
    else if (a < 0) <> (b < 0) then neg_inf
    else pos_inf

let abs x = if x >= 0 then x else if is_neg_inf x then pos_inf else -x

let max2 (a : int) b = if a >= b then a else b
let min2 (a : int) b = if a <= b then a else b

type objective = Maximize | Minimize

let better obj (a : t) b =
  match obj with Maximize -> a > b | Minimize -> a < b

let best obj a b = match obj with Maximize -> max2 a b | Minimize -> min2 a b

let worst_value = function Maximize -> neg_inf | Minimize -> pos_inf

let to_string x =
  if is_neg_inf x then "-inf" else if is_pos_inf x then "+inf" else string_of_int x
