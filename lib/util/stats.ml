let check_nonempty xs = if Array.length xs = 0 then invalid_arg "Stats: empty"

let mean xs =
  check_nonempty xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  check_nonempty xs;
  let m = mean xs in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
    /. float_of_int (Array.length xs)
  in
  sqrt var

let sorted xs =
  let c = Array.copy xs in
  Array.sort compare c;
  c

let percentile xs p =
  check_nonempty xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile";
  let s = sorted xs in
  let n = Array.length s in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then s.(lo)
  else
    let frac = rank -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let percentile_exact xs p =
  check_nonempty xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile_exact";
  let s = sorted xs in
  let n = Array.length s in
  (* nearest-rank: the smallest observed value with at least p% of the
     samples at or below it. Never interpolates, so the result is always
     a sample that actually occurred — what an SLO verdict must compare
     against. For integral p, ceil(p/100 * n) is computed in exact
     integer arithmetic, so no rank is off by float rounding (in floats,
     p = 56 on n = 25 gives ceil 14.000000000000002 = 15, not 14). *)
  let rank =
    if Float.is_integer p then ((int_of_float p * n) + 99) / 100
    else int_of_float (ceil (p *. float_of_int n /. 100.0))
  in
  s.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.0

let geomean xs =
  check_nonempty xs;
  let acc =
    Array.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Stats.geomean: non-positive";
        acc +. log x)
      0.0 xs
  in
  exp (acc /. float_of_int (Array.length xs))

let min_of xs =
  check_nonempty xs;
  Array.fold_left min xs.(0) xs

let max_of xs =
  check_nonempty xs;
  Array.fold_left max xs.(0) xs
