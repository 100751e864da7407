module Score = Dphls_util.Score

type gaps = {
  open1 : int;
  extend1 : int;
  open2 : int;
  extend2 : int;
}

let gap_cost g len =
  Score.max2 (g.open1 + (g.extend1 * len)) (g.open2 + (g.extend2 * len))

let init_border g ~layer ~index =
  if layer = 0 then gap_cost g (index + 1) else Score.neg_inf

let origin ~layer = if layer = 0 then 0 else Score.neg_inf
