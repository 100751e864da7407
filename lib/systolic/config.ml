type t = { n_pe : int }

let max_n_pe = 1024

let create ~n_pe =
  if n_pe < 1 || n_pe > max_n_pe then
    invalid_arg
      (Printf.sprintf "Systolic.Config: n_pe out of [1,%d]" max_n_pe);
  { n_pe }
