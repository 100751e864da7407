(** The pre-synthesis kernel checker: runs every analysis over a packed
    kernel and assembles one {!Report.t}. This is what `dphls check` and
    the CI gate call. *)

open Dphls_core

val chars_of_workload :
  ?limit:int -> Workload.t -> (Types.ch * Types.ch) array
(** Character-pair samples for {!Widths.analyze}, drawn from a
    representative workload (aligned and shifted query/reference pairs,
    at most [limit], default 12). Kernels with non-sequence alphabets
    (profiles, signals, integers) are sampled correctly because the
    pairs come from their own generated workloads. *)

val run :
  ?n_pe:int ->
  ?host:Lint.host_config ->
  max_len:int ->
  chars:(Types.ch * Types.ch) array ->
  Registry.packed ->
  Report.t
(** All checks: structural findings ({!Lint.structural}), width/overflow
    analysis ({!Widths.analyze}, skipped with an info finding when
    [chars] is empty), traceback-pointer width against [tb_bits] (only
    when traceback is enabled), FSM model checking ({!Fsm_check}),
    the three datapath analyses of the kernel's symbolic datapath —
    dependence footprint ({!Depend}), loop-carried recurrence II
    ({!Ii}) and bit-parallel fast-path eligibility
    ({!Dphls_bitpar.Eligibility.classify}, one [fastpath-eligible] or
    [fastpath-ineligible] info) — and
    the banding, parallelism and domain-safety lints ({!Lint}). A
    datapath that cannot be evaluated skips the width analysis with an
    info finding; the datapath analyses report why. [n_pe] is the
    PE-array size to lint utilization against, when known; [host] is
    the host-side run configuration for {!Lint.domain_safety}. *)
