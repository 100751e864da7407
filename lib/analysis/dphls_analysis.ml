(** Pre-synthesis static analysis of kernel specifications — the
    [dphls check] subcommand and the CI gate.

    Hardware configuration mistakes should surface before synthesis
    (or before a long simulation), so this library analyzes a kernel
    spec without running it:

    - {!Interval} — the score-interval abstract domain;
    - {!Widths} — width/overflow analysis: propagates per-layer score
      bounds over the wavefronts by probing the PE on interval corner
      points, proving [score_bits] saturation-free up to a length bound
      or naming the first overflowing layer and the maximum safe
      length;
    - {!Fsm_check} — traceback FSM model checking over the full
      [(state, ptr)] space: out-of-range successors, [Stay]-only cycles
      (the exact condition for a non-terminating traceback), stop-rule
      inconsistencies;
    - {!Depend} — dependence-footprint analysis over the symbolic
      datapath: proves every cell-state read confined to the wavefront
      stencil {NW, N, W}, reports the inter-layer dependence graph and
      its loop-carried cycles;
    - {!Ii} — loop-carried recurrence critical path over the compiled
      flat code ({!Latency} per-opcode levels): modeled initiation
      interval and frequency tier, cross-checked against the declared
      traits and [Dphls_resource.Freq];
    - {!Lint} — configuration lint: adaptive-band thresholds against
      the [2|gap|·width] pruning bound, band width vs matrix size,
      PE-array utilization, pointer width vs [tb_bits], shared
      metrics sinks across worker domains;
    - {!Check} — runs all of the above on one kernel, and reports the
      bit-parallel engine's shape proof
      ({!Dphls_bitpar.Eligibility.classify}) as an info finding;
    - {!Report} — the severity-ranked findings report (text and JSON,
      both directions, through the shared {!Dphls_util.Json}).

    See [docs/analysis.md] for the methodology and worked examples. *)

module Check = Check
module Depend = Depend
module Fsm_check = Fsm_check
module Ii = Ii
module Interval = Interval
module Latency = Latency
module Lint = Lint
module Report = Report
module Widths = Widths
