(** Bit-parallel Myers fast path.

    Computes unit-cost edit distance at one machine word of DP cells per
    operation ({!Myers}), maps it back onto the scores of the eligible
    kernel shapes ({!Engine}), and owns the rule that says which
    kernels and workloads those are ({!Eligibility}): the shape proof
    on a kernel's symbolic datapath plus the layer, score-site,
    traceback, band and border gates. The auto dispatch, the [bitpar]
    registry engine ({!Dphls_engines}) and [dphls check] all ask
    {!Eligibility}. *)

module Myers = Myers
module Engine = Engine
module Eligibility = Eligibility
