(** Straight-line PE evaluators for the kernel catalog's datapaths.

    The implementation is generated: [lib/kernels/gen/gen_pe.exe]
    compiles every catalog kernel's datapath at its default parameters
    and writes one straight-line OCaml function per distinct program
    (twelve cover the 19 kernels). Each instruction of the program
    becomes one let-binding computed as {!Datapath.exec} computes it, so
    the per-cell dispatch over the code array is gone. [dune runtest]
    fails when the committed file differs from a fresh generation;
    [dune build @runtest --auto-promote] rewrites it. *)

val find : Datapath.program -> Pe.flat option
(** [find p] is the generated evaluator for [p], built over [p]'s
    lookup tables ({!Datapath.luts}), when the table holds a program
    whose {!Datapath.view} equals [p]'s; [None] otherwise. The key is
    the whole program but its tables (every instruction with its
    immediates, the layer and pointer registers and the pointer shifts),
    so any difference is a miss and a hit computes what
    [Datapath.flat p] computes. The evaluator performs no allocation and
    holds no mutable state. Costs one {!Datapath.view} and at most one
    structural comparison per table entry. *)
