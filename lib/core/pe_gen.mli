(** Straight-line PE evaluators and fused row loops for the kernel
    catalog's datapaths.

    The implementation is generated: [lib/kernels/gen/gen_pe.exe]
    compiles every catalog kernel's datapath at its default parameters
    and writes, per distinct program (twelve cover the 19 kernels), one
    straight-line PE function, one row loop ({!Pe.row}) that inlines
    the same instructions into a loop over one row of the golden
    engine's score ring, and one wave loop ({!Pe.wave}) that inlines
    them into a loop over a run of PEs of one wavefront of the systolic
    array. Each instruction of the program becomes one let-binding
    computed as {!Datapath.exec} computes it, so the per-cell dispatch
    over the code array is gone, and in the row and the wave the
    per-cell register-file copies, buffer checks and indirect call are
    gone too. [dune runtest] fails when the committed file differs from
    a fresh generation; [dune build @runtest --auto-promote] rewrites
    it. *)

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

val find_row : Datapath.program -> Pe.row option
(** [find_row p] is the generated row loop ({!Pe.row}) for [p], under
    the same key as {!find}: the program's instructions inlined into a
    loop over one row of the golden engine's ring, which checks the
    ring bounds once per call ({!Pe.check_row}) where the PE checks its
    buffers once per cell, and stores each pointer with
    {!Pe.store_pointer}. A hit computes, cell by cell in column order,
    what [Pe.row_of_flat (Datapath.flat p)] computes. *)

val find_wave : Datapath.program -> Pe.wave option
(** [find_wave p] is the generated wave loop ({!Pe.wave}) for [p], under
    the same key as {!find}: the program's instructions inlined into a
    loop over a run of PEs of one wavefront, reading the three
    neighbours straight from the wavefront planes. It checks the planes,
    rows, columns and pointer words once per call ({!Pe.check_wave})
    where the PE checks its buffers once per cell. A hit computes, PE by
    PE in order, what [Pe.wave_of_flat (Datapath.flat p)] computes. *)
