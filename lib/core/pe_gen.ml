(* Generated by lib/kernels/gen/gen_pe.exe from the kernel catalog's
   datapaths at their default parameters; do not edit. `dune runtest`
   diffs this file against a fresh generation and
   `dune build @runtest --auto-promote` rewrites it.

   Per distinct compiled program, one straight-line PE evaluator,
   one row loop over the golden engine's ring and one wave loop over
   the systolic array's wavefront planes: each instruction of the
   program's view is one let-binding, computed as Datapath.exec
   computes it. The row reads up from the ring and carries left and
   diag over from the cell before; the wave reads its neighbours
   straight from the planes. Both check their bounds and the
   traceback plane's once per call (Pe.check_row or Pe.check_wave,
   then Pe.check_plane) and store pointers unchecked where the
   generator proves they fit 16 bits. *)

(* #1 global-linear, #6 overlap, #7 semi-global, #11 banded-global-linear, #16 adaptive-global-linear: 17 instructions *)
let key_k01 =
  Datapath.{
    v_insts =
      [|
        V_diag 0;
        V_qry 0;
        V_ref 0;
        V_const 2;
        V_const (-2);
        V_sel_eq (1, 2, 3, 4);
        V_add (0, 5);
        V_up 0;
        V_addi (7, -2);
        V_left 0;
        V_addi (9, -2);
        V_max3 (6, 8, 10);
        V_max (8, 10);
        V_const 1;
        V_sel_lt (8, 10, 3, 13);
        V_const 0;
        V_sel_lt (6, 12, 14, 15);
      |];
    v_layer_regs = [| 11 |];
    v_tb_regs = [| 16 |];
    v_tb_shifts = [| 0 |];
    v_n_layers = 1;
  }

let pe_k01 (b : Pe.buffers) =
  Datapath.check_buffers 1 b;
  let up = b.Pe.b_up in
  let diag = b.Pe.b_diag in
  let left = b.Pe.b_left in
  let r0 = Array.unsafe_get diag 0 in
  let r1 = b.Pe.b_qry.(0) in
  let r2 = b.Pe.b_rf.(0) in
  let r3 = 2 in
  let r4 = (-2) in
  let r5 = if r1 = r2 then r3 else r4 in
  let r6 = Datapath.sat_add_finite r0 r5 in
  let r7 = Array.unsafe_get up 0 in
  let r8 = Datapath.sat_add_finite r7 (-2) in
  let r9 = Array.unsafe_get left 0 in
  let r10 = Datapath.sat_add_finite r9 (-2) in
  let r11 = let m = if r6 >= r8 then r6 else r8 in if m >= r10 then m else r10 in
  let r12 = if r8 >= r10 then r8 else r10 in
  let r13 = 1 in
  let r14 = if r8 < r10 then r3 else r13 in
  let r15 = 0 in
  let r16 = if r6 < r12 then r14 else r15 in
  Array.unsafe_set b.Pe.b_scores 0 r11;
  b.Pe.b_tb <- r16

let row_k01 ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi =
  if lo <= hi then begin
    Pe.check_row ~n_layers:1 ~ring ~above ~base ~reference ~lo ~hi;
    let q0 = qry.(0) in
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row ~col:hi;
    let at = row * ref_len in
    let left0 = ref (Array.unsafe_get ring (base + (lo * 1))) in
    let diag0 = ref (Array.unsafe_get ring (above + (lo * 1))) in
    for c = lo to hi do
      let u = above + ((c + 1) * 1) in
      let a = base + ((c + 1) * 1) in
      let rf = Array.unsafe_get reference c in
      let r0 = !diag0 in
      let r1 = q0 in
      let r2 = rf.(0) in
      let r3 = 2 in
      let r4 = (-2) in
      let r5 = if r1 = r2 then r3 else r4 in
      let r6 = Datapath.sat_add_finite r0 r5 in
      let r7 = Array.unsafe_get ring u in
      let r8 = Datapath.sat_add_finite r7 (-2) in
      let r9 = !left0 in
      let r10 = Datapath.sat_add_finite r9 (-2) in
      let r11 = let m = if r6 >= r8 then r6 else r8 in if m >= r10 then m else r10 in
      let r12 = if r8 >= r10 then r8 else r10 in
      let r13 = 1 in
      let r14 = if r8 < r10 then r3 else r13 in
      let r15 = 0 in
      let r16 = if r6 < r12 then r14 else r15 in
      Array.unsafe_set ring a r11;
      left0 := r11;
      diag0 := r7;
      if has_tb then Pe.set_pointer tb (at + c) (r16)
    done
  end

(* #2 global-affine: 25 instructions *)
let key_k02 =
  Datapath.{
    v_insts =
      [|
        V_up 0;
        V_addi (0, -4);
        V_up 1;
        V_addi (2, -1);
        V_max (1, 3);
        V_left 0;
        V_addi (5, -4);
        V_left 2;
        V_addi (7, -1);
        V_max (6, 8);
        V_diag 0;
        V_qry 0;
        V_ref 0;
        V_const 2;
        V_const (-2);
        V_sel_eq (11, 12, 13, 14);
        V_add (10, 15);
        V_max3 (16, 4, 9);
        V_max (4, 9);
        V_const 1;
        V_sel_lt (4, 9, 13, 19);
        V_const 0;
        V_sel_lt (16, 18, 20, 21);
        V_sel_lt (1, 3, 19, 21);
        V_sel_lt (6, 8, 19, 21);
      |];
    v_layer_regs = [| 17; 4; 9 |];
    v_tb_regs = [| 22; 23; 24 |];
    v_tb_shifts = [| 0; 2; 3 |];
    v_n_layers = 3;
  }

let pe_k02 (b : Pe.buffers) =
  Datapath.check_buffers 3 b;
  let up = b.Pe.b_up in
  let diag = b.Pe.b_diag in
  let left = b.Pe.b_left in
  let r0 = Array.unsafe_get up 0 in
  let r1 = Datapath.sat_add_finite r0 (-4) in
  let r2 = Array.unsafe_get up 1 in
  let r3 = Datapath.sat_add_finite r2 (-1) in
  let r4 = if r1 >= r3 then r1 else r3 in
  let r5 = Array.unsafe_get left 0 in
  let r6 = Datapath.sat_add_finite r5 (-4) in
  let r7 = Array.unsafe_get left 2 in
  let r8 = Datapath.sat_add_finite r7 (-1) in
  let r9 = if r6 >= r8 then r6 else r8 in
  let r10 = Array.unsafe_get diag 0 in
  let r11 = b.Pe.b_qry.(0) in
  let r12 = b.Pe.b_rf.(0) in
  let r13 = 2 in
  let r14 = (-2) in
  let r15 = if r11 = r12 then r13 else r14 in
  let r16 = Datapath.sat_add_finite r10 r15 in
  let r17 = let m = if r16 >= r4 then r16 else r4 in if m >= r9 then m else r9 in
  let r18 = if r4 >= r9 then r4 else r9 in
  let r19 = 1 in
  let r20 = if r4 < r9 then r13 else r19 in
  let r21 = 0 in
  let r22 = if r16 < r18 then r20 else r21 in
  let r23 = if r1 < r3 then r19 else r21 in
  let r24 = if r6 < r8 then r19 else r21 in
  Array.unsafe_set b.Pe.b_scores 0 r17;
  Array.unsafe_set b.Pe.b_scores 1 r4;
  Array.unsafe_set b.Pe.b_scores 2 r9;
  b.Pe.b_tb <- r22 lor (r23 lsl 2) lor (r24 lsl 3)

let row_k02 ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi =
  if lo <= hi then begin
    Pe.check_row ~n_layers:3 ~ring ~above ~base ~reference ~lo ~hi;
    let q0 = qry.(0) in
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row ~col:hi;
    let at = row * ref_len in
    let left0 = ref (Array.unsafe_get ring (base + (lo * 3))) in
    let left2 = ref (Array.unsafe_get ring (base + (lo * 3) + 2)) in
    let diag0 = ref (Array.unsafe_get ring (above + (lo * 3))) in
    for c = lo to hi do
      let u = above + ((c + 1) * 3) in
      let a = base + ((c + 1) * 3) in
      let rf = Array.unsafe_get reference c in
      let r0 = Array.unsafe_get ring u in
      let r1 = Datapath.sat_add_finite r0 (-4) in
      let r2 = Array.unsafe_get ring (u + 1) in
      let r3 = Datapath.sat_add_finite r2 (-1) in
      let r4 = if r1 >= r3 then r1 else r3 in
      let r5 = !left0 in
      let r6 = Datapath.sat_add_finite r5 (-4) in
      let r7 = !left2 in
      let r8 = Datapath.sat_add_finite r7 (-1) in
      let r9 = if r6 >= r8 then r6 else r8 in
      let r10 = !diag0 in
      let r11 = q0 in
      let r12 = rf.(0) in
      let r13 = 2 in
      let r14 = (-2) in
      let r15 = if r11 = r12 then r13 else r14 in
      let r16 = Datapath.sat_add_finite r10 r15 in
      let r17 = let m = if r16 >= r4 then r16 else r4 in if m >= r9 then m else r9 in
      let r18 = if r4 >= r9 then r4 else r9 in
      let r19 = 1 in
      let r20 = if r4 < r9 then r13 else r19 in
      let r21 = 0 in
      let r22 = if r16 < r18 then r20 else r21 in
      let r23 = if r1 < r3 then r19 else r21 in
      let r24 = if r6 < r8 then r19 else r21 in
      Array.unsafe_set ring a r17;
      Array.unsafe_set ring (a + 1) r4;
      Array.unsafe_set ring (a + 2) r9;
      left0 := r17;
      left2 := r9;
      diag0 := r0;
      if has_tb then Pe.set_pointer tb (at + c) (r22 lor (r23 lsl 2) lor (r24 lsl 3))
    done
  end

(* #3 local-linear: 20 instructions *)
let key_k03 =
  Datapath.{
    v_insts =
      [|
        V_diag 0;
        V_qry 0;
        V_ref 0;
        V_const 2;
        V_const (-2);
        V_sel_eq (1, 2, 3, 4);
        V_add (0, 5);
        V_up 0;
        V_addi (7, -2);
        V_left 0;
        V_addi (9, -2);
        V_max3 (6, 8, 10);
        V_const 0;
        V_sel_le (11, 12, 12, 11);
        V_const 3;
        V_max (8, 10);
        V_const 1;
        V_sel_lt (8, 10, 3, 16);
        V_sel_lt (6, 15, 17, 12);
        V_sel_le (11, 12, 14, 18);
      |];
    v_layer_regs = [| 13 |];
    v_tb_regs = [| 19 |];
    v_tb_shifts = [| 0 |];
    v_n_layers = 1;
  }

let pe_k03 (b : Pe.buffers) =
  Datapath.check_buffers 1 b;
  let up = b.Pe.b_up in
  let diag = b.Pe.b_diag in
  let left = b.Pe.b_left in
  let r0 = Array.unsafe_get diag 0 in
  let r1 = b.Pe.b_qry.(0) in
  let r2 = b.Pe.b_rf.(0) in
  let r3 = 2 in
  let r4 = (-2) in
  let r5 = if r1 = r2 then r3 else r4 in
  let r6 = Datapath.sat_add_finite r0 r5 in
  let r7 = Array.unsafe_get up 0 in
  let r8 = Datapath.sat_add_finite r7 (-2) in
  let r9 = Array.unsafe_get left 0 in
  let r10 = Datapath.sat_add_finite r9 (-2) in
  let r11 = let m = if r6 >= r8 then r6 else r8 in if m >= r10 then m else r10 in
  let r12 = 0 in
  let r13 = if r11 <= r12 then r12 else r11 in
  let r14 = 3 in
  let r15 = if r8 >= r10 then r8 else r10 in
  let r16 = 1 in
  let r17 = if r8 < r10 then r3 else r16 in
  let r18 = if r6 < r15 then r17 else r12 in
  let r19 = if r11 <= r12 then r14 else r18 in
  Array.unsafe_set b.Pe.b_scores 0 r13;
  b.Pe.b_tb <- r19

let row_k03 ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi =
  if lo <= hi then begin
    Pe.check_row ~n_layers:1 ~ring ~above ~base ~reference ~lo ~hi;
    let q0 = qry.(0) in
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row ~col:hi;
    let at = row * ref_len in
    let left0 = ref (Array.unsafe_get ring (base + (lo * 1))) in
    let diag0 = ref (Array.unsafe_get ring (above + (lo * 1))) in
    for c = lo to hi do
      let u = above + ((c + 1) * 1) in
      let a = base + ((c + 1) * 1) in
      let rf = Array.unsafe_get reference c in
      let r0 = !diag0 in
      let r1 = q0 in
      let r2 = rf.(0) in
      let r3 = 2 in
      let r4 = (-2) in
      let r5 = if r1 = r2 then r3 else r4 in
      let r6 = Datapath.sat_add_finite r0 r5 in
      let r7 = Array.unsafe_get ring u in
      let r8 = Datapath.sat_add_finite r7 (-2) in
      let r9 = !left0 in
      let r10 = Datapath.sat_add_finite r9 (-2) in
      let r11 = let m = if r6 >= r8 then r6 else r8 in if m >= r10 then m else r10 in
      let r12 = 0 in
      let r13 = if r11 <= r12 then r12 else r11 in
      let r14 = 3 in
      let r15 = if r8 >= r10 then r8 else r10 in
      let r16 = 1 in
      let r17 = if r8 < r10 then r3 else r16 in
      let r18 = if r6 < r15 then r17 else r12 in
      let r19 = if r11 <= r12 then r14 else r18 in
      Array.unsafe_set ring a r13;
      left0 := r13;
      diag0 := r7;
      if has_tb then Pe.set_pointer tb (at + c) (r19)
    done
  end

(* #4 local-affine: 28 instructions *)
let key_k04 =
  Datapath.{
    v_insts =
      [|
        V_up 0;
        V_addi (0, -4);
        V_up 1;
        V_addi (2, -1);
        V_max (1, 3);
        V_left 0;
        V_addi (5, -4);
        V_left 2;
        V_addi (7, -1);
        V_max (6, 8);
        V_diag 0;
        V_qry 0;
        V_ref 0;
        V_const 2;
        V_const (-2);
        V_sel_eq (11, 12, 13, 14);
        V_add (10, 15);
        V_max3 (16, 4, 9);
        V_const 0;
        V_sel_le (17, 18, 18, 17);
        V_const 3;
        V_max (4, 9);
        V_const 1;
        V_sel_lt (4, 9, 13, 22);
        V_sel_lt (16, 21, 23, 18);
        V_sel_le (17, 18, 20, 24);
        V_sel_lt (1, 3, 22, 18);
        V_sel_lt (6, 8, 22, 18);
      |];
    v_layer_regs = [| 19; 4; 9 |];
    v_tb_regs = [| 25; 26; 27 |];
    v_tb_shifts = [| 0; 2; 3 |];
    v_n_layers = 3;
  }

let pe_k04 (b : Pe.buffers) =
  Datapath.check_buffers 3 b;
  let up = b.Pe.b_up in
  let diag = b.Pe.b_diag in
  let left = b.Pe.b_left in
  let r0 = Array.unsafe_get up 0 in
  let r1 = Datapath.sat_add_finite r0 (-4) in
  let r2 = Array.unsafe_get up 1 in
  let r3 = Datapath.sat_add_finite r2 (-1) in
  let r4 = if r1 >= r3 then r1 else r3 in
  let r5 = Array.unsafe_get left 0 in
  let r6 = Datapath.sat_add_finite r5 (-4) in
  let r7 = Array.unsafe_get left 2 in
  let r8 = Datapath.sat_add_finite r7 (-1) in
  let r9 = if r6 >= r8 then r6 else r8 in
  let r10 = Array.unsafe_get diag 0 in
  let r11 = b.Pe.b_qry.(0) in
  let r12 = b.Pe.b_rf.(0) in
  let r13 = 2 in
  let r14 = (-2) in
  let r15 = if r11 = r12 then r13 else r14 in
  let r16 = Datapath.sat_add_finite r10 r15 in
  let r17 = let m = if r16 >= r4 then r16 else r4 in if m >= r9 then m else r9 in
  let r18 = 0 in
  let r19 = if r17 <= r18 then r18 else r17 in
  let r20 = 3 in
  let r21 = if r4 >= r9 then r4 else r9 in
  let r22 = 1 in
  let r23 = if r4 < r9 then r13 else r22 in
  let r24 = if r16 < r21 then r23 else r18 in
  let r25 = if r17 <= r18 then r20 else r24 in
  let r26 = if r1 < r3 then r22 else r18 in
  let r27 = if r6 < r8 then r22 else r18 in
  Array.unsafe_set b.Pe.b_scores 0 r19;
  Array.unsafe_set b.Pe.b_scores 1 r4;
  Array.unsafe_set b.Pe.b_scores 2 r9;
  b.Pe.b_tb <- r25 lor (r26 lsl 2) lor (r27 lsl 3)

let row_k04 ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi =
  if lo <= hi then begin
    Pe.check_row ~n_layers:3 ~ring ~above ~base ~reference ~lo ~hi;
    let q0 = qry.(0) in
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row ~col:hi;
    let at = row * ref_len in
    let left0 = ref (Array.unsafe_get ring (base + (lo * 3))) in
    let left2 = ref (Array.unsafe_get ring (base + (lo * 3) + 2)) in
    let diag0 = ref (Array.unsafe_get ring (above + (lo * 3))) in
    for c = lo to hi do
      let u = above + ((c + 1) * 3) in
      let a = base + ((c + 1) * 3) in
      let rf = Array.unsafe_get reference c in
      let r0 = Array.unsafe_get ring u in
      let r1 = Datapath.sat_add_finite r0 (-4) in
      let r2 = Array.unsafe_get ring (u + 1) in
      let r3 = Datapath.sat_add_finite r2 (-1) in
      let r4 = if r1 >= r3 then r1 else r3 in
      let r5 = !left0 in
      let r6 = Datapath.sat_add_finite r5 (-4) in
      let r7 = !left2 in
      let r8 = Datapath.sat_add_finite r7 (-1) in
      let r9 = if r6 >= r8 then r6 else r8 in
      let r10 = !diag0 in
      let r11 = q0 in
      let r12 = rf.(0) in
      let r13 = 2 in
      let r14 = (-2) in
      let r15 = if r11 = r12 then r13 else r14 in
      let r16 = Datapath.sat_add_finite r10 r15 in
      let r17 = let m = if r16 >= r4 then r16 else r4 in if m >= r9 then m else r9 in
      let r18 = 0 in
      let r19 = if r17 <= r18 then r18 else r17 in
      let r20 = 3 in
      let r21 = if r4 >= r9 then r4 else r9 in
      let r22 = 1 in
      let r23 = if r4 < r9 then r13 else r22 in
      let r24 = if r16 < r21 then r23 else r18 in
      let r25 = if r17 <= r18 then r20 else r24 in
      let r26 = if r1 < r3 then r22 else r18 in
      let r27 = if r6 < r8 then r22 else r18 in
      Array.unsafe_set ring a r19;
      Array.unsafe_set ring (a + 1) r4;
      Array.unsafe_set ring (a + 2) r9;
      left0 := r19;
      left2 := r9;
      diag0 := r0;
      if has_tb then Pe.set_pointer tb (at + c) (r25 lor (r26 lsl 2) lor (r27 lsl 3))
    done
  end

(* #5 global-two-piece, #13 banded-global-two-piece, #18 adaptive-global-two-piece: 46 instructions *)
let key_k05 =
  Datapath.{
    v_insts =
      [|
        V_up 0;
        V_addi (0, -6);
        V_up 1;
        V_addi (2, -2);
        V_max (1, 3);
        V_left 0;
        V_addi (5, -6);
        V_left 2;
        V_addi (7, -2);
        V_max (6, 8);
        V_addi (0, -25);
        V_up 3;
        V_addi (11, -1);
        V_max (10, 12);
        V_addi (5, -25);
        V_left 4;
        V_addi (15, -1);
        V_max (14, 16);
        V_diag 0;
        V_qry 0;
        V_ref 0;
        V_const 2;
        V_const (-4);
        V_sel_eq (19, 20, 21, 22);
        V_add (18, 23);
        V_max (24, 4);
        V_max (25, 9);
        V_max (26, 13);
        V_max (27, 17);
        V_max (4, 9);
        V_max (29, 13);
        V_max (30, 17);
        V_max3 (9, 13, 17);
        V_max (13, 17);
        V_const 4;
        V_const 3;
        V_sel_lt (13, 17, 34, 35);
        V_sel_lt (9, 33, 36, 21);
        V_const 1;
        V_sel_lt (4, 32, 37, 38);
        V_const 0;
        V_sel_lt (24, 31, 39, 40);
        V_sel_lt (1, 3, 38, 40);
        V_sel_lt (6, 8, 38, 40);
        V_sel_lt (10, 12, 38, 40);
        V_sel_lt (14, 16, 38, 40);
      |];
    v_layer_regs = [| 28; 4; 9; 13; 17 |];
    v_tb_regs = [| 41; 42; 43; 44; 45 |];
    v_tb_shifts = [| 0; 3; 4; 5; 6 |];
    v_n_layers = 5;
  }

let pe_k05 (b : Pe.buffers) =
  Datapath.check_buffers 5 b;
  let up = b.Pe.b_up in
  let diag = b.Pe.b_diag in
  let left = b.Pe.b_left in
  let r0 = Array.unsafe_get up 0 in
  let r1 = Datapath.sat_add_finite r0 (-6) in
  let r2 = Array.unsafe_get up 1 in
  let r3 = Datapath.sat_add_finite r2 (-2) in
  let r4 = if r1 >= r3 then r1 else r3 in
  let r5 = Array.unsafe_get left 0 in
  let r6 = Datapath.sat_add_finite r5 (-6) in
  let r7 = Array.unsafe_get left 2 in
  let r8 = Datapath.sat_add_finite r7 (-2) in
  let r9 = if r6 >= r8 then r6 else r8 in
  let r10 = Datapath.sat_add_finite r0 (-25) in
  let r11 = Array.unsafe_get up 3 in
  let r12 = Datapath.sat_add_finite r11 (-1) in
  let r13 = if r10 >= r12 then r10 else r12 in
  let r14 = Datapath.sat_add_finite r5 (-25) in
  let r15 = Array.unsafe_get left 4 in
  let r16 = Datapath.sat_add_finite r15 (-1) in
  let r17 = if r14 >= r16 then r14 else r16 in
  let r18 = Array.unsafe_get diag 0 in
  let r19 = b.Pe.b_qry.(0) in
  let r20 = b.Pe.b_rf.(0) in
  let r21 = 2 in
  let r22 = (-4) in
  let r23 = if r19 = r20 then r21 else r22 in
  let r24 = Datapath.sat_add_finite r18 r23 in
  let r25 = if r24 >= r4 then r24 else r4 in
  let r26 = if r25 >= r9 then r25 else r9 in
  let r27 = if r26 >= r13 then r26 else r13 in
  let r28 = if r27 >= r17 then r27 else r17 in
  let r29 = if r4 >= r9 then r4 else r9 in
  let r30 = if r29 >= r13 then r29 else r13 in
  let r31 = if r30 >= r17 then r30 else r17 in
  let r32 = let m = if r9 >= r13 then r9 else r13 in if m >= r17 then m else r17 in
  let r33 = if r13 >= r17 then r13 else r17 in
  let r34 = 4 in
  let r35 = 3 in
  let r36 = if r13 < r17 then r34 else r35 in
  let r37 = if r9 < r33 then r36 else r21 in
  let r38 = 1 in
  let r39 = if r4 < r32 then r37 else r38 in
  let r40 = 0 in
  let r41 = if r24 < r31 then r39 else r40 in
  let r42 = if r1 < r3 then r38 else r40 in
  let r43 = if r6 < r8 then r38 else r40 in
  let r44 = if r10 < r12 then r38 else r40 in
  let r45 = if r14 < r16 then r38 else r40 in
  Array.unsafe_set b.Pe.b_scores 0 r28;
  Array.unsafe_set b.Pe.b_scores 1 r4;
  Array.unsafe_set b.Pe.b_scores 2 r9;
  Array.unsafe_set b.Pe.b_scores 3 r13;
  Array.unsafe_set b.Pe.b_scores 4 r17;
  b.Pe.b_tb <- r41 lor (r42 lsl 3) lor (r43 lsl 4) lor (r44 lsl 5) lor (r45 lsl 6)

let row_k05 ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi =
  if lo <= hi then begin
    Pe.check_row ~n_layers:5 ~ring ~above ~base ~reference ~lo ~hi;
    let q0 = qry.(0) in
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row ~col:hi;
    let at = row * ref_len in
    let left0 = ref (Array.unsafe_get ring (base + (lo * 5))) in
    let left2 = ref (Array.unsafe_get ring (base + (lo * 5) + 2)) in
    let left4 = ref (Array.unsafe_get ring (base + (lo * 5) + 4)) in
    let diag0 = ref (Array.unsafe_get ring (above + (lo * 5))) in
    for c = lo to hi do
      let u = above + ((c + 1) * 5) in
      let a = base + ((c + 1) * 5) in
      let rf = Array.unsafe_get reference c in
      let r0 = Array.unsafe_get ring u in
      let r1 = Datapath.sat_add_finite r0 (-6) in
      let r2 = Array.unsafe_get ring (u + 1) in
      let r3 = Datapath.sat_add_finite r2 (-2) in
      let r4 = if r1 >= r3 then r1 else r3 in
      let r5 = !left0 in
      let r6 = Datapath.sat_add_finite r5 (-6) in
      let r7 = !left2 in
      let r8 = Datapath.sat_add_finite r7 (-2) in
      let r9 = if r6 >= r8 then r6 else r8 in
      let r10 = Datapath.sat_add_finite r0 (-25) in
      let r11 = Array.unsafe_get ring (u + 3) in
      let r12 = Datapath.sat_add_finite r11 (-1) in
      let r13 = if r10 >= r12 then r10 else r12 in
      let r14 = Datapath.sat_add_finite r5 (-25) in
      let r15 = !left4 in
      let r16 = Datapath.sat_add_finite r15 (-1) in
      let r17 = if r14 >= r16 then r14 else r16 in
      let r18 = !diag0 in
      let r19 = q0 in
      let r20 = rf.(0) in
      let r21 = 2 in
      let r22 = (-4) in
      let r23 = if r19 = r20 then r21 else r22 in
      let r24 = Datapath.sat_add_finite r18 r23 in
      let r25 = if r24 >= r4 then r24 else r4 in
      let r26 = if r25 >= r9 then r25 else r9 in
      let r27 = if r26 >= r13 then r26 else r13 in
      let r28 = if r27 >= r17 then r27 else r17 in
      let r29 = if r4 >= r9 then r4 else r9 in
      let r30 = if r29 >= r13 then r29 else r13 in
      let r31 = if r30 >= r17 then r30 else r17 in
      let r32 = let m = if r9 >= r13 then r9 else r13 in if m >= r17 then m else r17 in
      let r33 = if r13 >= r17 then r13 else r17 in
      let r34 = 4 in
      let r35 = 3 in
      let r36 = if r13 < r17 then r34 else r35 in
      let r37 = if r9 < r33 then r36 else r21 in
      let r38 = 1 in
      let r39 = if r4 < r32 then r37 else r38 in
      let r40 = 0 in
      let r41 = if r24 < r31 then r39 else r40 in
      let r42 = if r1 < r3 then r38 else r40 in
      let r43 = if r6 < r8 then r38 else r40 in
      let r44 = if r10 < r12 then r38 else r40 in
      let r45 = if r14 < r16 then r38 else r40 in
      Array.unsafe_set ring a r28;
      Array.unsafe_set ring (a + 1) r4;
      Array.unsafe_set ring (a + 2) r9;
      Array.unsafe_set ring (a + 3) r13;
      Array.unsafe_set ring (a + 4) r17;
      left0 := r28;
      left2 := r9;
      left4 := r17;
      diag0 := r0;
      if has_tb then Pe.set_pointer tb (at + c) (r41 lor (r42 lsl 3) lor (r43 lsl 4) lor (r44 lsl 5) lor (r45 lsl 6))
    done
  end

(* #8 profile: 110 instructions *)
let key_k08 =
  Datapath.{
    v_insts =
      [|
        V_diag 0;
        V_qry 0;
        V_ref 0;
        V_mul (1, 2);
        V_const 2;
        V_mul (3, 4);
        V_ref 1;
        V_mul (1, 6);
        V_const (-2);
        V_mul (7, 8);
        V_add (5, 9);
        V_ref 2;
        V_mul (1, 11);
        V_mul (12, 8);
        V_add (10, 13);
        V_ref 3;
        V_mul (1, 15);
        V_mul (16, 8);
        V_add (14, 17);
        V_ref 4;
        V_mul (1, 19);
        V_mul (20, 8);
        V_add (18, 21);
        V_qry 1;
        V_mul (23, 2);
        V_mul (24, 8);
        V_mul (23, 6);
        V_mul (26, 4);
        V_add (25, 27);
        V_mul (23, 11);
        V_mul (29, 8);
        V_add (28, 30);
        V_mul (23, 15);
        V_mul (32, 8);
        V_add (31, 33);
        V_mul (23, 19);
        V_mul (35, 8);
        V_add (34, 36);
        V_add (22, 37);
        V_qry 2;
        V_mul (39, 2);
        V_mul (40, 8);
        V_mul (39, 6);
        V_mul (42, 8);
        V_add (41, 43);
        V_mul (39, 11);
        V_mul (45, 4);
        V_add (44, 46);
        V_mul (39, 15);
        V_mul (48, 8);
        V_add (47, 49);
        V_mul (39, 19);
        V_mul (51, 8);
        V_add (50, 52);
        V_add (38, 53);
        V_qry 3;
        V_mul (55, 2);
        V_mul (56, 8);
        V_mul (55, 6);
        V_mul (58, 8);
        V_add (57, 59);
        V_mul (55, 11);
        V_mul (61, 8);
        V_add (60, 62);
        V_mul (55, 15);
        V_mul (64, 4);
        V_add (63, 65);
        V_mul (55, 19);
        V_mul (67, 8);
        V_add (66, 68);
        V_add (54, 69);
        V_qry 4;
        V_mul (71, 2);
        V_mul (72, 8);
        V_mul (71, 6);
        V_mul (74, 8);
        V_add (73, 75);
        V_mul (71, 11);
        V_mul (77, 8);
        V_add (76, 78);
        V_mul (71, 15);
        V_mul (80, 8);
        V_add (79, 81);
        V_mul (71, 19);
        V_const 0;
        V_mul (83, 84);
        V_add (82, 85);
        V_add (70, 86);
        V_add (0, 87);
        V_up 0;
        V_add (1, 23);
        V_add (90, 39);
        V_add (91, 55);
        V_add (2, 6);
        V_add (93, 11);
        V_add (94, 15);
        V_add (95, 19);
        V_mul (92, 96);
        V_mul (8, 97);
        V_add (89, 98);
        V_left 0;
        V_add (92, 71);
        V_mul (95, 101);
        V_mul (8, 102);
        V_add (100, 103);
        V_max3 (88, 99, 104);
        V_max (99, 104);
        V_const 1;
        V_sel_lt (99, 104, 4, 107);
        V_sel_lt (88, 106, 108, 84);
      |];
    v_layer_regs = [| 105 |];
    v_tb_regs = [| 109 |];
    v_tb_shifts = [| 0 |];
    v_n_layers = 1;
  }

let pe_k08 (b : Pe.buffers) =
  Datapath.check_buffers 1 b;
  let up = b.Pe.b_up in
  let diag = b.Pe.b_diag in
  let left = b.Pe.b_left in
  let r0 = Array.unsafe_get diag 0 in
  let r1 = b.Pe.b_qry.(0) in
  let r2 = b.Pe.b_rf.(0) in
  let r3 = Dphls_util.Score.mul r1 r2 in
  let r4 = 2 in
  let r5 = Dphls_util.Score.mul r3 r4 in
  let r6 = b.Pe.b_rf.(1) in
  let r7 = Dphls_util.Score.mul r1 r6 in
  let r8 = (-2) in
  let r9 = Dphls_util.Score.mul r7 r8 in
  let r10 = Datapath.sat_add r5 r9 in
  let r11 = b.Pe.b_rf.(2) in
  let r12 = Dphls_util.Score.mul r1 r11 in
  let r13 = Dphls_util.Score.mul r12 r8 in
  let r14 = Datapath.sat_add r10 r13 in
  let r15 = b.Pe.b_rf.(3) in
  let r16 = Dphls_util.Score.mul r1 r15 in
  let r17 = Dphls_util.Score.mul r16 r8 in
  let r18 = Datapath.sat_add r14 r17 in
  let r19 = b.Pe.b_rf.(4) in
  let r20 = Dphls_util.Score.mul r1 r19 in
  let r21 = Dphls_util.Score.mul r20 r8 in
  let r22 = Datapath.sat_add r18 r21 in
  let r23 = b.Pe.b_qry.(1) in
  let r24 = Dphls_util.Score.mul r23 r2 in
  let r25 = Dphls_util.Score.mul r24 r8 in
  let r26 = Dphls_util.Score.mul r23 r6 in
  let r27 = Dphls_util.Score.mul r26 r4 in
  let r28 = Datapath.sat_add r25 r27 in
  let r29 = Dphls_util.Score.mul r23 r11 in
  let r30 = Dphls_util.Score.mul r29 r8 in
  let r31 = Datapath.sat_add r28 r30 in
  let r32 = Dphls_util.Score.mul r23 r15 in
  let r33 = Dphls_util.Score.mul r32 r8 in
  let r34 = Datapath.sat_add r31 r33 in
  let r35 = Dphls_util.Score.mul r23 r19 in
  let r36 = Dphls_util.Score.mul r35 r8 in
  let r37 = Datapath.sat_add r34 r36 in
  let r38 = Datapath.sat_add r22 r37 in
  let r39 = b.Pe.b_qry.(2) in
  let r40 = Dphls_util.Score.mul r39 r2 in
  let r41 = Dphls_util.Score.mul r40 r8 in
  let r42 = Dphls_util.Score.mul r39 r6 in
  let r43 = Dphls_util.Score.mul r42 r8 in
  let r44 = Datapath.sat_add r41 r43 in
  let r45 = Dphls_util.Score.mul r39 r11 in
  let r46 = Dphls_util.Score.mul r45 r4 in
  let r47 = Datapath.sat_add r44 r46 in
  let r48 = Dphls_util.Score.mul r39 r15 in
  let r49 = Dphls_util.Score.mul r48 r8 in
  let r50 = Datapath.sat_add r47 r49 in
  let r51 = Dphls_util.Score.mul r39 r19 in
  let r52 = Dphls_util.Score.mul r51 r8 in
  let r53 = Datapath.sat_add r50 r52 in
  let r54 = Datapath.sat_add r38 r53 in
  let r55 = b.Pe.b_qry.(3) in
  let r56 = Dphls_util.Score.mul r55 r2 in
  let r57 = Dphls_util.Score.mul r56 r8 in
  let r58 = Dphls_util.Score.mul r55 r6 in
  let r59 = Dphls_util.Score.mul r58 r8 in
  let r60 = Datapath.sat_add r57 r59 in
  let r61 = Dphls_util.Score.mul r55 r11 in
  let r62 = Dphls_util.Score.mul r61 r8 in
  let r63 = Datapath.sat_add r60 r62 in
  let r64 = Dphls_util.Score.mul r55 r15 in
  let r65 = Dphls_util.Score.mul r64 r4 in
  let r66 = Datapath.sat_add r63 r65 in
  let r67 = Dphls_util.Score.mul r55 r19 in
  let r68 = Dphls_util.Score.mul r67 r8 in
  let r69 = Datapath.sat_add r66 r68 in
  let r70 = Datapath.sat_add r54 r69 in
  let r71 = b.Pe.b_qry.(4) in
  let r72 = Dphls_util.Score.mul r71 r2 in
  let r73 = Dphls_util.Score.mul r72 r8 in
  let r74 = Dphls_util.Score.mul r71 r6 in
  let r75 = Dphls_util.Score.mul r74 r8 in
  let r76 = Datapath.sat_add r73 r75 in
  let r77 = Dphls_util.Score.mul r71 r11 in
  let r78 = Dphls_util.Score.mul r77 r8 in
  let r79 = Datapath.sat_add r76 r78 in
  let r80 = Dphls_util.Score.mul r71 r15 in
  let r81 = Dphls_util.Score.mul r80 r8 in
  let r82 = Datapath.sat_add r79 r81 in
  let r83 = Dphls_util.Score.mul r71 r19 in
  let r84 = 0 in
  let r85 = Dphls_util.Score.mul r83 r84 in
  let r86 = Datapath.sat_add r82 r85 in
  let r87 = Datapath.sat_add r70 r86 in
  let r88 = Datapath.sat_add r0 r87 in
  let r89 = Array.unsafe_get up 0 in
  let r90 = Datapath.sat_add r1 r23 in
  let r91 = Datapath.sat_add r90 r39 in
  let r92 = Datapath.sat_add r91 r55 in
  let r93 = Datapath.sat_add r2 r6 in
  let r94 = Datapath.sat_add r93 r11 in
  let r95 = Datapath.sat_add r94 r15 in
  let r96 = Datapath.sat_add r95 r19 in
  let r97 = Dphls_util.Score.mul r92 r96 in
  let r98 = Dphls_util.Score.mul r8 r97 in
  let r99 = Datapath.sat_add r89 r98 in
  let r100 = Array.unsafe_get left 0 in
  let r101 = Datapath.sat_add r92 r71 in
  let r102 = Dphls_util.Score.mul r95 r101 in
  let r103 = Dphls_util.Score.mul r8 r102 in
  let r104 = Datapath.sat_add r100 r103 in
  let r105 = let m = if r88 >= r99 then r88 else r99 in if m >= r104 then m else r104 in
  let r106 = if r99 >= r104 then r99 else r104 in
  let r107 = 1 in
  let r108 = if r99 < r104 then r4 else r107 in
  let r109 = if r88 < r106 then r108 else r84 in
  Array.unsafe_set b.Pe.b_scores 0 r105;
  b.Pe.b_tb <- r109

let row_k08 ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi =
  if lo <= hi then begin
    Pe.check_row ~n_layers:1 ~ring ~above ~base ~reference ~lo ~hi;
    let q0 = qry.(0) in
    let q1 = qry.(1) in
    let q2 = qry.(2) in
    let q3 = qry.(3) in
    let q4 = qry.(4) in
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row ~col:hi;
    let at = row * ref_len in
    let left0 = ref (Array.unsafe_get ring (base + (lo * 1))) in
    let diag0 = ref (Array.unsafe_get ring (above + (lo * 1))) in
    for c = lo to hi do
      let u = above + ((c + 1) * 1) in
      let a = base + ((c + 1) * 1) in
      let rf = Array.unsafe_get reference c in
      let r0 = !diag0 in
      let r1 = q0 in
      let r2 = rf.(0) in
      let r3 = Dphls_util.Score.mul r1 r2 in
      let r4 = 2 in
      let r5 = Dphls_util.Score.mul r3 r4 in
      let r6 = rf.(1) in
      let r7 = Dphls_util.Score.mul r1 r6 in
      let r8 = (-2) in
      let r9 = Dphls_util.Score.mul r7 r8 in
      let r10 = Datapath.sat_add r5 r9 in
      let r11 = rf.(2) in
      let r12 = Dphls_util.Score.mul r1 r11 in
      let r13 = Dphls_util.Score.mul r12 r8 in
      let r14 = Datapath.sat_add r10 r13 in
      let r15 = rf.(3) in
      let r16 = Dphls_util.Score.mul r1 r15 in
      let r17 = Dphls_util.Score.mul r16 r8 in
      let r18 = Datapath.sat_add r14 r17 in
      let r19 = rf.(4) in
      let r20 = Dphls_util.Score.mul r1 r19 in
      let r21 = Dphls_util.Score.mul r20 r8 in
      let r22 = Datapath.sat_add r18 r21 in
      let r23 = q1 in
      let r24 = Dphls_util.Score.mul r23 r2 in
      let r25 = Dphls_util.Score.mul r24 r8 in
      let r26 = Dphls_util.Score.mul r23 r6 in
      let r27 = Dphls_util.Score.mul r26 r4 in
      let r28 = Datapath.sat_add r25 r27 in
      let r29 = Dphls_util.Score.mul r23 r11 in
      let r30 = Dphls_util.Score.mul r29 r8 in
      let r31 = Datapath.sat_add r28 r30 in
      let r32 = Dphls_util.Score.mul r23 r15 in
      let r33 = Dphls_util.Score.mul r32 r8 in
      let r34 = Datapath.sat_add r31 r33 in
      let r35 = Dphls_util.Score.mul r23 r19 in
      let r36 = Dphls_util.Score.mul r35 r8 in
      let r37 = Datapath.sat_add r34 r36 in
      let r38 = Datapath.sat_add r22 r37 in
      let r39 = q2 in
      let r40 = Dphls_util.Score.mul r39 r2 in
      let r41 = Dphls_util.Score.mul r40 r8 in
      let r42 = Dphls_util.Score.mul r39 r6 in
      let r43 = Dphls_util.Score.mul r42 r8 in
      let r44 = Datapath.sat_add r41 r43 in
      let r45 = Dphls_util.Score.mul r39 r11 in
      let r46 = Dphls_util.Score.mul r45 r4 in
      let r47 = Datapath.sat_add r44 r46 in
      let r48 = Dphls_util.Score.mul r39 r15 in
      let r49 = Dphls_util.Score.mul r48 r8 in
      let r50 = Datapath.sat_add r47 r49 in
      let r51 = Dphls_util.Score.mul r39 r19 in
      let r52 = Dphls_util.Score.mul r51 r8 in
      let r53 = Datapath.sat_add r50 r52 in
      let r54 = Datapath.sat_add r38 r53 in
      let r55 = q3 in
      let r56 = Dphls_util.Score.mul r55 r2 in
      let r57 = Dphls_util.Score.mul r56 r8 in
      let r58 = Dphls_util.Score.mul r55 r6 in
      let r59 = Dphls_util.Score.mul r58 r8 in
      let r60 = Datapath.sat_add r57 r59 in
      let r61 = Dphls_util.Score.mul r55 r11 in
      let r62 = Dphls_util.Score.mul r61 r8 in
      let r63 = Datapath.sat_add r60 r62 in
      let r64 = Dphls_util.Score.mul r55 r15 in
      let r65 = Dphls_util.Score.mul r64 r4 in
      let r66 = Datapath.sat_add r63 r65 in
      let r67 = Dphls_util.Score.mul r55 r19 in
      let r68 = Dphls_util.Score.mul r67 r8 in
      let r69 = Datapath.sat_add r66 r68 in
      let r70 = Datapath.sat_add r54 r69 in
      let r71 = q4 in
      let r72 = Dphls_util.Score.mul r71 r2 in
      let r73 = Dphls_util.Score.mul r72 r8 in
      let r74 = Dphls_util.Score.mul r71 r6 in
      let r75 = Dphls_util.Score.mul r74 r8 in
      let r76 = Datapath.sat_add r73 r75 in
      let r77 = Dphls_util.Score.mul r71 r11 in
      let r78 = Dphls_util.Score.mul r77 r8 in
      let r79 = Datapath.sat_add r76 r78 in
      let r80 = Dphls_util.Score.mul r71 r15 in
      let r81 = Dphls_util.Score.mul r80 r8 in
      let r82 = Datapath.sat_add r79 r81 in
      let r83 = Dphls_util.Score.mul r71 r19 in
      let r84 = 0 in
      let r85 = Dphls_util.Score.mul r83 r84 in
      let r86 = Datapath.sat_add r82 r85 in
      let r87 = Datapath.sat_add r70 r86 in
      let r88 = Datapath.sat_add r0 r87 in
      let r89 = Array.unsafe_get ring u in
      let r90 = Datapath.sat_add r1 r23 in
      let r91 = Datapath.sat_add r90 r39 in
      let r92 = Datapath.sat_add r91 r55 in
      let r93 = Datapath.sat_add r2 r6 in
      let r94 = Datapath.sat_add r93 r11 in
      let r95 = Datapath.sat_add r94 r15 in
      let r96 = Datapath.sat_add r95 r19 in
      let r97 = Dphls_util.Score.mul r92 r96 in
      let r98 = Dphls_util.Score.mul r8 r97 in
      let r99 = Datapath.sat_add r89 r98 in
      let r100 = !left0 in
      let r101 = Datapath.sat_add r92 r71 in
      let r102 = Dphls_util.Score.mul r95 r101 in
      let r103 = Dphls_util.Score.mul r8 r102 in
      let r104 = Datapath.sat_add r100 r103 in
      let r105 = let m = if r88 >= r99 then r88 else r99 in if m >= r104 then m else r104 in
      let r106 = if r99 >= r104 then r99 else r104 in
      let r107 = 1 in
      let r108 = if r99 < r104 then r4 else r107 in
      let r109 = if r88 < r106 then r108 else r84 in
      Array.unsafe_set ring a r105;
      left0 := r105;
      diag0 := r89;
      if has_tb then Pe.set_pointer tb (at + c) (r109)
    done
  end

(* #9 dtw: 18 instructions *)
let key_k09 =
  Datapath.{
    v_insts =
      [|
        V_diag 0;
        V_up 0;
        V_left 0;
        V_min3 (0, 1, 2);
        V_qry 0;
        V_ref 0;
        V_absdiff (4, 5);
        V_qry 1;
        V_ref 1;
        V_absdiff (7, 8);
        V_add (6, 9);
        V_add (3, 10);
        V_min (1, 2);
        V_const 2;
        V_const 1;
        V_sel_lt (2, 1, 13, 14);
        V_const 0;
        V_sel_lt (12, 0, 15, 16);
      |];
    v_layer_regs = [| 11 |];
    v_tb_regs = [| 17 |];
    v_tb_shifts = [| 0 |];
    v_n_layers = 1;
  }

let pe_k09 (b : Pe.buffers) =
  Datapath.check_buffers 1 b;
  let up = b.Pe.b_up in
  let diag = b.Pe.b_diag in
  let left = b.Pe.b_left in
  let r0 = Array.unsafe_get diag 0 in
  let r1 = Array.unsafe_get up 0 in
  let r2 = Array.unsafe_get left 0 in
  let r3 = let m = if r0 <= r1 then r0 else r1 in if m <= r2 then m else r2 in
  let r4 = b.Pe.b_qry.(0) in
  let r5 = b.Pe.b_rf.(0) in
  let r6 = Dphls_util.Score.abs (Datapath.sat_add r4 (-r5)) in
  let r7 = b.Pe.b_qry.(1) in
  let r8 = b.Pe.b_rf.(1) in
  let r9 = Dphls_util.Score.abs (Datapath.sat_add r7 (-r8)) in
  let r10 = Datapath.sat_add r6 r9 in
  let r11 = Datapath.sat_add r3 r10 in
  let r12 = if r1 <= r2 then r1 else r2 in
  let r13 = 2 in
  let r14 = 1 in
  let r15 = if r2 < r1 then r13 else r14 in
  let r16 = 0 in
  let r17 = if r12 < r0 then r15 else r16 in
  Array.unsafe_set b.Pe.b_scores 0 r11;
  b.Pe.b_tb <- r17

let row_k09 ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi =
  if lo <= hi then begin
    Pe.check_row ~n_layers:1 ~ring ~above ~base ~reference ~lo ~hi;
    let q0 = qry.(0) in
    let q1 = qry.(1) in
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row ~col:hi;
    let at = row * ref_len in
    let left0 = ref (Array.unsafe_get ring (base + (lo * 1))) in
    let diag0 = ref (Array.unsafe_get ring (above + (lo * 1))) in
    for c = lo to hi do
      let u = above + ((c + 1) * 1) in
      let a = base + ((c + 1) * 1) in
      let rf = Array.unsafe_get reference c in
      let r0 = !diag0 in
      let r1 = Array.unsafe_get ring u in
      let r2 = !left0 in
      let r3 = let m = if r0 <= r1 then r0 else r1 in if m <= r2 then m else r2 in
      let r4 = q0 in
      let r5 = rf.(0) in
      let r6 = Dphls_util.Score.abs (Datapath.sat_add r4 (-r5)) in
      let r7 = q1 in
      let r8 = rf.(1) in
      let r9 = Dphls_util.Score.abs (Datapath.sat_add r7 (-r8)) in
      let r10 = Datapath.sat_add r6 r9 in
      let r11 = Datapath.sat_add r3 r10 in
      let r12 = if r1 <= r2 then r1 else r2 in
      let r13 = 2 in
      let r14 = 1 in
      let r15 = if r2 < r1 then r13 else r14 in
      let r16 = 0 in
      let r17 = if r12 < r0 then r15 else r16 in
      Array.unsafe_set ring a r11;
      left0 := r11;
      diag0 := r1;
      if has_tb then Pe.set_pointer tb (at + c) (r17)
    done
  end

(* #10 viterbi: 23 instructions *)
let key_k10 =
  Datapath.{
    v_insts =
      [|
        V_up 0;
        V_addi (0, -12271);
        V_up 1;
        V_addi (2, -3753);
        V_max (1, 3);
        V_addi (4, -5678);
        V_left 0;
        V_addi (6, -12271);
        V_left 2;
        V_addi (8, -3753);
        V_max (7, 9);
        V_addi (10, -5678);
        V_diag 0;
        V_addi (12, -432);
        V_diag 1;
        V_addi (14, -2092);
        V_diag 2;
        V_addi (16, -2092);
        V_max3 (13, 15, 17);
        V_qry 0;
        V_ref 0;
        V_lookup (0, 19, 20);
        V_add (18, 21);
      |];
    v_layer_regs = [| 22; 5; 11 |];
    v_tb_regs = [||];
    v_tb_shifts = [||];
    v_n_layers = 3;
  }

let pe_k10 (luts : int array array array) =
  let t0 = luts.(0) in
  fun (b : Pe.buffers) ->
    Datapath.check_buffers 3 b;
    let up = b.Pe.b_up in
    let diag = b.Pe.b_diag in
    let left = b.Pe.b_left in
    let r0 = Array.unsafe_get up 0 in
    let r1 = Datapath.sat_add_finite r0 (-12271) in
    let r2 = Array.unsafe_get up 1 in
    let r3 = Datapath.sat_add_finite r2 (-3753) in
    let r4 = if r1 >= r3 then r1 else r3 in
    let r5 = Datapath.sat_add_finite r4 (-5678) in
    let r6 = Array.unsafe_get left 0 in
    let r7 = Datapath.sat_add_finite r6 (-12271) in
    let r8 = Array.unsafe_get left 2 in
    let r9 = Datapath.sat_add_finite r8 (-3753) in
    let r10 = if r7 >= r9 then r7 else r9 in
    let r11 = Datapath.sat_add_finite r10 (-5678) in
    let r12 = Array.unsafe_get diag 0 in
    let r13 = Datapath.sat_add_finite r12 (-432) in
    let r14 = Array.unsafe_get diag 1 in
    let r15 = Datapath.sat_add_finite r14 (-2092) in
    let r16 = Array.unsafe_get diag 2 in
    let r17 = Datapath.sat_add_finite r16 (-2092) in
    let r18 = let m = if r13 >= r15 then r13 else r15 in if m >= r17 then m else r17 in
    let r19 = b.Pe.b_qry.(0) in
    let r20 = b.Pe.b_rf.(0) in
    let r21 = t0.(r19).(r20) in
    let r22 = Datapath.sat_add r18 r21 in
    Array.unsafe_set b.Pe.b_scores 0 r22;
    Array.unsafe_set b.Pe.b_scores 1 r5;
    Array.unsafe_set b.Pe.b_scores 2 r11;
    b.Pe.b_tb <- 0

let row_k10 (luts : int array array array) =
  let t0 = luts.(0) in
  fun ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi ->
    if lo <= hi then begin
      Pe.check_row ~n_layers:3 ~ring ~above ~base ~reference ~lo ~hi;
      let q0 = qry.(0) in
      let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
      if has_tb then Pe.check_plane tb ~ref_len ~row ~col:hi;
      let at = row * ref_len in
      let left0 = ref (Array.unsafe_get ring (base + (lo * 3))) in
      let left2 = ref (Array.unsafe_get ring (base + (lo * 3) + 2)) in
      let diag0 = ref (Array.unsafe_get ring (above + (lo * 3))) in
      let diag1 = ref (Array.unsafe_get ring (above + (lo * 3) + 1)) in
      let diag2 = ref (Array.unsafe_get ring (above + (lo * 3) + 2)) in
      for c = lo to hi do
        let u = above + ((c + 1) * 3) in
        let a = base + ((c + 1) * 3) in
        let rf = Array.unsafe_get reference c in
        let r0 = Array.unsafe_get ring u in
        let r1 = Datapath.sat_add_finite r0 (-12271) in
        let r2 = Array.unsafe_get ring (u + 1) in
        let r3 = Datapath.sat_add_finite r2 (-3753) in
        let r4 = if r1 >= r3 then r1 else r3 in
        let r5 = Datapath.sat_add_finite r4 (-5678) in
        let r6 = !left0 in
        let r7 = Datapath.sat_add_finite r6 (-12271) in
        let r8 = !left2 in
        let r9 = Datapath.sat_add_finite r8 (-3753) in
        let r10 = if r7 >= r9 then r7 else r9 in
        let r11 = Datapath.sat_add_finite r10 (-5678) in
        let r12 = !diag0 in
        let r13 = Datapath.sat_add_finite r12 (-432) in
        let r14 = !diag1 in
        let r15 = Datapath.sat_add_finite r14 (-2092) in
        let r16 = !diag2 in
        let r17 = Datapath.sat_add_finite r16 (-2092) in
        let r18 = let m = if r13 >= r15 then r13 else r15 in if m >= r17 then m else r17 in
        let r19 = q0 in
        let r20 = rf.(0) in
        let r21 = t0.(r19).(r20) in
        let r22 = Datapath.sat_add r18 r21 in
        Array.unsafe_set ring a r22;
        Array.unsafe_set ring (a + 1) r5;
        Array.unsafe_set ring (a + 2) r11;
        left0 := r22;
        left2 := r11;
        diag0 := r0;
        diag1 := r2;
        diag2 := Array.unsafe_get ring (u + 2);
        if has_tb then Pe.set_pointer tb (at + c) (0)
      done
    end

(* #12 banded-local-affine, #17 adaptive-local-affine: 20 instructions *)
let key_k12 =
  Datapath.{
    v_insts =
      [|
        V_up 0;
        V_addi (0, -4);
        V_up 1;
        V_addi (2, -1);
        V_max (1, 3);
        V_left 0;
        V_addi (5, -4);
        V_left 2;
        V_addi (7, -1);
        V_max (6, 8);
        V_diag 0;
        V_qry 0;
        V_ref 0;
        V_const 2;
        V_const (-2);
        V_sel_eq (11, 12, 13, 14);
        V_add (10, 15);
        V_max3 (16, 4, 9);
        V_const 0;
        V_sel_le (17, 18, 18, 17);
      |];
    v_layer_regs = [| 19; 4; 9 |];
    v_tb_regs = [||];
    v_tb_shifts = [||];
    v_n_layers = 3;
  }

let pe_k12 (b : Pe.buffers) =
  Datapath.check_buffers 3 b;
  let up = b.Pe.b_up in
  let diag = b.Pe.b_diag in
  let left = b.Pe.b_left in
  let r0 = Array.unsafe_get up 0 in
  let r1 = Datapath.sat_add_finite r0 (-4) in
  let r2 = Array.unsafe_get up 1 in
  let r3 = Datapath.sat_add_finite r2 (-1) in
  let r4 = if r1 >= r3 then r1 else r3 in
  let r5 = Array.unsafe_get left 0 in
  let r6 = Datapath.sat_add_finite r5 (-4) in
  let r7 = Array.unsafe_get left 2 in
  let r8 = Datapath.sat_add_finite r7 (-1) in
  let r9 = if r6 >= r8 then r6 else r8 in
  let r10 = Array.unsafe_get diag 0 in
  let r11 = b.Pe.b_qry.(0) in
  let r12 = b.Pe.b_rf.(0) in
  let r13 = 2 in
  let r14 = (-2) in
  let r15 = if r11 = r12 then r13 else r14 in
  let r16 = Datapath.sat_add_finite r10 r15 in
  let r17 = let m = if r16 >= r4 then r16 else r4 in if m >= r9 then m else r9 in
  let r18 = 0 in
  let r19 = if r17 <= r18 then r18 else r17 in
  Array.unsafe_set b.Pe.b_scores 0 r19;
  Array.unsafe_set b.Pe.b_scores 1 r4;
  Array.unsafe_set b.Pe.b_scores 2 r9;
  b.Pe.b_tb <- 0

let row_k12 ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi =
  if lo <= hi then begin
    Pe.check_row ~n_layers:3 ~ring ~above ~base ~reference ~lo ~hi;
    let q0 = qry.(0) in
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row ~col:hi;
    let at = row * ref_len in
    let left0 = ref (Array.unsafe_get ring (base + (lo * 3))) in
    let left2 = ref (Array.unsafe_get ring (base + (lo * 3) + 2)) in
    let diag0 = ref (Array.unsafe_get ring (above + (lo * 3))) in
    for c = lo to hi do
      let u = above + ((c + 1) * 3) in
      let a = base + ((c + 1) * 3) in
      let rf = Array.unsafe_get reference c in
      let r0 = Array.unsafe_get ring u in
      let r1 = Datapath.sat_add_finite r0 (-4) in
      let r2 = Array.unsafe_get ring (u + 1) in
      let r3 = Datapath.sat_add_finite r2 (-1) in
      let r4 = if r1 >= r3 then r1 else r3 in
      let r5 = !left0 in
      let r6 = Datapath.sat_add_finite r5 (-4) in
      let r7 = !left2 in
      let r8 = Datapath.sat_add_finite r7 (-1) in
      let r9 = if r6 >= r8 then r6 else r8 in
      let r10 = !diag0 in
      let r11 = q0 in
      let r12 = rf.(0) in
      let r13 = 2 in
      let r14 = (-2) in
      let r15 = if r11 = r12 then r13 else r14 in
      let r16 = Datapath.sat_add_finite r10 r15 in
      let r17 = let m = if r16 >= r4 then r16 else r4 in if m >= r9 then m else r9 in
      let r18 = 0 in
      let r19 = if r17 <= r18 then r18 else r17 in
      Array.unsafe_set ring a r19;
      Array.unsafe_set ring (a + 1) r4;
      Array.unsafe_set ring (a + 2) r9;
      left0 := r19;
      left2 := r9;
      diag0 := r0;
      if has_tb then Pe.set_pointer tb (at + c) (0)
    done
  end

(* #14 sdtw: 8 instructions *)
let key_k14 =
  Datapath.{
    v_insts =
      [|
        V_diag 0;
        V_up 0;
        V_left 0;
        V_min3 (0, 1, 2);
        V_qry 0;
        V_ref 0;
        V_absdiff (4, 5);
        V_add (3, 6);
      |];
    v_layer_regs = [| 7 |];
    v_tb_regs = [||];
    v_tb_shifts = [||];
    v_n_layers = 1;
  }

let pe_k14 (b : Pe.buffers) =
  Datapath.check_buffers 1 b;
  let up = b.Pe.b_up in
  let diag = b.Pe.b_diag in
  let left = b.Pe.b_left in
  let r0 = Array.unsafe_get diag 0 in
  let r1 = Array.unsafe_get up 0 in
  let r2 = Array.unsafe_get left 0 in
  let r3 = let m = if r0 <= r1 then r0 else r1 in if m <= r2 then m else r2 in
  let r4 = b.Pe.b_qry.(0) in
  let r5 = b.Pe.b_rf.(0) in
  let r6 = Dphls_util.Score.abs (Datapath.sat_add r4 (-r5)) in
  let r7 = Datapath.sat_add r3 r6 in
  Array.unsafe_set b.Pe.b_scores 0 r7;
  b.Pe.b_tb <- 0

let row_k14 ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi =
  if lo <= hi then begin
    Pe.check_row ~n_layers:1 ~ring ~above ~base ~reference ~lo ~hi;
    let q0 = qry.(0) in
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row ~col:hi;
    let at = row * ref_len in
    let left0 = ref (Array.unsafe_get ring (base + (lo * 1))) in
    let diag0 = ref (Array.unsafe_get ring (above + (lo * 1))) in
    for c = lo to hi do
      let u = above + ((c + 1) * 1) in
      let a = base + ((c + 1) * 1) in
      let rf = Array.unsafe_get reference c in
      let r0 = !diag0 in
      let r1 = Array.unsafe_get ring u in
      let r2 = !left0 in
      let r3 = let m = if r0 <= r1 then r0 else r1 in if m <= r2 then m else r2 in
      let r4 = q0 in
      let r5 = rf.(0) in
      let r6 = Dphls_util.Score.abs (Datapath.sat_add r4 (-r5)) in
      let r7 = Datapath.sat_add r3 r6 in
      Array.unsafe_set ring a r7;
      left0 := r7;
      diag0 := r1;
      if has_tb then Pe.set_pointer tb (at + c) (0)
    done
  end

(* #15 protein-local: 19 instructions *)
let key_k15 =
  Datapath.{
    v_insts =
      [|
        V_diag 0;
        V_qry 0;
        V_ref 0;
        V_lookup (0, 1, 2);
        V_add (0, 3);
        V_up 0;
        V_addi (5, -4);
        V_left 0;
        V_addi (7, -4);
        V_max3 (4, 6, 8);
        V_const 0;
        V_sel_le (9, 10, 10, 9);
        V_const 3;
        V_max (6, 8);
        V_const 2;
        V_const 1;
        V_sel_lt (6, 8, 14, 15);
        V_sel_lt (4, 13, 16, 10);
        V_sel_le (9, 10, 12, 17);
      |];
    v_layer_regs = [| 11 |];
    v_tb_regs = [| 18 |];
    v_tb_shifts = [| 0 |];
    v_n_layers = 1;
  }

let pe_k15 (luts : int array array array) =
  let t0 = luts.(0) in
  fun (b : Pe.buffers) ->
    Datapath.check_buffers 1 b;
    let up = b.Pe.b_up in
    let diag = b.Pe.b_diag in
    let left = b.Pe.b_left in
    let r0 = Array.unsafe_get diag 0 in
    let r1 = b.Pe.b_qry.(0) in
    let r2 = b.Pe.b_rf.(0) in
    let r3 = t0.(r1).(r2) in
    let r4 = Datapath.sat_add r0 r3 in
    let r5 = Array.unsafe_get up 0 in
    let r6 = Datapath.sat_add_finite r5 (-4) in
    let r7 = Array.unsafe_get left 0 in
    let r8 = Datapath.sat_add_finite r7 (-4) in
    let r9 = let m = if r4 >= r6 then r4 else r6 in if m >= r8 then m else r8 in
    let r10 = 0 in
    let r11 = if r9 <= r10 then r10 else r9 in
    let r12 = 3 in
    let r13 = if r6 >= r8 then r6 else r8 in
    let r14 = 2 in
    let r15 = 1 in
    let r16 = if r6 < r8 then r14 else r15 in
    let r17 = if r4 < r13 then r16 else r10 in
    let r18 = if r9 <= r10 then r12 else r17 in
    Array.unsafe_set b.Pe.b_scores 0 r11;
    b.Pe.b_tb <- r18

let row_k15 (luts : int array array array) =
  let t0 = luts.(0) in
  fun ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi ->
    if lo <= hi then begin
      Pe.check_row ~n_layers:1 ~ring ~above ~base ~reference ~lo ~hi;
      let q0 = qry.(0) in
      let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
      if has_tb then Pe.check_plane tb ~ref_len ~row ~col:hi;
      let at = row * ref_len in
      let left0 = ref (Array.unsafe_get ring (base + (lo * 1))) in
      let diag0 = ref (Array.unsafe_get ring (above + (lo * 1))) in
      for c = lo to hi do
        let u = above + ((c + 1) * 1) in
        let a = base + ((c + 1) * 1) in
        let rf = Array.unsafe_get reference c in
        let r0 = !diag0 in
        let r1 = q0 in
        let r2 = rf.(0) in
        let r3 = t0.(r1).(r2) in
        let r4 = Datapath.sat_add r0 r3 in
        let r5 = Array.unsafe_get ring u in
        let r6 = Datapath.sat_add_finite r5 (-4) in
        let r7 = !left0 in
        let r8 = Datapath.sat_add_finite r7 (-4) in
        let r9 = let m = if r4 >= r6 then r4 else r6 in if m >= r8 then m else r8 in
        let r10 = 0 in
        let r11 = if r9 <= r10 then r10 else r9 in
        let r12 = 3 in
        let r13 = if r6 >= r8 then r6 else r8 in
        let r14 = 2 in
        let r15 = 1 in
        let r16 = if r6 < r8 then r14 else r15 in
        let r17 = if r4 < r13 then r16 else r10 in
        let r18 = if r9 <= r10 then r12 else r17 in
        Array.unsafe_set ring a r11;
        left0 := r11;
        diag0 := r5;
        if has_tb then Pe.set_pointer tb (at + c) (r18)
      done
    end

(* #19 global-edit: 12 instructions *)
let key_k19 =
  Datapath.{
    v_insts =
      [|
        V_diag 0;
        V_qry 0;
        V_ref 0;
        V_const 0;
        V_const 1;
        V_sel_eq (1, 2, 3, 4);
        V_add (0, 5);
        V_up 0;
        V_addi (7, 1);
        V_left 0;
        V_addi (9, 1);
        V_min3 (6, 8, 10);
      |];
    v_layer_regs = [| 11 |];
    v_tb_regs = [||];
    v_tb_shifts = [||];
    v_n_layers = 1;
  }

let pe_k19 (b : Pe.buffers) =
  Datapath.check_buffers 1 b;
  let up = b.Pe.b_up in
  let diag = b.Pe.b_diag in
  let left = b.Pe.b_left in
  let r0 = Array.unsafe_get diag 0 in
  let r1 = b.Pe.b_qry.(0) in
  let r2 = b.Pe.b_rf.(0) in
  let r3 = 0 in
  let r4 = 1 in
  let r5 = if r1 = r2 then r3 else r4 in
  let r6 = Datapath.sat_add_finite r0 r5 in
  let r7 = Array.unsafe_get up 0 in
  let r8 = Datapath.sat_add_finite r7 1 in
  let r9 = Array.unsafe_get left 0 in
  let r10 = Datapath.sat_add_finite r9 1 in
  let r11 = let m = if r6 <= r8 then r6 else r8 in if m <= r10 then m else r10 in
  Array.unsafe_set b.Pe.b_scores 0 r11;
  b.Pe.b_tb <- 0

let row_k19 ~ring ~above ~base ~qry ~reference ~tb ~row ~lo ~hi =
  if lo <= hi then begin
    Pe.check_row ~n_layers:1 ~ring ~above ~base ~reference ~lo ~hi;
    let q0 = qry.(0) in
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row ~col:hi;
    let at = row * ref_len in
    let left0 = ref (Array.unsafe_get ring (base + (lo * 1))) in
    let diag0 = ref (Array.unsafe_get ring (above + (lo * 1))) in
    for c = lo to hi do
      let u = above + ((c + 1) * 1) in
      let a = base + ((c + 1) * 1) in
      let rf = Array.unsafe_get reference c in
      let r0 = !diag0 in
      let r1 = q0 in
      let r2 = rf.(0) in
      let r3 = 0 in
      let r4 = 1 in
      let r5 = if r1 = r2 then r3 else r4 in
      let r6 = Datapath.sat_add_finite r0 r5 in
      let r7 = Array.unsafe_get ring u in
      let r8 = Datapath.sat_add_finite r7 1 in
      let r9 = !left0 in
      let r10 = Datapath.sat_add_finite r9 1 in
      let r11 = let m = if r6 <= r8 then r6 else r8 in if m <= r10 then m else r10 in
      Array.unsafe_set ring a r11;
      left0 := r11;
      diag0 := r7;
      if has_tb then Pe.set_pointer tb (at + c) (0)
    done
  end

let wave_k01 ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi =
  if lo <= hi then begin
    Pe.check_wave ~n_layers:1 ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row:(row0 + hi) ~col:(wavefront - hi);
    let at = (row0 * ref_len) + wavefront and step = ref_len - 1 in
    for p = lo to hi do
      let s = p * 1 in
      let q = Array.unsafe_get query (row0 + p) in
      let rf = Array.unsafe_get reference (wavefront - p) in
      let r0 = Array.unsafe_get w2 s in
      let r1 = q.(0) in
      let r2 = rf.(0) in
      let r3 = 2 in
      let r4 = (-2) in
      let r5 = if r1 = r2 then r3 else r4 in
      let r6 = Datapath.sat_add_finite r0 r5 in
      let r7 = Array.unsafe_get w1 s in
      let r8 = Datapath.sat_add_finite r7 (-2) in
      let r9 = Array.unsafe_get w1 (s + 1) in
      let r10 = Datapath.sat_add_finite r9 (-2) in
      let r11 = let m = if r6 >= r8 then r6 else r8 in if m >= r10 then m else r10 in
      let r12 = if r8 >= r10 then r8 else r10 in
      let r13 = 1 in
      let r14 = if r8 < r10 then r3 else r13 in
      let r15 = 0 in
      let r16 = if r6 < r12 then r14 else r15 in
      Array.unsafe_set w_new (s + 1) r11;
      if has_tb then Pe.set_pointer tb (at + (p * step)) (r16)
    done
  end

let wave_k02 ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi =
  if lo <= hi then begin
    Pe.check_wave ~n_layers:3 ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row:(row0 + hi) ~col:(wavefront - hi);
    let at = (row0 * ref_len) + wavefront and step = ref_len - 1 in
    for p = lo to hi do
      let s = p * 3 in
      let q = Array.unsafe_get query (row0 + p) in
      let rf = Array.unsafe_get reference (wavefront - p) in
      let r0 = Array.unsafe_get w1 s in
      let r1 = Datapath.sat_add_finite r0 (-4) in
      let r2 = Array.unsafe_get w1 (s + 1) in
      let r3 = Datapath.sat_add_finite r2 (-1) in
      let r4 = if r1 >= r3 then r1 else r3 in
      let r5 = Array.unsafe_get w1 (s + 3) in
      let r6 = Datapath.sat_add_finite r5 (-4) in
      let r7 = Array.unsafe_get w1 (s + 5) in
      let r8 = Datapath.sat_add_finite r7 (-1) in
      let r9 = if r6 >= r8 then r6 else r8 in
      let r10 = Array.unsafe_get w2 s in
      let r11 = q.(0) in
      let r12 = rf.(0) in
      let r13 = 2 in
      let r14 = (-2) in
      let r15 = if r11 = r12 then r13 else r14 in
      let r16 = Datapath.sat_add_finite r10 r15 in
      let r17 = let m = if r16 >= r4 then r16 else r4 in if m >= r9 then m else r9 in
      let r18 = if r4 >= r9 then r4 else r9 in
      let r19 = 1 in
      let r20 = if r4 < r9 then r13 else r19 in
      let r21 = 0 in
      let r22 = if r16 < r18 then r20 else r21 in
      let r23 = if r1 < r3 then r19 else r21 in
      let r24 = if r6 < r8 then r19 else r21 in
      Array.unsafe_set w_new (s + 3) r17;
      Array.unsafe_set w_new (s + 4) r4;
      Array.unsafe_set w_new (s + 5) r9;
      if has_tb then Pe.set_pointer tb (at + (p * step)) (r22 lor (r23 lsl 2) lor (r24 lsl 3))
    done
  end

let wave_k03 ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi =
  if lo <= hi then begin
    Pe.check_wave ~n_layers:1 ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row:(row0 + hi) ~col:(wavefront - hi);
    let at = (row0 * ref_len) + wavefront and step = ref_len - 1 in
    for p = lo to hi do
      let s = p * 1 in
      let q = Array.unsafe_get query (row0 + p) in
      let rf = Array.unsafe_get reference (wavefront - p) in
      let r0 = Array.unsafe_get w2 s in
      let r1 = q.(0) in
      let r2 = rf.(0) in
      let r3 = 2 in
      let r4 = (-2) in
      let r5 = if r1 = r2 then r3 else r4 in
      let r6 = Datapath.sat_add_finite r0 r5 in
      let r7 = Array.unsafe_get w1 s in
      let r8 = Datapath.sat_add_finite r7 (-2) in
      let r9 = Array.unsafe_get w1 (s + 1) in
      let r10 = Datapath.sat_add_finite r9 (-2) in
      let r11 = let m = if r6 >= r8 then r6 else r8 in if m >= r10 then m else r10 in
      let r12 = 0 in
      let r13 = if r11 <= r12 then r12 else r11 in
      let r14 = 3 in
      let r15 = if r8 >= r10 then r8 else r10 in
      let r16 = 1 in
      let r17 = if r8 < r10 then r3 else r16 in
      let r18 = if r6 < r15 then r17 else r12 in
      let r19 = if r11 <= r12 then r14 else r18 in
      Array.unsafe_set w_new (s + 1) r13;
      if has_tb then Pe.set_pointer tb (at + (p * step)) (r19)
    done
  end

let wave_k04 ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi =
  if lo <= hi then begin
    Pe.check_wave ~n_layers:3 ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row:(row0 + hi) ~col:(wavefront - hi);
    let at = (row0 * ref_len) + wavefront and step = ref_len - 1 in
    for p = lo to hi do
      let s = p * 3 in
      let q = Array.unsafe_get query (row0 + p) in
      let rf = Array.unsafe_get reference (wavefront - p) in
      let r0 = Array.unsafe_get w1 s in
      let r1 = Datapath.sat_add_finite r0 (-4) in
      let r2 = Array.unsafe_get w1 (s + 1) in
      let r3 = Datapath.sat_add_finite r2 (-1) in
      let r4 = if r1 >= r3 then r1 else r3 in
      let r5 = Array.unsafe_get w1 (s + 3) in
      let r6 = Datapath.sat_add_finite r5 (-4) in
      let r7 = Array.unsafe_get w1 (s + 5) in
      let r8 = Datapath.sat_add_finite r7 (-1) in
      let r9 = if r6 >= r8 then r6 else r8 in
      let r10 = Array.unsafe_get w2 s in
      let r11 = q.(0) in
      let r12 = rf.(0) in
      let r13 = 2 in
      let r14 = (-2) in
      let r15 = if r11 = r12 then r13 else r14 in
      let r16 = Datapath.sat_add_finite r10 r15 in
      let r17 = let m = if r16 >= r4 then r16 else r4 in if m >= r9 then m else r9 in
      let r18 = 0 in
      let r19 = if r17 <= r18 then r18 else r17 in
      let r20 = 3 in
      let r21 = if r4 >= r9 then r4 else r9 in
      let r22 = 1 in
      let r23 = if r4 < r9 then r13 else r22 in
      let r24 = if r16 < r21 then r23 else r18 in
      let r25 = if r17 <= r18 then r20 else r24 in
      let r26 = if r1 < r3 then r22 else r18 in
      let r27 = if r6 < r8 then r22 else r18 in
      Array.unsafe_set w_new (s + 3) r19;
      Array.unsafe_set w_new (s + 4) r4;
      Array.unsafe_set w_new (s + 5) r9;
      if has_tb then Pe.set_pointer tb (at + (p * step)) (r25 lor (r26 lsl 2) lor (r27 lsl 3))
    done
  end

let wave_k05 ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi =
  if lo <= hi then begin
    Pe.check_wave ~n_layers:5 ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row:(row0 + hi) ~col:(wavefront - hi);
    let at = (row0 * ref_len) + wavefront and step = ref_len - 1 in
    for p = lo to hi do
      let s = p * 5 in
      let q = Array.unsafe_get query (row0 + p) in
      let rf = Array.unsafe_get reference (wavefront - p) in
      let r0 = Array.unsafe_get w1 s in
      let r1 = Datapath.sat_add_finite r0 (-6) in
      let r2 = Array.unsafe_get w1 (s + 1) in
      let r3 = Datapath.sat_add_finite r2 (-2) in
      let r4 = if r1 >= r3 then r1 else r3 in
      let r5 = Array.unsafe_get w1 (s + 5) in
      let r6 = Datapath.sat_add_finite r5 (-6) in
      let r7 = Array.unsafe_get w1 (s + 7) in
      let r8 = Datapath.sat_add_finite r7 (-2) in
      let r9 = if r6 >= r8 then r6 else r8 in
      let r10 = Datapath.sat_add_finite r0 (-25) in
      let r11 = Array.unsafe_get w1 (s + 3) in
      let r12 = Datapath.sat_add_finite r11 (-1) in
      let r13 = if r10 >= r12 then r10 else r12 in
      let r14 = Datapath.sat_add_finite r5 (-25) in
      let r15 = Array.unsafe_get w1 (s + 9) in
      let r16 = Datapath.sat_add_finite r15 (-1) in
      let r17 = if r14 >= r16 then r14 else r16 in
      let r18 = Array.unsafe_get w2 s in
      let r19 = q.(0) in
      let r20 = rf.(0) in
      let r21 = 2 in
      let r22 = (-4) in
      let r23 = if r19 = r20 then r21 else r22 in
      let r24 = Datapath.sat_add_finite r18 r23 in
      let r25 = if r24 >= r4 then r24 else r4 in
      let r26 = if r25 >= r9 then r25 else r9 in
      let r27 = if r26 >= r13 then r26 else r13 in
      let r28 = if r27 >= r17 then r27 else r17 in
      let r29 = if r4 >= r9 then r4 else r9 in
      let r30 = if r29 >= r13 then r29 else r13 in
      let r31 = if r30 >= r17 then r30 else r17 in
      let r32 = let m = if r9 >= r13 then r9 else r13 in if m >= r17 then m else r17 in
      let r33 = if r13 >= r17 then r13 else r17 in
      let r34 = 4 in
      let r35 = 3 in
      let r36 = if r13 < r17 then r34 else r35 in
      let r37 = if r9 < r33 then r36 else r21 in
      let r38 = 1 in
      let r39 = if r4 < r32 then r37 else r38 in
      let r40 = 0 in
      let r41 = if r24 < r31 then r39 else r40 in
      let r42 = if r1 < r3 then r38 else r40 in
      let r43 = if r6 < r8 then r38 else r40 in
      let r44 = if r10 < r12 then r38 else r40 in
      let r45 = if r14 < r16 then r38 else r40 in
      Array.unsafe_set w_new (s + 5) r28;
      Array.unsafe_set w_new (s + 6) r4;
      Array.unsafe_set w_new (s + 7) r9;
      Array.unsafe_set w_new (s + 8) r13;
      Array.unsafe_set w_new (s + 9) r17;
      if has_tb then Pe.set_pointer tb (at + (p * step)) (r41 lor (r42 lsl 3) lor (r43 lsl 4) lor (r44 lsl 5) lor (r45 lsl 6))
    done
  end

let wave_k08 ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi =
  if lo <= hi then begin
    Pe.check_wave ~n_layers:1 ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row:(row0 + hi) ~col:(wavefront - hi);
    let at = (row0 * ref_len) + wavefront and step = ref_len - 1 in
    for p = lo to hi do
      let s = p * 1 in
      let q = Array.unsafe_get query (row0 + p) in
      let rf = Array.unsafe_get reference (wavefront - p) in
      let r0 = Array.unsafe_get w2 s in
      let r1 = q.(0) in
      let r2 = rf.(0) in
      let r3 = Dphls_util.Score.mul r1 r2 in
      let r4 = 2 in
      let r5 = Dphls_util.Score.mul r3 r4 in
      let r6 = rf.(1) in
      let r7 = Dphls_util.Score.mul r1 r6 in
      let r8 = (-2) in
      let r9 = Dphls_util.Score.mul r7 r8 in
      let r10 = Datapath.sat_add r5 r9 in
      let r11 = rf.(2) in
      let r12 = Dphls_util.Score.mul r1 r11 in
      let r13 = Dphls_util.Score.mul r12 r8 in
      let r14 = Datapath.sat_add r10 r13 in
      let r15 = rf.(3) in
      let r16 = Dphls_util.Score.mul r1 r15 in
      let r17 = Dphls_util.Score.mul r16 r8 in
      let r18 = Datapath.sat_add r14 r17 in
      let r19 = rf.(4) in
      let r20 = Dphls_util.Score.mul r1 r19 in
      let r21 = Dphls_util.Score.mul r20 r8 in
      let r22 = Datapath.sat_add r18 r21 in
      let r23 = q.(1) in
      let r24 = Dphls_util.Score.mul r23 r2 in
      let r25 = Dphls_util.Score.mul r24 r8 in
      let r26 = Dphls_util.Score.mul r23 r6 in
      let r27 = Dphls_util.Score.mul r26 r4 in
      let r28 = Datapath.sat_add r25 r27 in
      let r29 = Dphls_util.Score.mul r23 r11 in
      let r30 = Dphls_util.Score.mul r29 r8 in
      let r31 = Datapath.sat_add r28 r30 in
      let r32 = Dphls_util.Score.mul r23 r15 in
      let r33 = Dphls_util.Score.mul r32 r8 in
      let r34 = Datapath.sat_add r31 r33 in
      let r35 = Dphls_util.Score.mul r23 r19 in
      let r36 = Dphls_util.Score.mul r35 r8 in
      let r37 = Datapath.sat_add r34 r36 in
      let r38 = Datapath.sat_add r22 r37 in
      let r39 = q.(2) in
      let r40 = Dphls_util.Score.mul r39 r2 in
      let r41 = Dphls_util.Score.mul r40 r8 in
      let r42 = Dphls_util.Score.mul r39 r6 in
      let r43 = Dphls_util.Score.mul r42 r8 in
      let r44 = Datapath.sat_add r41 r43 in
      let r45 = Dphls_util.Score.mul r39 r11 in
      let r46 = Dphls_util.Score.mul r45 r4 in
      let r47 = Datapath.sat_add r44 r46 in
      let r48 = Dphls_util.Score.mul r39 r15 in
      let r49 = Dphls_util.Score.mul r48 r8 in
      let r50 = Datapath.sat_add r47 r49 in
      let r51 = Dphls_util.Score.mul r39 r19 in
      let r52 = Dphls_util.Score.mul r51 r8 in
      let r53 = Datapath.sat_add r50 r52 in
      let r54 = Datapath.sat_add r38 r53 in
      let r55 = q.(3) in
      let r56 = Dphls_util.Score.mul r55 r2 in
      let r57 = Dphls_util.Score.mul r56 r8 in
      let r58 = Dphls_util.Score.mul r55 r6 in
      let r59 = Dphls_util.Score.mul r58 r8 in
      let r60 = Datapath.sat_add r57 r59 in
      let r61 = Dphls_util.Score.mul r55 r11 in
      let r62 = Dphls_util.Score.mul r61 r8 in
      let r63 = Datapath.sat_add r60 r62 in
      let r64 = Dphls_util.Score.mul r55 r15 in
      let r65 = Dphls_util.Score.mul r64 r4 in
      let r66 = Datapath.sat_add r63 r65 in
      let r67 = Dphls_util.Score.mul r55 r19 in
      let r68 = Dphls_util.Score.mul r67 r8 in
      let r69 = Datapath.sat_add r66 r68 in
      let r70 = Datapath.sat_add r54 r69 in
      let r71 = q.(4) in
      let r72 = Dphls_util.Score.mul r71 r2 in
      let r73 = Dphls_util.Score.mul r72 r8 in
      let r74 = Dphls_util.Score.mul r71 r6 in
      let r75 = Dphls_util.Score.mul r74 r8 in
      let r76 = Datapath.sat_add r73 r75 in
      let r77 = Dphls_util.Score.mul r71 r11 in
      let r78 = Dphls_util.Score.mul r77 r8 in
      let r79 = Datapath.sat_add r76 r78 in
      let r80 = Dphls_util.Score.mul r71 r15 in
      let r81 = Dphls_util.Score.mul r80 r8 in
      let r82 = Datapath.sat_add r79 r81 in
      let r83 = Dphls_util.Score.mul r71 r19 in
      let r84 = 0 in
      let r85 = Dphls_util.Score.mul r83 r84 in
      let r86 = Datapath.sat_add r82 r85 in
      let r87 = Datapath.sat_add r70 r86 in
      let r88 = Datapath.sat_add r0 r87 in
      let r89 = Array.unsafe_get w1 s in
      let r90 = Datapath.sat_add r1 r23 in
      let r91 = Datapath.sat_add r90 r39 in
      let r92 = Datapath.sat_add r91 r55 in
      let r93 = Datapath.sat_add r2 r6 in
      let r94 = Datapath.sat_add r93 r11 in
      let r95 = Datapath.sat_add r94 r15 in
      let r96 = Datapath.sat_add r95 r19 in
      let r97 = Dphls_util.Score.mul r92 r96 in
      let r98 = Dphls_util.Score.mul r8 r97 in
      let r99 = Datapath.sat_add r89 r98 in
      let r100 = Array.unsafe_get w1 (s + 1) in
      let r101 = Datapath.sat_add r92 r71 in
      let r102 = Dphls_util.Score.mul r95 r101 in
      let r103 = Dphls_util.Score.mul r8 r102 in
      let r104 = Datapath.sat_add r100 r103 in
      let r105 = let m = if r88 >= r99 then r88 else r99 in if m >= r104 then m else r104 in
      let r106 = if r99 >= r104 then r99 else r104 in
      let r107 = 1 in
      let r108 = if r99 < r104 then r4 else r107 in
      let r109 = if r88 < r106 then r108 else r84 in
      Array.unsafe_set w_new (s + 1) r105;
      if has_tb then Pe.set_pointer tb (at + (p * step)) (r109)
    done
  end

let wave_k09 ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi =
  if lo <= hi then begin
    Pe.check_wave ~n_layers:1 ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row:(row0 + hi) ~col:(wavefront - hi);
    let at = (row0 * ref_len) + wavefront and step = ref_len - 1 in
    for p = lo to hi do
      let s = p * 1 in
      let q = Array.unsafe_get query (row0 + p) in
      let rf = Array.unsafe_get reference (wavefront - p) in
      let r0 = Array.unsafe_get w2 s in
      let r1 = Array.unsafe_get w1 s in
      let r2 = Array.unsafe_get w1 (s + 1) in
      let r3 = let m = if r0 <= r1 then r0 else r1 in if m <= r2 then m else r2 in
      let r4 = q.(0) in
      let r5 = rf.(0) in
      let r6 = Dphls_util.Score.abs (Datapath.sat_add r4 (-r5)) in
      let r7 = q.(1) in
      let r8 = rf.(1) in
      let r9 = Dphls_util.Score.abs (Datapath.sat_add r7 (-r8)) in
      let r10 = Datapath.sat_add r6 r9 in
      let r11 = Datapath.sat_add r3 r10 in
      let r12 = if r1 <= r2 then r1 else r2 in
      let r13 = 2 in
      let r14 = 1 in
      let r15 = if r2 < r1 then r13 else r14 in
      let r16 = 0 in
      let r17 = if r12 < r0 then r15 else r16 in
      Array.unsafe_set w_new (s + 1) r11;
      if has_tb then Pe.set_pointer tb (at + (p * step)) (r17)
    done
  end

let wave_k10 (luts : int array array array) =
  let t0 = luts.(0) in
  fun ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi ->
    if lo <= hi then begin
      Pe.check_wave ~n_layers:3 ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;
      let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
      if has_tb then Pe.check_plane tb ~ref_len ~row:(row0 + hi) ~col:(wavefront - hi);
      let at = (row0 * ref_len) + wavefront and step = ref_len - 1 in
      for p = lo to hi do
        let s = p * 3 in
        let q = Array.unsafe_get query (row0 + p) in
        let rf = Array.unsafe_get reference (wavefront - p) in
        let r0 = Array.unsafe_get w1 s in
        let r1 = Datapath.sat_add_finite r0 (-12271) in
        let r2 = Array.unsafe_get w1 (s + 1) in
        let r3 = Datapath.sat_add_finite r2 (-3753) in
        let r4 = if r1 >= r3 then r1 else r3 in
        let r5 = Datapath.sat_add_finite r4 (-5678) in
        let r6 = Array.unsafe_get w1 (s + 3) in
        let r7 = Datapath.sat_add_finite r6 (-12271) in
        let r8 = Array.unsafe_get w1 (s + 5) in
        let r9 = Datapath.sat_add_finite r8 (-3753) in
        let r10 = if r7 >= r9 then r7 else r9 in
        let r11 = Datapath.sat_add_finite r10 (-5678) in
        let r12 = Array.unsafe_get w2 s in
        let r13 = Datapath.sat_add_finite r12 (-432) in
        let r14 = Array.unsafe_get w2 (s + 1) in
        let r15 = Datapath.sat_add_finite r14 (-2092) in
        let r16 = Array.unsafe_get w2 (s + 2) in
        let r17 = Datapath.sat_add_finite r16 (-2092) in
        let r18 = let m = if r13 >= r15 then r13 else r15 in if m >= r17 then m else r17 in
        let r19 = q.(0) in
        let r20 = rf.(0) in
        let r21 = t0.(r19).(r20) in
        let r22 = Datapath.sat_add r18 r21 in
        Array.unsafe_set w_new (s + 3) r22;
        Array.unsafe_set w_new (s + 4) r5;
        Array.unsafe_set w_new (s + 5) r11;
        if has_tb then Pe.set_pointer tb (at + (p * step)) (0)
      done
    end

let wave_k12 ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi =
  if lo <= hi then begin
    Pe.check_wave ~n_layers:3 ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row:(row0 + hi) ~col:(wavefront - hi);
    let at = (row0 * ref_len) + wavefront and step = ref_len - 1 in
    for p = lo to hi do
      let s = p * 3 in
      let q = Array.unsafe_get query (row0 + p) in
      let rf = Array.unsafe_get reference (wavefront - p) in
      let r0 = Array.unsafe_get w1 s in
      let r1 = Datapath.sat_add_finite r0 (-4) in
      let r2 = Array.unsafe_get w1 (s + 1) in
      let r3 = Datapath.sat_add_finite r2 (-1) in
      let r4 = if r1 >= r3 then r1 else r3 in
      let r5 = Array.unsafe_get w1 (s + 3) in
      let r6 = Datapath.sat_add_finite r5 (-4) in
      let r7 = Array.unsafe_get w1 (s + 5) in
      let r8 = Datapath.sat_add_finite r7 (-1) in
      let r9 = if r6 >= r8 then r6 else r8 in
      let r10 = Array.unsafe_get w2 s in
      let r11 = q.(0) in
      let r12 = rf.(0) in
      let r13 = 2 in
      let r14 = (-2) in
      let r15 = if r11 = r12 then r13 else r14 in
      let r16 = Datapath.sat_add_finite r10 r15 in
      let r17 = let m = if r16 >= r4 then r16 else r4 in if m >= r9 then m else r9 in
      let r18 = 0 in
      let r19 = if r17 <= r18 then r18 else r17 in
      Array.unsafe_set w_new (s + 3) r19;
      Array.unsafe_set w_new (s + 4) r4;
      Array.unsafe_set w_new (s + 5) r9;
      if has_tb then Pe.set_pointer tb (at + (p * step)) (0)
    done
  end

let wave_k14 ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi =
  if lo <= hi then begin
    Pe.check_wave ~n_layers:1 ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row:(row0 + hi) ~col:(wavefront - hi);
    let at = (row0 * ref_len) + wavefront and step = ref_len - 1 in
    for p = lo to hi do
      let s = p * 1 in
      let q = Array.unsafe_get query (row0 + p) in
      let rf = Array.unsafe_get reference (wavefront - p) in
      let r0 = Array.unsafe_get w2 s in
      let r1 = Array.unsafe_get w1 s in
      let r2 = Array.unsafe_get w1 (s + 1) in
      let r3 = let m = if r0 <= r1 then r0 else r1 in if m <= r2 then m else r2 in
      let r4 = q.(0) in
      let r5 = rf.(0) in
      let r6 = Dphls_util.Score.abs (Datapath.sat_add r4 (-r5)) in
      let r7 = Datapath.sat_add r3 r6 in
      Array.unsafe_set w_new (s + 1) r7;
      if has_tb then Pe.set_pointer tb (at + (p * step)) (0)
    done
  end

let wave_k15 (luts : int array array array) =
  let t0 = luts.(0) in
  fun ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi ->
    if lo <= hi then begin
      Pe.check_wave ~n_layers:1 ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;
      let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
      if has_tb then Pe.check_plane tb ~ref_len ~row:(row0 + hi) ~col:(wavefront - hi);
      let at = (row0 * ref_len) + wavefront and step = ref_len - 1 in
      for p = lo to hi do
        let s = p * 1 in
        let q = Array.unsafe_get query (row0 + p) in
        let rf = Array.unsafe_get reference (wavefront - p) in
        let r0 = Array.unsafe_get w2 s in
        let r1 = q.(0) in
        let r2 = rf.(0) in
        let r3 = t0.(r1).(r2) in
        let r4 = Datapath.sat_add r0 r3 in
        let r5 = Array.unsafe_get w1 s in
        let r6 = Datapath.sat_add_finite r5 (-4) in
        let r7 = Array.unsafe_get w1 (s + 1) in
        let r8 = Datapath.sat_add_finite r7 (-4) in
        let r9 = let m = if r4 >= r6 then r4 else r6 in if m >= r8 then m else r8 in
        let r10 = 0 in
        let r11 = if r9 <= r10 then r10 else r9 in
        let r12 = 3 in
        let r13 = if r6 >= r8 then r6 else r8 in
        let r14 = 2 in
        let r15 = 1 in
        let r16 = if r6 < r8 then r14 else r15 in
        let r17 = if r4 < r13 then r16 else r10 in
        let r18 = if r9 <= r10 then r12 else r17 in
        Array.unsafe_set w_new (s + 1) r11;
        if has_tb then Pe.set_pointer tb (at + (p * step)) (r18)
      done
    end

let wave_k19 ~w1 ~w2 ~w_new ~query ~reference ~tb ~row0 ~wavefront ~lo ~hi =
  if lo <= hi then begin
    Pe.check_wave ~n_layers:1 ~w1 ~w2 ~w_new ~query ~reference ~row0 ~wavefront ~lo ~hi;
    let ref_len = Array.length reference and has_tb = Bytes.length tb > 0 in
    if has_tb then Pe.check_plane tb ~ref_len ~row:(row0 + hi) ~col:(wavefront - hi);
    let at = (row0 * ref_len) + wavefront and step = ref_len - 1 in
    for p = lo to hi do
      let s = p * 1 in
      let q = Array.unsafe_get query (row0 + p) in
      let rf = Array.unsafe_get reference (wavefront - p) in
      let r0 = Array.unsafe_get w2 s in
      let r1 = q.(0) in
      let r2 = rf.(0) in
      let r3 = 0 in
      let r4 = 1 in
      let r5 = if r1 = r2 then r3 else r4 in
      let r6 = Datapath.sat_add_finite r0 r5 in
      let r7 = Array.unsafe_get w1 s in
      let r8 = Datapath.sat_add_finite r7 1 in
      let r9 = Array.unsafe_get w1 (s + 1) in
      let r10 = Datapath.sat_add_finite r9 1 in
      let r11 = let m = if r6 <= r8 then r6 else r8 in if m <= r10 then m else r10 in
      Array.unsafe_set w_new (s + 1) r11;
      if has_tb then Pe.set_pointer tb (at + (p * step)) (0)
    done
  end

let table =
  [|
    (key_k01, (fun _ -> pe_k01), (fun _ -> row_k01), fun _ -> wave_k01);
    (key_k02, (fun _ -> pe_k02), (fun _ -> row_k02), fun _ -> wave_k02);
    (key_k03, (fun _ -> pe_k03), (fun _ -> row_k03), fun _ -> wave_k03);
    (key_k04, (fun _ -> pe_k04), (fun _ -> row_k04), fun _ -> wave_k04);
    (key_k05, (fun _ -> pe_k05), (fun _ -> row_k05), fun _ -> wave_k05);
    (key_k08, (fun _ -> pe_k08), (fun _ -> row_k08), fun _ -> wave_k08);
    (key_k09, (fun _ -> pe_k09), (fun _ -> row_k09), fun _ -> wave_k09);
    (key_k10, pe_k10, row_k10, wave_k10);
    (key_k12, (fun _ -> pe_k12), (fun _ -> row_k12), fun _ -> wave_k12);
    (key_k14, (fun _ -> pe_k14), (fun _ -> row_k14), fun _ -> wave_k14);
    (key_k15, pe_k15, row_k15, wave_k15);
    (key_k19, (fun _ -> pe_k19), (fun _ -> row_k19), fun _ -> wave_k19);
  |]

let entry p =
  let v = Datapath.view p in
  Array.find_opt (fun (key, _, _, _) -> key = v) table

let find p = Option.map (fun (_, pe, _, _) -> pe (Datapath.luts p)) (entry p)

let find_row p = Option.map (fun (_, _, row, _) -> row (Datapath.luts p)) (entry p)

let find_wave p = Option.map (fun (_, _, _, wave) -> wave (Datapath.luts p)) (entry p)
