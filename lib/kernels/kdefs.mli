(** Shared building blocks for the catalog kernels: pointer encodings
    and traceback FSMs. A datapath cell ([Cells]) writes the pointer
    fields in these encodings; the FSMs read them back.

    Pointer encodings follow the paper's bit budgets exactly:
    - linear kernels store 2-bit pointers (diag/up/left/end);
    - affine kernels store 4-bit pointers (2 bits for H's source plus one
      extension bit each for the D and I layers);
    - two-piece affine kernels store 7-bit pointers (3 source bits plus
      four extension bits). *)

open Dphls_core

(** 2-bit linear pointers. *)
module Linear : sig
  val ptr_diag : int
  val ptr_up : int
  val ptr_left : int
  val ptr_end : int

  val fsm : Traceback.fsm
  (** Single-state FSM: pointer directly encodes the move; [ptr_end]
      stops (used by local kernels). *)
end

(** 4-bit affine pointers; layer order H=0, D=1 (vertical/deletion),
    I=2 (horizontal/insertion). *)
module Affine : sig
  val src_diag : int
  val src_del : int
  val src_ins : int
  val src_end : int

  val fsm : Traceback.fsm
  (** States: 0 = walking H, 1 = walking D, 2 = walking I. *)
end

(** 7-bit two-piece affine pointers; layers H=0, D1=1, I1=2, D2=3, I2=4. *)
module Two_piece : sig
  val src_diag : int
  val src_d1 : int
  val src_i1 : int
  val src_d2 : int
  val src_i2 : int
  val src_end : int

  val fsm : Traceback.fsm
end

val dna_char_bits : int
