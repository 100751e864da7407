(** The kernel catalog: the 15 Table 1 kernels plus the adaptive-band
    variants of #11-#13 (ids 16-18), with their metadata, workload
    generators and the optimal (N_PE, N_B, N_K) configurations the paper
    reports in Table 2. *)

type parallelism = {
  n_pe : int;
  n_b : int;
  n_k : int;
}

type entry = {
  packed : Dphls_core.Registry.packed;
  alphabet : string;       (** Table 1 "Alphabet" column *)
  tools : string;          (** representative state-of-the-art tools *)
  application : string;    (** example application *)
  modifications : string;  (** changes relative to kernel #1 *)
  optimal : parallelism;   (** Table 2's best configuration *)
  default_len : int;       (** workload sequence length used in §6.1 *)
  max_len : int;
      (** largest supported workload length: the bound the pre-synthesis
          checker ([Dphls_analysis]) verifies [score_bits] against, and
          the default [--max-len] of `dphls check` *)
  gen : Dphls_util.Rng.t -> len:int -> Dphls_core.Workload.t;
}

val all : entry list
(** The 15 Table 1 kernels in order, then the adaptive variants 16-18. *)

val text_encoder : entry -> (string -> int array) option
(** How a request spells the entry's sequences as text:
    {!Dphls_alphabet.Dna.of_string} for DNA kernels,
    {!Dphls_alphabet.Protein.of_string} for amino acids, [None] for
    sequence profiles, signals and integers, which have no text form. *)

val find : int -> entry
(** Lookup by catalog kernel number; raises [Not_found]. *)

val lookup : string -> entry option
(** A kernel as a request or a command line names it: a catalog number
    (["2"]) or a kernel name (["dtw"]); [None] when no entry matches. *)

val ids : int list
