(** The golden-vector corpus: which vectors the repo commits under
    [test/data/vectors/], how they are (re)generated, and the full
    check a vector file must pass in CI.

    A corpus vector is pinned by a {!spec} — kernel, [N_PE], workload
    length, band override and RNG seed — and regenerated bit-identically
    from it ({!generate}); checking ({!check}) needs only the file, since
    the workload is embedded in the header. *)

type spec = {
  kernel_id : int;
  n_pe : int;
  len : int;          (** workload length fed to the catalog generator *)
  band : Stream.band_spec option;
      (** [None] keeps the kernel's own banding *)
  seed : int;
}

val corpus : spec list
(** The committed corpus: linear/affine/local, DTW, Viterbi (no
    traceback), fixed-band and adaptive-band kernels. *)

val filename : spec -> string
(** Deterministic basename, e.g. ["k01_global_linear_npe4_len32.dpv"]. *)

val generate : spec -> (Stream.t * string, string) result
(** Regenerate the spec's vector (systolic capture of the seeded
    catalog workload) and its basename. [Error] on unknown kernel id or
    a band override the kernel rejects. *)

type outcome = {
  o_cells : int;      (** cell records in the vector *)
  o_windows : int;    (** band-window records *)
  o_replayed : int;   (** cells replayed through each PE datapath *)
}

val check : ?overlap:bool -> Stream.t -> (outcome, string) result
(** The full gate a loaded vector must pass:
    - the header resolves against the live catalog (known kernel id,
      matching name and layer count) and its params hash matches the
      current build's — version/config skew is caught here;
    - re-running the systolic engine on the embedded workload
      reproduces the recorded streams ({!Stream.diff}: first divergence
      named by chunk, wavefront, PE, cell);
    - every recorded cell replays bit-identically through both the
      compiled datapath and its interpreter {!Dphls_core.Datapath.eval}
      ({!Replay.run}).

    With [?overlap] (default [false]) the re-run goes through the
    overlapped staged engine ({!Capture.systolic} [~overlap:true]), so
    the drift gate also proves prologue overlap changes no emitted
    vector. *)

val check_file : ?overlap:bool -> string -> (outcome, string) result
(** {!Codec.read_file} then {!check}; load errors are [Error] with the
    path prefixed. *)
