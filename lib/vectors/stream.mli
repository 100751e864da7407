(** The in-memory golden-vector model: per-wavefront operand/score/
    pointer/band-window streams of one engine run, plus the header that
    pins down the configuration that produced them and the final
    alignment summary.

    A vector is deterministic — same kernel, parameters, band, [N_PE]
    and workload always produce byte-identical streams — which is what
    lets a committed corpus detect silent schedule drift across PRs:
    a change that shifts when a PE fires, which cells the band admits,
    or what a cell's layer scores are is visible even when the final
    alignment score happens to agree. *)

type header = {
  version : int;          (** on-disk format version (see {!Codec.version}) *)
  kernel_id : int;
  kernel_name : string;
  params_hash : string;
      (** {!Dphls_core.Fingerprint.params_hash} of the producing
          kernel, its parameters and [N_PE] *)
  band : Dphls_core.Banding.t option;
      (** effective banding of the run, written with
          {!Dphls_core.Banding.to_string} *)
  n_pe : int;
  qry_len : int;
  ref_len : int;
  n_layers : int;
  query : Dphls_core.Types.seq;
  reference : Dphls_core.Types.seq;
}

type cell_rec = {
  c_chunk : int;
  c_wavefront : int;
  c_pe : int;
  c_row : int;
  c_col : int;
  c_tb : int;               (** 0 for kernels without traceback *)
  c_scores : int array;     (** layer scores, length [n_layers] *)
}

type record =
  | Cell of cell_rec
  | Window of { v_chunk : int; v_wavefront : int; v_lo : int; v_hi : int }
      (** Adaptive band window after the wavefront retired, in
          diagonal-offset (row - col) space. Only adaptive runs emit
          these. *)

type summary = {
  s_score : int;
  s_start : Dphls_core.Types.cell option;
  s_end : Dphls_core.Types.cell option;
  s_cigar : string;         (** "" when the kernel has no traceback *)
  s_cells : int;            (** cells computed *)
}

type t = {
  header : header;
  records : record array;   (** execution order: (chunk, wavefront, PE) *)
  summary : summary;
}

val record_key : record -> int * int * int * int
(** (chunk, wavefront, kind, pe) sort key of a record's schedule slot;
    cells (kind 0) precede the wavefront's window record (kind 1). *)

(** Where a divergence was found, in both schedule ((chunk, wavefront,
    PE)) and matrix ((row, col)) coordinates. *)
type site = {
  at_chunk : int;
  at_wavefront : int;
  at_pe : int;
  at_row : int;
  at_col : int;
}

val site_of_cell : cell_rec -> site

type divergence =
  | Header_field of { field : string; expected : string; actual : string }
  | Missing_cell of site      (** expected stream fires here, actual doesn't *)
  | Extra_cell of site        (** actual stream fires here, expected doesn't *)
  | Score_diff of { site : site; layer : int; expected : int; actual : int }
  | Pointer_diff of { site : site; expected : int; actual : int }
  | Window_diff of {
      at_chunk : int;
      at_wavefront : int;
      expected : int * int;
      actual : int * int;
    }
  | Missing_window of { at_chunk : int; at_wavefront : int }
  | Extra_window of { at_chunk : int; at_wavefront : int }
  | Summary_field of { field : string; expected : string; actual : string }

val describe : divergence -> string
(** One-line report naming the site — for cell-level divergences always
    the (chunk, wavefront, PE) slot and the (row, col) cell. *)

val diff : expected:t -> actual:t -> divergence option
(** First divergence between two vectors in stream order (header fields
    first, then records, then the result summary), or [None] when they
    are equivalent. When exactly one side carries window records (e.g. a
    golden-engine capture, which has no band tracker trajectory), window
    records are excluded from the comparison. *)
