(* The three shipped backends behind Engine_intf.S. Systolic and
   Reference are thin ports of the existing engines (bit-identical by
   construction: every call forwards verbatim). Bitpar adapts a kernel
   onto the Myers core: the Fastpath pass proves the recurrence shape on
   the kernel's own datapath and bindings and resolves its cost
   constants, then the init borders are checked against the global
   ramp, so a kernel either routes with exactly its own scoring or is
   refused with the disqualifying property named. *)

open Dphls_core
module Score = Dphls_util.Score
module BEngine = Dphls_bitpar.Engine

module Systolic : Engine_intf.S = struct
  let name = "systolic"

  let caps =
    {
      Engine_intf.traceback = true;
      adaptive_band = true;
      capture = true;
      cycle_model = true;
    }

  let run ?trace ?metrics ?tracer (cfg : Engine_intf.config) k p w =
    let r, stats =
      Dphls_systolic.Engine.run ?trace ?metrics ?tracer
        (Dphls_systolic.Config.create ~n_pe:cfg.Engine_intf.n_pe)
        k p w
    in
    (r, Some stats)

  let run_batch ?overlap ?traces ?metrics ?tracer (cfg : Engine_intf.config) k
      p ws =
    let results, batch =
      Dphls_systolic.Engine.run_batch ?overlap ?traces ?metrics ?tracer
        (Dphls_systolic.Config.create ~n_pe:cfg.Engine_intf.n_pe)
        k p ws
    in
    (Array.map (fun (r, stats) -> (r, Some stats)) results, Some batch)
end

module Reference : Engine_intf.S = struct
  let name = "reference"

  let caps =
    {
      Engine_intf.traceback = true;
      adaptive_band = true;
      capture = false;
      cycle_model = false;
    }

  let band_pe (cfg : Engine_intf.config) =
    if cfg.Engine_intf.golden_chunked then Some cfg.Engine_intf.n_pe else None

  let run ?trace ?metrics ?tracer cfg k p w =
    (match trace with
    | Some _ ->
      raise
        (Engine_intf.Unsupported "reference engine has no capture stream")
    | None -> ());
    (Dphls_reference.Ref_engine.run ?band_pe:(band_pe cfg) ?metrics ?tracer k
       p w,
     None)

  (* The golden engine has no prologue stage to hide; [overlap] is a
     device-model knob and changes nothing here. *)
  let run_batch ?overlap:_ ?traces ?metrics ?tracer cfg k p ws =
    (match traces with
    | Some _ ->
      raise
        (Engine_intf.Unsupported "reference engine has no capture stream")
    | None -> ());
    (Array.map (fun w -> run ?metrics ?tracer cfg k p w) ws, None)
end

module Bitpar : sig
  include Engine_intf.S

  val mapping_for :
    'p Kernel.t -> 'p -> (Dphls_bitpar.Engine.mapping, string) result
  (** Shape proof (Fastpath on the kernel's catalog datapath) plus the
      live cost constants probed from the kernel's own PE. Does not
      check banding or borders — see {!supports}. *)

  val supports :
    qry_len:int ->
    ref_len:int ->
    'p Kernel.t ->
    'p ->
    (Dphls_bitpar.Engine.mapping, string) result
  (** Full routing check for a workload shape: {!mapping_for} plus band
      mode (unbanded or fixed) and the global init-border ramp up to the
      given lengths. *)
end = struct
  let name = "bitpar"

  let caps =
    {
      Engine_intf.traceback = false;
      adaptive_band = false;
      capture = false;
      cycle_model = false;
    }

  (* The Fastpath shape proof on the kernel's own datapath and bindings
     also resolves its cost constants: a min-plus kernel is [scale] x
     Levenshtein, a max-plus one maps through its doubled weight. *)
  let mapping_for (type p) (k : p Kernel.t) (p : p) =
    if k.Kernel.n_layers <> 1 then Error "more than one score layer"
    else if k.Kernel.score_site <> Traceback.Bottom_right then
      Error "score site is not the bottom-right cell"
    else
      match k.Kernel.traceback p with
      | Some _ -> Error "kernel requires a traceback path"
      | None -> (
        let cell, bindings = k.Kernel.datapath p in
        match Dphls_analysis.Fastpath.classify cell bindings with
        | Dphls_analysis.Fastpath.Ineligible { property } -> Error property
        | Dphls_analysis.Fastpath.Eligible { scale; match_; _ } -> (
          match k.Kernel.objective with
          | Score.Minimize -> Ok (BEngine.Unit_cost { cost = scale })
          | Score.Maximize -> Ok (BEngine.Doubled { match_; weight2 = scale })))

  let indel_of = function
    | BEngine.Unit_cost { cost } -> cost
    | BEngine.Doubled { match_; weight2 } -> (match_ - weight2) / 2

  let borders_ok (type p) (k : p Kernel.t) (p : p) ~qry_len ~ref_len ~indel =
    k.Kernel.origin p ~layer:0 = 0
    && (let ok = ref true in
        for col = 0 to ref_len - 1 do
          if k.Kernel.init_row p ~ref_len ~layer:0 ~col <> indel * (col + 1)
          then ok := false
        done;
        for row = 0 to qry_len - 1 do
          if k.Kernel.init_col p ~qry_len ~layer:0 ~row <> indel * (row + 1)
          then ok := false
        done;
        !ok)

  let supports ~qry_len ~ref_len (type p) (k : p Kernel.t) (p : p) =
    match mapping_for k p with
    | Error _ as e -> e
    | Ok mapping ->
      (match k.Kernel.banding with
       | Some (Banding.Adaptive _) -> Error "adaptive band"
       | Some (Banding.Fixed _) | None ->
         if borders_ok k p ~qry_len ~ref_len ~indel:(indel_of mapping) then
           Ok mapping
         else Error "init borders are not the global indel ramp")

  let run ?trace ?metrics ?tracer (_ : Engine_intf.config) k p w =
    (match trace with
    | Some _ ->
      raise (Engine_intf.Unsupported "bitpar engine has no capture stream")
    | None -> ());
    let qry_len, ref_len = Workload.sizes w in
    match supports ~qry_len ~ref_len k p with
    | Error why ->
      raise
        (Engine_intf.Unsupported
           (Printf.sprintf "kernel #%d %s is not bit-parallel eligible: %s"
              k.Kernel.id k.Kernel.name why))
    | Ok mapping ->
      (BEngine.run ?band:k.Kernel.banding ?metrics ?tracer mapping w, None)

  let run_batch ?overlap:_ ?traces ?metrics ?tracer cfg k p ws =
    (match traces with
    | Some _ ->
      raise (Engine_intf.Unsupported "bitpar engine has no capture stream")
    | None -> ());
    (Array.map (fun w -> run ?metrics ?tracer cfg k p w) ws, None)
end
