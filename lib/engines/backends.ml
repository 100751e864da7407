(* The three shipped backends behind Engine_intf.S, each a thin port of
   its engine (bit-identical by construction: every call forwards
   verbatim). Bitpar runs a kernel only when Dphls_bitpar.Eligibility
   admits the workload, and otherwise refuses it with the reason that
   rule names. *)

open Dphls_core

module Systolic : Engine_intf.S = struct
  let name = "systolic"

  let run ?metrics ?tracer (cfg : Engine_intf.config) k p w =
    let r, stats =
      Dphls_systolic.Engine.run ?metrics ?tracer
        (Dphls_systolic.Config.create ~n_pe:cfg.Engine_intf.n_pe)
        k p w
    in
    (r, Some stats)

  let run_batch ?overlap ?metrics ?tracer (cfg : Engine_intf.config) k p ws =
    let results, batch =
      Dphls_systolic.Engine.run_batch ?overlap ?metrics ?tracer
        (Dphls_systolic.Config.create ~n_pe:cfg.Engine_intf.n_pe)
        k p ws
    in
    (Array.map (fun (r, stats) -> (r, Some stats)) results, Some batch)
end

module Reference : Engine_intf.S = struct
  let name = "reference"

  let run ?metrics ?tracer _ k p w =
    (Dphls_reference.Ref_engine.run ?metrics ?tracer k p w, None)

  (* The golden engine has no prologue stage to hide; [overlap] is a
     device-model knob and changes nothing here. *)
  let run_batch ?overlap:_ ?metrics ?tracer _ k p ws =
    ( Array.map
        (fun r -> (r, None))
        (Dphls_reference.Ref_engine.run_batch ?metrics ?tracer k p ws),
      None )
end

module Bitpar : Engine_intf.S = struct
  let name = "bitpar"

  let run ?metrics ?tracer _ k p w =
    let qry_len, ref_len = Workload.sizes w in
    match Dphls_bitpar.Eligibility.supports ~qry_len ~ref_len k p with
    | Error why ->
      raise
        (Engine_intf.Unsupported
           (Printf.sprintf "kernel #%d %s is not bit-parallel eligible: %s"
              k.Kernel.id k.Kernel.name why))
    | Ok mapping ->
      ( Dphls_bitpar.Engine.run ?band:k.Kernel.banding ?metrics ?tracer mapping w,
        None )

  let run_batch ?overlap:_ ?metrics ?tracer cfg k p ws =
    (Array.map (fun w -> run ?metrics ?tracer cfg k p w) ws, None)
end
