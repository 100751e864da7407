(* The engine registry, the engine-choice vocabulary and the one
   auto-dispatch policy. *)

let systolic : Engine_intf.t = (module Backends.Systolic)
let reference : Engine_intf.t = (module Backends.Reference)
let bitpar : Engine_intf.t = (module Backends.Bitpar)
let all = [ systolic; reference; bitpar ]
let name (e : Engine_intf.t) = let (module E) = e in E.name

type choice = Golden | Systolic of int | Bitpar | Auto of int

let choice_name = function
  | Golden -> name reference
  | Systolic _ -> name systolic
  | Bitpar -> name bitpar
  | Auto _ -> "auto"

let of_string ~n_pe s =
  let choices = [ Auto n_pe; Systolic n_pe; Golden; Bitpar ] in
  match List.find_opt (fun c -> choice_name c = s) choices with
  | Some c -> Ok c
  | None ->
    Error
      (Printf.sprintf "unknown engine %S (valid: %s)" s
         (String.concat " | " (List.map choice_name choices)))

(* The auto policy on one workload, given the kernel's bit-parallel
   mapping (the shape proof, the same for every workload of the kernel). *)
let select_mapped ?(metrics = Dphls_obs.Metrics.disabled) ~mapping ~qry_len ~ref_len k p =
  match Result.bind mapping (Dphls_bitpar.Eligibility.admits ~qry_len ~ref_len k p) with
  | Ok _ ->
    Dphls_obs.Metrics.incr metrics Dphls_obs.Counter.Engine_fastpath_hits;
    bitpar
  | Error _ -> (
    Dphls_obs.Metrics.incr metrics Dphls_obs.Counter.Engine_fastpath_fallbacks;
    (* an adaptive window depends on the array height, so only the
       simulator prunes (and counts the live wavefronts) as the array
       would; every other band is a closed form of the golden run *)
    match k.Dphls_core.Kernel.banding with
    | Some (Dphls_core.Banding.Adaptive _) -> systolic
    | Some (Dphls_core.Banding.Fixed _) | None -> reference)

let select ?metrics ~qry_len ~ref_len k p =
  select_mapped ?metrics ~mapping:(Dphls_bitpar.Eligibility.mapping k p) ~qry_len ~ref_len k p

let resolve ?metrics ~qry_len ~ref_len choice k p =
  match choice with
  | Golden -> reference
  | Systolic _ -> systolic
  | Bitpar -> bitpar
  | Auto _ -> select ?metrics ~qry_len ~ref_len k p

module Sim = Dphls_systolic.Engine

type ran = {
  result : Dphls_core.Result.t;
  engine : string;
  cycles : Sim.cycles option;
  stats : Sim.stats option;
}

let run_batch ?metrics ?tracer choice k p ws =
  let cfg =
    match choice with
    | Systolic n_pe | Auto n_pe -> Engine_intf.config ~n_pe ()
    | Golden | Bitpar -> Engine_intf.config ~n_pe:1 ()
  in
  let run (module E : Engine_intf.S) ws = fst (E.run_batch ?metrics ?tracer cfg k p ws) in
  (* Auto proves the kernel's shape once per call; each workload then
     meets only the band and border gates *)
  let mapping = lazy (Dphls_bitpar.Eligibility.mapping k p) in
  let go e ws =
    let engine = name e in
    match choice with
    | Auto _ when e == bitpar ->
      (* admitted with this mapping: run it without the port's re-check *)
      let m = Result.get_ok (Lazy.force mapping) in
      Array.map
        (fun w ->
          {
            result =
              Dphls_bitpar.Engine.run ?band:k.Dphls_core.Kernel.banding ?metrics ?tracer m w;
            engine;
            cycles = None;
            stats = None;
          })
        ws
    | Auto n_pe when e == reference ->
      (* Auto's golden answers carry the cycles the array would take:
         the simulator's own closed form at the choice's N_PE, from the
         golden walk's step count *)
      let array = Dphls_systolic.Config.create ~n_pe in
      Array.map2
        (fun w (result, _) ->
          let qry_len, ref_len = Dphls_core.Workload.sizes w in
          let c =
            Sim.cycles_estimate array k p ~qry_len ~ref_len
              ~tb_steps:result.Dphls_core.Result.tb_steps
          in
          { result; engine; cycles = Some c; stats = None })
        ws (run e ws)
    | _ ->
      Array.map
        (fun (result, stats) ->
          { result; engine; cycles = Option.map (fun s -> s.Sim.cycles) stats; stats })
        (run e ws)
  in
  (* one observable dispatch decision per workload *)
  let picks =
    Array.map
      (fun w ->
        let qry_len, ref_len = Dphls_core.Workload.sizes w in
        match choice with
        | Auto _ -> select_mapped ?metrics ~mapping:(Lazy.force mapping) ~qry_len ~ref_len k p
        | _ -> resolve ~qry_len ~ref_len choice k p)
      ws
  in
  if Array.length ws = 0 then [||]
  else if Array.for_all (fun e -> e == picks.(0)) picks then go picks.(0) ws
  else Array.mapi (fun i w -> (go picks.(i) [| w |]).(0)) ws
