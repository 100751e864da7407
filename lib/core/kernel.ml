type 'p t = {
  id : int;
  name : string;
  description : string;
  objective : Dphls_util.Score.objective;
  n_layers : int;
  score_bits : int;
  tb_bits : int;
  init_row : 'p -> ref_len:int -> layer:int -> col:int -> Types.score;
  init_col : 'p -> qry_len:int -> layer:int -> row:int -> Types.score;
  origin : 'p -> layer:int -> Types.score;
  datapath : 'p -> Datapath.cell * Datapath.bindings;
  score_site : Traceback.start_rule;
  traceback : 'p -> Traceback.spec option;
  banding : Banding.t option;
  traits : Traits.t;
}

(* The single source of truth for the structural checks; [validate]
   raises on the first finding and the static analyzer
   ([Dphls_analysis.Lint]) reports them all with the same check names. *)
let structural_findings k params =
  let findings = ref [] in
  let add check msg = findings := (check, msg) :: !findings in
  if k.n_layers < 1 then add "n-layers" "n_layers must be >= 1";
  if k.score_bits < 2 || k.score_bits > 62 then
    add "score-bits-range" "score_bits out of [2,62]";
  if k.tb_bits < 0 || k.tb_bits > 16 then add "tb-bits-range" "tb_bits out of [0,16]";
  (match k.traceback params with
  | Some _ when k.tb_bits = 0 -> add "tb-bits-zero" "traceback enabled but tb_bits = 0"
  | Some spec ->
    let fsm = spec.Traceback.fsm in
    if fsm.Traceback.n_states < 1 then add "fsm-states" "FSM needs at least one state"
    else if
      fsm.Traceback.start_state < 0
      || fsm.Traceback.start_state >= fsm.Traceback.n_states
    then
      add "fsm-start-state"
        (Printf.sprintf "FSM start_state %d outside [0,%d)" fsm.Traceback.start_state
           fsm.Traceback.n_states)
  | None -> ());
  (try Traits.validate k.traits with Invalid_argument msg -> add "traits" msg);
  List.rev !findings

let validate k params =
  match structural_findings k params with
  | [] -> ()
  | (_, msg) :: _ -> invalid_arg ("Kernel: " ^ msg)

let has_traceback k params = Option.is_some (k.traceback params)

let with_band k = function None -> k | Some banding -> { k with banding }

let program k params =
  let cell, bindings = k.datapath params in
  Datapath.compile cell bindings

let flat_pe k params =
  let p = program k params in
  match Pe_gen.find p with Some f -> f | None -> Datapath.flat p

let flat_row k params =
  let p = program k params in
  match Pe_gen.find_row p with
  | Some f -> f
  | None -> Pe.row_of_flat ~n_layers:k.n_layers (Datapath.flat p)

let flat_wave k params =
  let p = program k params in
  match Pe_gen.find_wave p with
  | Some f -> f
  | None -> Pe.wave_of_flat ~n_layers:k.n_layers (Datapath.flat p)
