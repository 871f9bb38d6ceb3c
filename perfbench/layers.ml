open Monsoon_util
open Monsoon_relalg
open Monsoon_stats
open Monsoon_exec
open Monsoon_core
open Monsoon_telemetry
module Mcts = Monsoon_mcts.Mcts
module Stats_repo = Monsoon_stats_repo.Stats_repo

type clock = { mutable seconds : float; mutable calls : int }

type t = {
  tracer : Span.tracer;
  perfetto : Trace_event.t;
  run : clock;
  plan : clock;
  legal_actions : clock;
  mutable actions_returned : int;
  state_key : clock;
  is_terminal : clock;
  step : clock;
  rollout : clock;
  execute : clock;
  mutable objects : float;
  mutable sigma_objects : float;
  lookup : clock;
  mutable lookups : int;
  mutable hits : int;
  flush : clock;
  handler : clock;
}

let clock () = { seconds = 0.0; calls = 0 }

let create () =
  let perfetto = Trace_event.create () in
  { tracer = Span.make (Trace_event.sink perfetto);
    perfetto;
    run = clock ();
    plan = clock ();
    legal_actions = clock ();
    actions_returned = 0;
    state_key = clock ();
    is_terminal = clock ();
    step = clock ();
    rollout = clock ();
    execute = clock ();
    objects = 0.0;
    sigma_objects = 0.0;
    lookup = clock ();
    lookups = 0;
    hits = 0;
    flush = clock ();
    handler = clock () }

let timed c f =
  let t0 = Timer.now () in
  let stop () =
    c.seconds <- c.seconds +. (Timer.now () -. t0);
    c.calls <- c.calls + 1
  in
  match f () with
  | r ->
    stop ();
    r
  | exception e ->
    stop ();
    raise e

let span l ?attrs name c f =
  Span.with_span l.tracer ?attrs name (fun sp -> timed c (fun () -> f sp))

let monsoon_config ~iterations ~budget ~rng q =
  let iterations =
    if Query.n_rels q >= 7 then iterations * 3
    else if Query.n_rels q >= 6 then iterations * 2
    else iterations
  in
  { Driver.prior = Prior.spike_and_slab;
    prior_of = None;
    known_distincts = [];
    mcts = { (Mcts.default_config ~rng) with Mcts.iterations };
    mcts_workers = 1;
    budget;
    max_steps = 200 }

let wrap_problem l (p : (Mdp.state, Mdp.action) Mcts.problem) =
  { Mcts.actions =
      (fun s ->
        let acts = timed l.legal_actions (fun () -> p.Mcts.actions s) in
        l.actions_returned <- l.actions_returned + List.length acts;
        acts);
    step = (fun s a -> timed l.step (fun () -> p.Mcts.step s a));
    is_terminal = (fun s -> timed l.is_terminal (fun () -> p.Mcts.is_terminal s));
    key = (fun s -> timed l.state_key (fun () -> p.Mcts.key s));
    rollout_policy =
      Option.map
        (fun policy rng s acts -> timed l.rollout (fun () -> policy rng s acts))
        p.Mcts.rollout_policy }

(* Seconds spent in the problem callbacks so far; an [mcts.plan] span
   records the difference across the call, so its self time is visible in
   the trace file. *)
let callback_seconds l =
  [ ("legal_actions_s", l.legal_actions.seconds);
    ("state_key_s", l.state_key.seconds);
    ("is_terminal_s", l.is_terminal.seconds);
    ("step_s", l.step.seconds);
    ("rollout_s", l.rollout.seconds) ]

(* The warm-start ladder of [Driver.run]: Known answers become seeded
   Wildcard distincts (in lookup order), Hint answers per-term priors. *)
let warm_start l repo (config : Driver.config) query =
  let known, hints =
    List.fold_left
      (fun (known, hints) (tm : Term.t) ->
        l.lookups <- l.lookups + 1;
        match Stats_repo.lookup_distinct repo ~query ~term:tm with
        | Stats_repo.Cold -> (known, hints)
        | Stats_repo.Known d ->
          l.hits <- l.hits + 1;
          if List.mem_assoc tm.Term.id config.Driver.known_distincts then
            (known, hints)
          else ((tm.Term.id, d) :: known, hints)
        | Stats_repo.Hint p ->
          l.hits <- l.hits + 1;
          (known, (tm.Term.id, p) :: hints))
      ([], [])
      (Query.interesting_terms query (Query.all_mask query))
  in
  (List.rev known, hints)

type outcome = {
  actions : string list;
  cost : float;
  timed_out : bool;
  result_card : float;
}

let replay l ~env ?repo (config : Driver.config) catalog query =
  if Query.n_rels query < 2 then
    invalid_arg "Layers.replay: single-instance queries have no MDP";
  span l "driver.run" l.run ~attrs:[ ("query", Span.Str (Query.name query)) ]
  @@ fun _ ->
  let ctx = Mdp.make_ctx catalog query in
  let exec =
    Executor.create ~env catalog query (Executor.budget config.Driver.budget)
  in
  let warm_known, warm_priors =
    match repo with
    | None -> ([], [])
    | Some r ->
      span l "stats_repo.lookup" l.lookup (fun _ ->
          warm_start l r config query)
  in
  let seeded = List.map fst config.Driver.known_distincts @ List.map fst warm_known in
  let deadline = Env.deadline env in
  let mcts_cfg =
    if Deadline.is_none config.Driver.mcts.Mcts.deadline then
      { config.Driver.mcts with Mcts.deadline }
    else config.Driver.mcts
  in
  let prior_of =
    match (warm_priors, config.Driver.prior_of) with
    | [], base -> base
    | hints, base ->
      Some
        (fun tid ->
          match List.assoc_opt tid hints with
          | Some p -> p
          | None -> (
            match base with Some f -> f tid | None -> config.Driver.prior))
  in
  let rng = config.Driver.mcts.Mcts.rng in
  let sim =
    match prior_of with
    | Some prior_of -> Simulator.create_with ctx ~prior_of rng
    | None -> Simulator.create ctx config.Driver.prior rng
  in
  let problem = wrap_problem l (Simulator.problem sim) in
  let cost = ref 0.0 in
  let trace = ref [] in
  let finish ~timed_out (state : Mdp.state) =
    (match repo with
    | None -> ()
    | Some r ->
      let measured =
        Stats_catalog.distincts state.Mdp.stats
        |> List.filter_map (fun (tm, scope, d) ->
               match scope with
               | Stats_catalog.Wildcard when not (List.mem tm seeded) ->
                 Some (tm, d)
               | _ -> None)
      in
      span l "stats_repo.flush" l.flush (fun _ ->
          ignore
            (Stats_repo.flush_query r ~query
               ~counts:(Stats_catalog.counts state.Mdp.stats)
               ~distincts:measured
               ~udf:(Executor.udf_observations exec))));
    let result_card =
      if timed_out then 0.0
      else
        match Executor.materialized exec (Query.all_mask query) with
        | Some inter -> float_of_int (Intermediate.cardinality inter)
        | None -> 0.0
    in
    { actions = List.rev !trace; cost = !cost; timed_out; result_card }
  in
  let execute_one (state : Mdp.state) acc e =
    let c, obs =
      span l "exec.execute" l.execute (fun sp ->
          let c, obs = Executor.execute exec e in
          Span.set_attr sp "objects" (Span.Float c);
          Span.set_attr sp "sigma_objects" (Span.Float obs.Executor.obs_stats_cost);
          (c, obs))
    in
    l.objects <- l.objects +. c;
    l.sigma_objects <- l.sigma_objects +. obs.Executor.obs_stats_cost;
    List.iter
      (fun (m, n) -> Stats_catalog.set_count state.Mdp.stats m n)
      obs.Executor.obs_counts;
    List.iter
      (fun (tm, d) ->
        Stats_catalog.set_distinct state.Mdp.stats ~term:tm
          ~scope:Stats_catalog.Wildcard d)
      obs.Executor.obs_distincts;
    acc +. c
  in
  let plan state =
    span l "mcts.plan" l.plan (fun sp ->
        let before = callback_seconds l in
        let planned = Mcts.plan ~env mcts_cfg problem state in
        List.iter2
          (fun (name, b) (_, a) -> Span.set_attr sp name (Span.Float (a -. b)))
          before (callback_seconds l);
        planned)
  in
  let rec loop (state : Mdp.state) steps =
    if Mdp.is_terminal ctx state then finish ~timed_out:false state
    else if steps >= config.Driver.max_steps || Deadline.expired deadline then
      finish ~timed_out:true state
    else
      match plan state with
      | None -> finish ~timed_out:false state
      | Some (action, _) -> (
        trace := Mdp.describe_action ctx action :: !trace;
        match action with
        | Mdp.Execute -> (
          match List.fold_left (execute_one state) 0.0 state.Mdp.r_p with
          | exception (Executor.Timeout | Deadline.Expired) ->
            finish ~timed_out:true state
          | c ->
            cost := !cost +. c;
            (* As in the driver: only masks whose counts were observed join
               R_e. *)
            let new_masks =
              List.concat_map Mdp.executed_masks state.Mdp.r_p
              |> List.filter (fun m ->
                     Relset.cardinal m = 1
                     || Stats_catalog.count state.Mdp.stats m <> None)
            in
            let r_e = List.sort_uniq compare (new_masks @ state.Mdp.r_e) in
            loop { state with Mdp.r_p = []; r_e } (steps + 1))
        | Mdp.Add_stats_of_exec _ | Mdp.Wrap_stats _ | Mdp.Join_exec _
        | Mdp.Join_planned _ | Mdp.Join_mixed _ ->
          loop (Mdp.apply_plan_edit state action) (steps + 1))
  in
  let init = Mdp.init_state ctx in
  List.iter
    (fun (term, d) ->
      Stats_catalog.set_distinct init.Mdp.stats ~term
        ~scope:Stats_catalog.Wildcard d)
    (config.Driver.known_distincts @ warm_known);
  loop init 0

let write_perfetto l path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Trace_event.to_string l.perfetto))
