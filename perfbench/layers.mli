(** The traced run's instruments: timers and counters wrapped around the
    public functions of each layer, plus a replay of [Driver.run]'s MDP loop
    built from those functions so planning, execution and the statistics
    repository can be timed apart.

    Every layer boundary the benchmark calls through opens a span
    ([driver.run], [mcts.plan], [exec.execute], [stats_repo.lookup],
    [stats_repo.flush], [server.handler]), kept in memory by a
    [Trace_event] collector until {!write_perfetto}. The MCTS problem
    callbacks run millions of times per pass, so they only add to per-layer
    clocks, and each [mcts.plan] span carries its callbacks' seconds as
    attributes. *)

open Monsoon_storage
open Monsoon_relalg

type clock = { mutable seconds : float; mutable calls : int }

type t = {
  tracer : Monsoon_telemetry.Span.tracer;
  perfetto : Monsoon_telemetry.Trace_event.t;
  run : clock;  (** whole replayed [Driver.run] calls *)
  plan : clock;  (** [Mcts.plan] *)
  legal_actions : clock;  (** the [actions] callback: [Mdp.legal_actions] *)
  mutable actions_returned : int;
  state_key : clock;  (** the [key] callback: [Mdp.state_key] *)
  is_terminal : clock;  (** the [is_terminal] callback *)
  step : clock;  (** the [step] callback: [Simulator.step] *)
  rollout : clock;  (** the simulator's rollout policy *)
  execute : clock;  (** [Executor.execute] *)
  mutable objects : float;  (** objects charged by completed executes *)
  mutable sigma_objects : float;  (** the Σ-pass share of [objects] *)
  lookup : clock;  (** one call per query: all its warm-start lookups *)
  mutable lookups : int;  (** [Stats_repo.lookup_distinct] calls *)
  mutable hits : int;  (** lookups answered [Known] or [Hint] *)
  flush : clock;  (** [Stats_repo.flush_query] *)
  handler : clock;  (** the server handler, when the replay serves *)
}

val create : unit -> t

val timed : clock -> (unit -> 'a) -> 'a
(** Runs the thunk and adds its wall time and one call to the clock, also
    when it raises. *)

val span :
  t ->
  ?attrs:(string * Monsoon_telemetry.Span.attr) list ->
  string ->
  clock ->
  (Monsoon_telemetry.Span.t -> 'a) ->
  'a
(** [timed] inside a span of the given name. *)

val monsoon_config :
  iterations:int ->
  budget:float ->
  rng:Monsoon_util.Rng.t ->
  Query.t ->
  Monsoon_core.Driver.config
(** The driver configuration [Strategy.monsoon] builds: spike-and-slab
    prior, UCT(√2), one MCTS worker, at most 200 steps, and the iteration
    budget doubled for 6-instance and tripled for 7-instance queries. *)

type outcome = {
  actions : string list;  (** the action trace, as [Driver.outcome.actions] *)
  cost : float;
  timed_out : bool;
  result_card : float;
}

val replay :
  t ->
  env:Monsoon_util.Env.t ->
  ?repo:Monsoon_stats_repo.Stats_repo.t ->
  Monsoon_core.Driver.config ->
  Catalog.t ->
  Query.t ->
  outcome
(** [Driver.run]'s loop for a query of at least two instances, rebuilt from
    public functions: warm-start lookups in [repo] (tight history seeds the
    catalog, dispersed history becomes a per-term prior through
    [Simulator.create_with]), [Mcts.plan] over [Simulator.problem] with
    timed callbacks, plan edits through [Mdp.apply_plan_edit], EXECUTE
    through [Executor.execute] with its counts and distincts folded into
    the state's [Stats_catalog], and the end-of-query repository flush.
    On the same configuration and RNG state it takes the same actions and
    charges the same cost as [Driver.run]; the benchmark checks that on
    every traced query. *)

val write_perfetto : t -> string -> unit
(** Writes the recorded spans as a Chrome/Perfetto trace file. *)
