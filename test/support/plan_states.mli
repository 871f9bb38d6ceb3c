(** MDP states the planner actually visits, for pinning and timing the
    action enumerator on realistic inputs.

    [record ~seed ctx] plans the query step by step as the driver does —
    one {!Monsoon_mcts.Mcts.plan} call per step from the current state —
    but takes each chosen action through the simulator (EXECUTE sampled
    from the spike-and-slab prior) instead of real execution. Every state
    the search asks for actions on is kept once (by
    {!Monsoon_core.Mdp.state_key}), in first-visit order: deep R_e states
    late in the episode and states at the two-pending-plans cap included.
    Deterministic in [seed]. *)

val record :
  ?iterations:int ->
  ?max_steps:int ->
  seed:int ->
  Monsoon_core.Mdp.ctx ->
  Monsoon_core.Mdp.state array
(** [iterations] per plan call (default 200), at most [max_steps] steps
    (default 40). *)
