(** The frozen MDP action enumerator.

    {!Monsoon_core.Mdp.legal_actions} as it stood before the
    connected-first rewrite: an O(|R_e|²) pair loop with list membership,
    list-building connectivity and Σ-usefulness checks, and the sprawl cap
    applied last. The rewrite must return the same list, order included,
    on every state (the order feeds the planner's RNG). *)

val legal_actions :
  Monsoon_core.Mdp.ctx -> Monsoon_core.Mdp.state -> Monsoon_core.Mdp.action list

(** The list-based query helpers the enumerator used, frozen with it. *)

val connecting :
  Monsoon_relalg.Query.t ->
  Monsoon_relalg.Relset.t ->
  Monsoon_relalg.Relset.t ->
  int list

val interesting_terms :
  Monsoon_relalg.Query.t -> Monsoon_relalg.Relset.t -> Monsoon_relalg.Term.t list
