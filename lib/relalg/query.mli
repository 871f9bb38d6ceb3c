(** Query intermediate representation.

    A query is a set of base relation *instances* (the same catalog table may
    appear several times, as [o1]/[o2] in the paper's fraud example) plus a
    conjunction of partially obscured predicates over terms. Join ordering is
    the optimization problem; projections/aggregates are irrelevant to it and
    live outside this IR. *)

type rel = { id : int; table : string; alias : string }

type t

val name : t -> string
val rels : t -> rel array
val rel_by_id : t -> int -> rel
val n_rels : t -> int
val all_mask : t -> Relset.t
val preds : t -> Predicate.t array
val pred : t -> int -> Predicate.t
val terms : t -> Term.t array
(** All distinct terms, indexed by term id. *)

val term : t -> int -> Term.t

val evaluable_preds : t -> Relset.t -> int list
(** Ids of predicates checkable on an expression covering the mask. *)

val newly_evaluable : t -> left:Relset.t -> right:Relset.t -> int list
(** Predicates that become checkable when two disjoint expressions are
    joined: evaluable on the union but on neither side alone. *)

val connecting : t -> Relset.t -> Relset.t -> int list
(** Join predicates usable as equi-join conditions between the two sides:
    one term entirely within [left], the other entirely within [right].
    A subset of {!newly_evaluable}; the rest are applied as post-join
    filters. *)

val connected : t -> Relset.t -> Relset.t -> bool
(** [connecting t left right <> []], without building the list. Both scan
    the join predicates' (left rels, right rels) masks, computed once by
    {!Builder.build}; this one allocates nothing. *)

val join_partners : t -> Relset.t -> Relset.t
(** Union of the partner sides of every join predicate with one side
    inside the mask. [connected t left right] implies that [right] meets
    [join_partners t left], so the planner uses it to skip pairs without
    calling {!connected}. *)

val preds_of_term : t -> int -> int list
(** Predicates mentioning the term. *)

val select_preds_of_rel : t -> int -> int list
(** Single-instance selection predicates pushed into the scan of a rel. *)

val interesting_terms : t -> Relset.t -> Term.t list
(** Terms that participate in at least one predicate and are evaluable on
    the mask — the ones a Σ pass over such an expression measures — in id
    order. *)

val interesting_masks : t -> (int * Relset.t) array
(** Every term that participates in at least one predicate, as
    [(term id, rels)] in id order, computed once by {!Builder.build}: the
    term is interesting on a mask iff its rels are a subset of it. Shared;
    do not mutate. *)

(** Incremental construction. *)
module Builder : sig
  type query := t
  type t

  val create : name:string -> t

  val rel : t -> table:string -> alias:string -> int
  (** Registers a relation instance, returning its id. *)

  val term : t -> Udf.t -> (int * string) list -> Term.t
  (** Creates a term over previously registered instances. Reuse the returned
      value to share one term across several predicates. *)

  val join_pred : t -> Term.t -> Term.t -> unit
  (** Adds [l = r]. The two terms must span disjoint, non-empty instance
      sets. *)

  val select_pred : t -> Term.t -> Monsoon_storage.Value.t -> unit

  val build : t -> query
  (** Validates and freezes. Raises [Invalid_argument] on an ill-formed
      query (no instances, dangling ids, overlapping join sides). *)
end
