(** Batch views for the vectorized executor.

    A chunk pairs a materialized relation ({!Intermediate.t}: base-row ids
    per instance, no tuples) with gather-once typed
    {!Monsoon_storage.Column} views and selection-vector machinery. The
    executor's vectorized operators (filtered scan, hash-join build/probe,
    cross product, Σ pass) work on chunks.

    Representation contract for {!column}: each slot is gathered at most
    once per chunk, straight from the owning base table's cached column
    through the intermediate's ids. [Ints]/[Floats] gather into a fresh
    Bigarray and [Dict] gathers its codes and shares the base dictionary;
    a [Boxed] base column is re-materialized with
    {!Monsoon_storage.Column.of_values} over the gathered values, so the
    boxed-or-typed decision is made by the subset, as for any column. An
    unfiltered base scan ({!Intermediate.All}) borrows the table's cached
    column itself. *)

open Monsoon_storage

type t

val of_intermediate : Intermediate.t -> t

val source : t -> Intermediate.t
(** The intermediate this chunk views. *)

val column : t -> int -> Column.t
(** Column at an absolute slot, gathered on first access. *)

(** {2 Vectorized predicates}

    Index predicates replicating [Value.equal] semantics exactly (NaN
    equals NaN, [0.] equals [-0.], cross-constructor comparisons false). *)

val eq_const : Column.t -> Value.t -> int -> bool
val eq_cols : Column.t -> Column.t -> int -> int -> bool

val key_hash : Column.t -> int -> int64
(** Bucketing hash for join keys: values equal under [Stdlib.compare]
    hash equally (floats normalized), so one hash index serves both build
    and probe sides. Not [Value.hash] — Σ passes use
    {!Monsoon_storage.Column.value_hash} for that. *)

val key_hash_pair : Column.t -> Column.t -> (int -> int) * (int -> int)
(** Cheapest consistent bucketing hashes for one join key's (build, probe)
    column pair: equal values bucket equally across the two sides. When
    both sides share a typed representation the hash is allocation-free
    native-int mixing; otherwise it falls back to {!key_hash}. Safe to
    vary per pair because only bucket assignment depends on it — the
    emitted-row order comes from chain insertion order. *)

(** {2 Selection vectors} *)

type sel = { mutable idx : int array; mutable n : int }

val sel_all : int -> sel
val refine : (int -> bool) -> sel -> unit
val sel_ids : sel -> int array
(** The selected indices, as a fresh array. *)

val sel_eq_const : Column.t -> Value.t -> int -> sel
(** [sel_eq_const col v n] is [sel_all n] refined by [eq_const col v],
    fused into one direct loop over the column representation. *)

val join_ints :
  ?on_index:(head:int array -> next:int array -> unit) ->
  Column.t -> Column.t -> (int -> int -> unit) -> bool
(** [join_ints build probe emit] runs a fully fused chained-bucket hash
    join over two int columns of the same kind, calling [emit bi pi] for
    every key-equal pair — probe-major, latest-insertion-first within
    equal keys (the [Hashtbl.find_all] order). Returns [false] without
    emitting when the columns are not both [Ints] of one kind.

    [?on_index] is called once after the build loop with the chained
    index's [head]/[next] arrays (-1-terminated chains) so a profiler
    can observe bucket-chain shape; pass it only when profiling — the
    arrays must not be mutated. *)
