(** The row-layout intermediate of the frozen {!Row_engine}: a
    materialized relation stored as its concatenated boxed tuples. A
    private copy, so the oracle's semantics stay fixed whatever
    representation {!Monsoon_exec.Intermediate} uses.

    A tuple of an intermediate covering instances \{i, j, ...\} is the
    concatenation of one full row from each instance's base table, laid out
    in a fixed per-intermediate order recorded in [offsets]. *)

open Monsoon_storage
open Monsoon_relalg

type t = {
  mask : Relset.t;
  offsets : int array;  (** indexed by instance id; -1 when absent *)
  width : int;
  rows : Table.row array;
}

val of_base : Query.t -> Catalog.t -> rows:Table.row array -> int -> t
(** Wraps rows of a single instance's base table (possibly filtered). *)

val cardinality : t -> int

val col_index : Query.t -> Catalog.t -> t -> rel:int -> col:string -> int
(** Absolute slot of [rel.col] in this intermediate's tuples. Raises
    [Not_found] for unknown columns and [Invalid_argument] if [rel] is not
    covered. *)

val combined_layout : t -> t -> Relset.t * int array * int
(** Layout (mask, offsets, width) of the join of two disjoint
    intermediates, left columns first. *)
