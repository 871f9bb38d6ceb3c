(** Materialized (intermediate) relations at runtime.

    Representation contract: an intermediate covering instances
    \{i, j, ...\} stores, per covered instance, the ids of its base-table
    rows — one id per output tuple, in emission order — never the tuples
    themselves. An unfiltered base scan keeps the {!All} marker instead of
    an identity array. The logical tuple layout is unchanged: tuple [k] is
    the concatenation of one full base row per instance, at the slots
    recorded in [offsets] (left operand's columns first after a join).

    Boxed tuples exist only on demand: {!rows} builds them once and caches
    them in the intermediate (an executor is single-domain). Typed columns
    are gathered through the ids by {!Chunk.column}. *)

open Monsoon_storage
open Monsoon_relalg

type ids =
  | All  (** every row of the base table, in table order *)
  | Ids of int array  (** base-row index per tuple *)

type part = {
  off : int;  (** first slot of this instance's columns *)
  table : Table.t;
  base : Table.row array;  (** the table's rows as scanned *)
  ids : ids;
}

type t = private {
  mask : Relset.t;
  offsets : int array;  (** indexed by instance id; -1 when absent *)
  width : int;
  card : int;
  parts : part array;  (** covered instances, in slot order *)
  mutable rows : Table.row array option;  (** {!rows} cache *)
}

val of_base :
  ?ids:int array -> Query.t -> Catalog.t -> base:Table.row array -> int -> t
(** One instance's base table [base] (its rows as scanned), restricted to
    [ids] when given (a filtered scan), else all of it. *)

val join : t -> t -> left:int array -> right:int array -> int -> t
(** [join a b ~left ~right n]: the join output whose [k]-th tuple
    ([k < n]) pairs tuple [left.(k)] of [a] with tuple [right.(k)] of
    [b]. Layout: [a]'s columns, then [b]'s. *)

val cardinality : t -> int

val rows : t -> Table.row array
(** The tuples, built on first call and cached. A single-instance
    intermediate's tuples are its base rows themselves (not copies). *)

val col_index : Query.t -> Catalog.t -> t -> rel:int -> col:string -> int
(** Absolute slot of [rel.col] in this intermediate's tuples. Raises
    [Not_found] for unknown columns and [Invalid_argument] if [rel] is not
    covered. *)

val pair_col_index :
  Query.t -> Catalog.t -> t -> t -> rel:int -> col:string -> int
(** {!col_index} in the layout of [join a b]. *)

val part_of_slot : t -> int -> part * int
(** The instance owning an absolute slot, and the column's index in that
    instance's base schema. *)
