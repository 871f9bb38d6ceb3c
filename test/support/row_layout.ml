open Monsoon_storage
open Monsoon_relalg

type t = {
  mask : Relset.t;
  offsets : int array;
  width : int;
  rows : Table.row array;
}

let of_base q catalog ~rows rel =
  let table = Catalog.find catalog (Query.rel_by_id q rel).Query.table in
  let offsets = Array.make (Query.n_rels q) (-1) in
  offsets.(rel) <- 0;
  { mask = Relset.singleton rel;
    offsets;
    width = Schema.arity (Table.schema table);
    rows }

let cardinality t = Array.length t.rows

let col_index q catalog t ~rel ~col =
  if t.offsets.(rel) < 0 then
    invalid_arg (Printf.sprintf "Row_layout.col_index: instance %d absent" rel);
  let table = Catalog.find catalog (Query.rel_by_id q rel).Query.table in
  t.offsets.(rel) + Schema.index_of (Table.schema table) col

let combined_layout a b =
  assert (Relset.disjoint a.mask b.mask);
  let n = Array.length a.offsets in
  let offsets = Array.make n (-1) in
  for i = 0 to n - 1 do
    if a.offsets.(i) >= 0 then offsets.(i) <- a.offsets.(i)
    else if b.offsets.(i) >= 0 then offsets.(i) <- a.width + b.offsets.(i)
  done;
  (Relset.union a.mask b.mask, offsets, a.width + b.width)
