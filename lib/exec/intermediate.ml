open Monsoon_storage
open Monsoon_relalg

type ids = All | Ids of int array

type part = {
  off : int;
  table : Table.t;
  base : Table.row array;
  ids : ids;
}

type t = {
  mask : Relset.t;
  offsets : int array;
  width : int;
  card : int;
  parts : part array;
  mutable rows : Table.row array option;
}

let table_of q catalog rel =
  Catalog.find catalog (Query.rel_by_id q rel).Query.table

let of_base ?ids q catalog ~base rel =
  let table = table_of q catalog rel in
  let offsets = Array.make (Query.n_rels q) (-1) in
  offsets.(rel) <- 0;
  let ids, card =
    match ids with
    | None -> (All, Array.length base)
    | Some a -> (Ids a, Array.length a)
  in
  { mask = Relset.singleton rel;
    offsets;
    width = Schema.arity (Table.schema table);
    card;
    parts = [| { off = 0; table; base; ids } |];
    rows = None }

let cardinality t = t.card

let col_index q catalog t ~rel ~col =
  if t.offsets.(rel) < 0 then
    invalid_arg (Printf.sprintf "Intermediate.col_index: instance %d absent" rel);
  t.offsets.(rel) + Schema.index_of (Table.schema (table_of q catalog rel)) col

let pair_col_index q catalog a b ~rel ~col =
  if a.offsets.(rel) >= 0 then col_index q catalog a ~rel ~col
  else a.width + col_index q catalog b ~rel ~col

(* Output ids of one part: its base-row id for every emitted pair, read
   through that side's pair buffer [buf]. An "all rows" part (an
   unfiltered scan, hence the only part on its side) takes the buffer's
   prefix as is. *)
let compose buf n (p : part) =
  match p.ids with
  | All -> Array.sub buf 0 n
  | Ids a ->
    let out = Array.make n 0 in
    for k = 0 to n - 1 do
      Array.unsafe_set out k (Array.unsafe_get a (Array.unsafe_get buf k))
    done;
    out

let join a b ~left ~right n =
  assert (Relset.disjoint a.mask b.mask);
  let offsets = Array.copy a.offsets in
  Array.iteri
    (fun i off -> if off >= 0 then offsets.(i) <- a.width + off)
    b.offsets;
  let move buf shift p =
    { p with off = p.off + shift; ids = Ids (compose buf n p) }
  in
  { mask = Relset.union a.mask b.mask;
    offsets;
    width = a.width + b.width;
    card = n;
    parts =
      Array.append
        (Array.map (move left 0) a.parts)
        (Array.map (move right a.width) b.parts);
    rows = None }

let build_rows t =
  match t.parts with
  | [| { ids = All; base; _ } |] -> base
  | [| { ids = Ids a; base; _ } |] -> Array.map (fun i -> base.(i)) a
  | parts ->
    let arity = Array.map (fun p -> Schema.arity (Table.schema p.table)) parts in
    Array.init t.card (fun k ->
        let row = Array.make t.width Value.Null in
        Array.iteri
          (fun j p ->
            let i = match p.ids with All -> k | Ids a -> a.(k) in
            Array.blit p.base.(i) 0 row p.off arity.(j))
          parts;
        row)

let rows t =
  match t.rows with
  | Some r -> r
  | None ->
    let r = build_rows t in
    t.rows <- Some r;
    r

let part_of_slot t slot =
  let rec go i =
    let p = t.parts.(i) in
    if slot >= p.off && slot < p.off + Schema.arity (Table.schema p.table)
    then (p, slot - p.off)
    else go (i + 1)
  in
  go 0
