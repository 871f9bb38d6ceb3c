(* The frozen action enumerator: [Mdp.legal_actions] as it was before the
   connected-first rewrite, kept verbatim so the rewrite can be pinned to
   it list for list, order included. The list-building [Query.connected]
   and [Query.interesting_terms] of that time are inlined below, so the
   oracle does not share the precomputed query masks it checks. Do not
   "improve" it; its value is that it stays exactly what the planner must
   reproduce. *)

open Monsoon_relalg
open Monsoon_stats
open Monsoon_core
open Mdp

let connecting q left right =
  Array.to_list (Query.preds q)
  |> List.filter (fun p ->
         match Predicate.join_sides p with
         | None -> false
         | Some (l, r) ->
           let lm = Term.rels l and rm = Term.rels r in
           (Relset.subset lm left && Relset.subset rm right)
           || (Relset.subset lm right && Relset.subset rm left))
  |> List.map Predicate.id

let connected q left right = connecting q left right <> []

let interesting_terms q mask =
  Array.to_list (Query.terms q)
  |> List.filter (fun tm ->
         Query.preds_of_term q tm.Term.id <> [] && Term.evaluable tm mask)

(* Does R_p already contain a plan covering (at least) this mask? Used to
   avoid planning redundant work. *)
let covered_in_rp state mask =
  List.exists (fun e -> Relset.subset mask (Expr.mask e)) state.r_p

(* Σ over an expression is useful only when it would measure a statistic
   not yet known. *)
let stats_useful ctx state mask =
  List.exists
    (fun tm -> not (Stats_catalog.has_measurement state.stats ~term:tm.Term.id))
    (interesting_terms ctx.query mask)

let legal_actions ctx state =
  let q = ctx.query in
  let planned_joinable =
    List.filter (fun e -> not (Expr.has_stats e)) state.r_p
  in
  (* Join candidates across the three action types, tagged with
     connectivity. *)
  let candidates = ref [] in
  let add_candidate action left right =
    candidates := (action, connected q left right) :: !candidates
  in
  let rec pairs = function
    | [] -> ()
    | m1 :: rest ->
      List.iter
        (fun m2 ->
          if Relset.disjoint m1 m2 then begin
            let union = Relset.union m1 m2 in
            if (not (List.mem union state.r_e)) && not (covered_in_rp state union)
            then add_candidate (Join_exec (m1, m2)) m1 m2
          end)
        rest;
      pairs rest
  in
  pairs state.r_e;
  (* A join plan whose result already exists (mask in R_e) or duplicates
     another plan's coverage is pointless — and executing duplicates would
     leave inner nodes unmaterialized behind the result cache. *)
  let union_useful ~consumed union =
    (not (List.mem union state.r_e))
    && not
         (List.exists
            (fun e ->
              (not (List.memq e consumed)) && Relset.equal (Expr.mask e) union)
            state.r_p)
  in
  let rec plan_pairs = function
    | [] -> ()
    | e1 :: rest ->
      List.iter
        (fun e2 ->
          if
            Relset.disjoint (Expr.mask e1) (Expr.mask e2)
            && union_useful ~consumed:[ e1; e2 ]
                 (Relset.union (Expr.mask e1) (Expr.mask e2))
          then
            add_candidate (Join_planned (e1, e2)) (Expr.mask e1) (Expr.mask e2))
        rest;
      plan_pairs rest
  in
  plan_pairs planned_joinable;
  List.iter
    (fun m ->
      List.iter
        (fun e ->
          if
            Relset.disjoint m (Expr.mask e)
            && union_useful ~consumed:[ e ] (Relset.union m (Expr.mask e))
          then add_candidate (Join_mixed (m, e)) m (Expr.mask e))
        planned_joinable)
    state.r_e;
  let connected_exists = List.exists snd !candidates in
  let joins =
    !candidates
    |> List.filter (fun (_, conn) -> conn || not connected_exists)
    |> List.map fst
  in
  let sigma_exec =
    state.r_e
    |> List.filter (fun m ->
           stats_useful ctx state m
           && not
                (List.exists
                   (fun e -> Expr.has_stats e && Relset.equal (Expr.mask e) m)
                   state.r_p))
    |> List.map (fun m -> Add_stats_of_exec m)
  in
  let sigma_wrap =
    planned_joinable
    |> List.filter (fun e -> stats_useful ctx state (Expr.mask e))
    |> List.map (fun e -> Wrap_stats e)
  in
  let execute = if state.r_p = [] then [] else [ Execute ] in
  (* Plan-sprawl cap: with two pending plans, only plan-modifying moves and
     EXECUTE are offered — materializing large sets of speculative
     subplans in one step is never useful and bloats the search space. *)
  let opens_new_plan = function
    | Add_stats_of_exec _ | Join_exec _ -> true
    | Wrap_stats _ | Join_planned _ | Join_mixed _ | Execute -> false
  in
  let all = joins @ sigma_exec @ sigma_wrap @ execute in
  if List.length state.r_p >= 2 then
    List.filter (fun a -> not (opens_new_plan a)) all
  else all
