open Monsoon_storage
open Monsoon_relalg
open Monsoon_stats

type state = {
  r_p : Expr.t list;
  r_e : Relset.t list;
  stats : Stats_catalog.t;
}

type action =
  | Add_stats_of_exec of Relset.t
  | Wrap_stats of Expr.t
  | Join_exec of Relset.t * Relset.t
  | Join_planned of Expr.t * Expr.t
  | Join_mixed of Relset.t * Expr.t
  | Execute

type ctx = { query : Query.t; raw_counts : float array }

let make_ctx catalog query =
  let raw_counts =
    Array.map
      (fun r ->
        float_of_int (Table.cardinality (Catalog.find catalog r.Query.table)))
      (Query.rels query)
  in
  { query; raw_counts }

let init_state ctx =
  { r_p = [];
    r_e = List.init (Query.n_rels ctx.query) Relset.singleton;
    stats = Stats_catalog.create () }

let is_terminal ctx state = List.mem (Query.all_mask ctx.query) state.r_e

let sort_plans plans = List.sort_uniq Expr.compare plans

(* Binary search in R_e, which is sorted ascending. *)
let mem_sorted (a : Relset.t array) (m : Relset.t) =
  let lo = ref 0 and hi = ref (Array.length a) and found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = a.(mid) in
    if v = m then found := true
    else if v < m then lo := mid + 1
    else hi := mid
  done;
  !found

(* The candidate order is the generation order reversed (candidates are
   consed on): Join_exec pairs over R_e, then Join_planned pairs over the
   joinable plans, then Join_mixed, each loop in list order. The order
   feeds the planner's RNG, so every byte-identity pin depends on it. *)
let legal_actions ctx state =
  let q = ctx.query in
  let r_e = Array.of_list state.r_e in
  let n_e = Array.length r_e in
  let plans = List.map (fun e -> (e, Expr.mask e)) state.r_p in
  let planned_joinable =
    List.filter (fun (e, _) -> not (Expr.has_stats e)) plans
  in
  (* Plan-sprawl cap: with two pending plans, only plan-modifying moves and
     EXECUTE are offered — materializing large sets of speculative subplans
     in one step is never useful and bloats the search space. *)
  let capped = List.length plans >= 2 in
  (* Does R_p already contain a plan covering (at least) this mask? Used to
     avoid planning redundant work. *)
  let covered union = List.exists (fun (_, m) -> Relset.subset union m) plans in
  (* A join plan whose result already exists (mask in R_e) or duplicates
     another plan's coverage is pointless — and executing duplicates would
     leave inner nodes unmaterialized behind the result cache. *)
  let union_useful ~consumed1 ~consumed2 union =
    (not (mem_sorted r_e union))
    && not
         (List.exists
            (fun (e, m) ->
              e != consumed1 && e != consumed2 && Relset.equal m union)
            plans)
  in
  (* One pass over the three candidate kinds. With [connected_only], a
     candidate is kept only when a join predicate connects its sides; the
     partner mask lets most R_e pairs skip that check. Join_exec
     candidates are only counted, not built, when the cap would drop
     them. Returns the kept candidates (reversed) and whether any was
     seen. *)
  let generate ~connected_only =
    let acc = ref [] and found = ref false in
    let keep left right =
      (not connected_only) || Query.connected q left right
    in
    for i = 0 to n_e - 1 do
      let m1 = r_e.(i) in
      let partners =
        if connected_only then Query.join_partners q m1 else Relset.empty
      in
      for j = i + 1 to n_e - 1 do
        let m2 = r_e.(j) in
        if
          (not (capped && !found))
          && ((not connected_only) || not (Relset.disjoint m2 partners))
          && Relset.disjoint m1 m2
        then begin
          let union = Relset.union m1 m2 in
          if
            (not (mem_sorted r_e union))
            && (not (covered union))
            && keep m1 m2
          then begin
            found := true;
            if not capped then acc := Join_exec (m1, m2) :: !acc
          end
        end
      done
    done;
    let rec plan_pairs = function
      | [] -> ()
      | (e1, m1) :: rest ->
        List.iter
          (fun (e2, m2) ->
            if
              Relset.disjoint m1 m2
              && union_useful ~consumed1:e1 ~consumed2:e2 (Relset.union m1 m2)
              && keep m1 m2
            then begin
              found := true;
              acc := Join_planned (e1, e2) :: !acc
            end)
          rest;
        plan_pairs rest
    in
    plan_pairs planned_joinable;
    Array.iter
      (fun m ->
        List.iter
          (fun (e, me) ->
            if
              Relset.disjoint m me
              && union_useful ~consumed1:e ~consumed2:e (Relset.union m me)
              && keep m me
            then begin
              found := true;
              acc := Join_mixed (m, e) :: !acc
            end)
          planned_joinable)
      r_e;
    (!acc, !found)
  in
  (* Cross products only when no connected candidate exists anywhere —
     counting connected Join_exec candidates the cap then drops. *)
  let joins =
    match generate ~connected_only:true with
    | joins, true -> joins
    | _, false -> fst (generate ~connected_only:false)
  in
  (* Σ over an expression is useful only when it would measure a statistic
     not yet known: some still-unmeasured interesting term lies inside its
     mask. *)
  let unmeasured =
    Array.fold_right
      (fun (term, rels) acc ->
        if Stats_catalog.has_measurement state.stats ~term then acc
        else rels :: acc)
      (Query.interesting_masks q) []
  in
  let stats_useful mask =
    List.exists (fun rels -> Relset.subset rels mask) unmeasured
  in
  let execute = if state.r_p = [] then [] else [ Execute ] in
  let sigma_wrap =
    List.fold_right
      (fun (e, m) acc -> if stats_useful m then Wrap_stats e :: acc else acc)
      planned_joinable execute
  in
  let sigma =
    if capped then sigma_wrap
    else
      Array.fold_right
        (fun m acc ->
          if
            stats_useful m
            && not
                 (List.exists
                    (fun (e, me) -> Expr.has_stats e && Relset.equal me m)
                    plans)
          then Add_stats_of_exec m :: acc
          else acc)
        r_e sigma_wrap
  in
  joins @ sigma

let remove_plan state e =
  List.filter (fun e' -> not (Expr.equal e e')) state.r_p

let apply_plan_edit state action =
  let r_p =
    match action with
    | Add_stats_of_exec m -> Expr.stats (Expr.leaf m) :: state.r_p
    | Wrap_stats e -> Expr.stats e :: remove_plan state e
    | Join_exec (m1, m2) -> Expr.join (Expr.leaf m1) (Expr.leaf m2) :: state.r_p
    | Join_planned (e1, e2) ->
      Expr.join e1 e2 :: remove_plan { state with r_p = remove_plan state e1 } e2
    | Join_mixed (m, e) -> Expr.join (Expr.leaf m) e :: remove_plan state e
    | Execute -> invalid_arg "Mdp.apply_plan_edit: Execute is not a plan edit"
  in
  { state with r_p = sort_plans r_p }

let executed_masks e =
  let inner = Expr.strip_stats e in
  let joins = List.map (fun (a, b) -> Relset.union a b) (Expr.join_nodes inner) in
  List.sort_uniq compare (Expr.mask inner :: joins)

let state_key state =
  let plans = String.concat ";" (List.map Expr.key state.r_p) in
  let execs = String.concat "," (List.map string_of_int state.r_e) in
  let counts =
    Stats_catalog.counts state.stats
    |> List.sort compare
    |> List.map (fun (m, c) -> Printf.sprintf "%d:%.4g" m c)
    |> String.concat ","
  in
  let dists =
    Stats_catalog.distincts state.stats
    |> List.sort compare
    |> List.map (fun (tm, scope, d) ->
           let s =
             match scope with
             | Stats_catalog.Wildcard -> "*"
             | Stats_catalog.For_pred p -> string_of_int p
             | Stats_catalog.For_select -> "s"
           in
           Printf.sprintf "%d@%s:%.4g" tm s d)
    |> String.concat ","
  in
  (* The version counter disambiguates overwrites that the %.4g renderings
     above collapse (same key, same printed value, different history). *)
  Printf.sprintf "P[%s]E[%s]C[%s]D[%s]V[%d]" plans execs counts dists
    (Stats_catalog.version state.stats)

let describe_mask ctx m =
  Expr.describe ctx.query (Expr.leaf m)

(* The one pretty-printer for actions: every rendering (driver trace,
   flight-recorder events, logs) goes through here. *)
let pp_action ctx fmt action =
  match action with
  | Add_stats_of_exec m ->
    Format.fprintf fmt "plan Σ(%s)" (describe_mask ctx m)
  | Wrap_stats e -> Format.fprintf fmt "wrap Σ(%s)" (Expr.describe ctx.query e)
  | Join_exec (m1, m2) ->
    Format.fprintf fmt "plan %s ⨝ %s" (describe_mask ctx m1)
      (describe_mask ctx m2)
  | Join_planned (e1, e2) ->
    Format.fprintf fmt "combine %s ⨝ %s" (Expr.describe ctx.query e1)
      (Expr.describe ctx.query e2)
  | Join_mixed (m, e) ->
    Format.fprintf fmt "attach %s ⨝ %s" (describe_mask ctx m)
      (Expr.describe ctx.query e)
  | Execute -> Format.pp_print_string fmt "EXECUTE"

let describe_action ctx action = Format.asprintf "%a" (pp_action ctx) action
