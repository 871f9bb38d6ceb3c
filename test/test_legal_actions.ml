(* The action enumerator against its frozen oracle: [Mdp.legal_actions]
   must return exactly the list [Legal_actions_oracle.legal_actions]
   returns — same actions, same order, since the order feeds the planner's
   RNG — on random simulated walks over every query of the four
   workloads, on states real MCTS searches visit (capped and deep-R_e
   states included), and on a query whose only joins are cross
   products. The query masks the enumerator relies on are checked against
   the list-based definitions they replaced. *)

open Monsoon_util
open Monsoon_relalg
open Monsoon_stats
open Monsoon_core
open Monsoon_workloads
open Monsoon_oracles

let workloads =
  lazy
    [ Imdb.workload { Imdb.seed = 3; scale = 0.02 };
      Tpch.workload { Tpch.seed = 3; scale = 0.02; skew = Tpch.Plain };
      Ott.workload { Ott.seed = 3; scale = 0.05; domain = 20 };
      Udf_bench.workload
        { Udf_bench.seed = 3; imdb_scale = 0.02; tpch_scale = 0.02 } ]

let show ctx acts =
  String.concat " | " (List.map (Mdp.describe_action ctx) acts)

(* [None] when the two enumerators agree, else a description of the
   first difference. *)
let mismatch ctx state =
  let got = Mdp.legal_actions ctx state in
  let want = Legal_actions_oracle.legal_actions ctx state in
  if got = want then None
  else
    Some
      (Printf.sprintf "%s on %s:\n  got  %s\n  want %s"
         (Query.name ctx.Mdp.query) (Mdp.state_key state) (show ctx got)
         (show ctx want))

(* A random simulated episode (restarting at terminal states), checking
   every state on the way. *)
let walk_ok ~seed ~steps ctx =
  let sim = Simulator.create ctx Prior.spike_and_slab (Rng.create seed) in
  let rng = Rng.create (seed * 31 + 7) in
  let rec go state n =
    n >= steps
    ||
    if Mdp.is_terminal ctx state then go (Mdp.init_state ctx) (n + 1)
    else
      match mismatch ctx state with
      | Some msg -> QCheck.Test.fail_report msg
      | None ->
        let acts = Mdp.legal_actions ctx state in
        let a = List.nth acts (Rng.int rng (List.length acts)) in
        go (fst (Simulator.step sim state a)) (n + 1)
  in
  go (Mdp.init_state ctx) 0

let walk_property (w : Workload.t) =
  QCheck.Test.make ~count:4
    ~name:(Printf.sprintf "random walks match the oracle on every %s query"
             w.Workload.name)
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun (_, q) ->
          walk_ok ~seed ~steps:40 (Mdp.make_ctx w.Workload.catalog q))
        w.Workload.queries)

(* The precomputed query masks behind the enumerator against the
   list-based definitions it replaced, on random mask pairs. *)
let mask_property (w : Workload.t) =
  QCheck.Test.make ~count:20
    ~name:(Printf.sprintf "query masks match the oracle on every %s query"
             w.Workload.name)
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun (_, q) ->
          let full = Query.all_mask q in
          List.for_all
            (fun _ ->
              let left = Rng.int rng (full + 1) in
              let right = Rng.int rng (full + 1) land lnot left in
              let ids = List.map (fun tm -> tm.Term.id) in
              Query.connecting q left right
              = Legal_actions_oracle.connecting q left right
              && Query.connected q left right
                 = (Legal_actions_oracle.connecting q left right <> [])
              && ids (Query.interesting_terms q left)
                 = ids (Legal_actions_oracle.interesting_terms q left))
            (List.init 20 Fun.id))
        w.Workload.queries)

(* States recorded from real planner calls: iq31 (7 instances) and iq58
   reach the two-pending-plans cap and R_e sets far larger than the
   instance count. *)
let test_recorded_states () =
  let w = List.hd (Lazy.force workloads) in
  List.iter
    (fun name ->
      let ctx = Mdp.make_ctx w.Workload.catalog (Workload.find_query w name) in
      let states = Plan_states.record ~iterations:100 ~seed:42 ctx in
      let n_rels = Query.n_rels ctx.Mdp.query in
      let capped =
        Array.exists (fun s -> List.length s.Mdp.r_p >= 2) states
      in
      let deep =
        Array.exists (fun s -> List.length s.Mdp.r_e > 2 * n_rels) states
      in
      Alcotest.(check bool) (name ^ ": capped states recorded") true capped;
      Alcotest.(check bool) (name ^ ": deep R_e states recorded") true deep;
      Array.iter
        (fun s ->
          match mismatch ctx s with
          | Some msg -> Alcotest.fail msg
          | None -> ())
        states)
    [ "iq31"; "iq58" ]

(* R ⨝ S on a predicate; T and U share one with each other but none with
   R or S. From {RS} plus the base instances, the only join left is a
   cross product, which must come from the fallback path. *)
let test_cross_product_fallback () =
  let b = Query.Builder.create ~name:"disconnected" in
  let rel name = Query.Builder.rel b ~table:name ~alias:name in
  let r = rel "R" and s = rel "S" and t = rel "T" and u = rel "U" in
  let term rel col = Query.Builder.term b (Udf.identity col) [ (rel, col) ] in
  Query.Builder.join_pred b (term r "a") (term s "a");
  Query.Builder.join_pred b (term t "b") (term u "b");
  let q = Query.Builder.build b in
  let ctx = { Mdp.query = q; raw_counts = [| 10.; 20.; 30.; 40. |] } in
  let rs = Relset.of_list [ r; s ] and tu = Relset.of_list [ t; u ] in
  let state =
    { (Mdp.init_state ctx) with
      Mdp.r_e = List.sort compare [ Relset.singleton r; Relset.singleton s;
                                    Relset.singleton t; Relset.singleton u;
                                    rs; tu ] }
  in
  let acts = Mdp.legal_actions ctx state in
  Alcotest.(check bool) "cross product offered" true
    (List.mem (Mdp.Join_exec (rs, tu)) acts);
  Alcotest.(check bool) "no connected pair" false
    (Query.connected q rs tu);
  Alcotest.(check (option string)) "matches the oracle" None
    (mismatch ctx state);
  (* Two pending plans over the disconnected halves: the cap drops
     Join_exec, and the fallback must still offer the planned cross
     product. *)
  let capped =
    { state with
      Mdp.r_e = List.sort compare [ Relset.singleton r; Relset.singleton s;
                                    Relset.singleton t; Relset.singleton u ];
      r_p =
        List.sort_uniq Expr.compare
          [ Expr.join (Expr.base r) (Expr.base s);
            Expr.join (Expr.base t) (Expr.base u) ] }
  in
  Alcotest.(check (option string)) "capped state matches the oracle" None
    (mismatch ctx capped);
  Alcotest.(check bool) "planned cross product offered" true
    (List.exists
       (function Mdp.Join_planned _ -> true | _ -> false)
       (Mdp.legal_actions ctx capped));
  Alcotest.(check bool) "random walks match the oracle" true
    (walk_ok ~seed:9 ~steps:400 ctx)

let () =
  Alcotest.run "legal_actions"
    [ ( "oracle",
        List.map QCheck_alcotest.to_alcotest
          (List.map walk_property (Lazy.force workloads)
          @ List.map mask_property (Lazy.force workloads))
        @ [ Alcotest.test_case "recorded iq31/iq58 planner states" `Quick
              test_recorded_states;
            Alcotest.test_case "cross-product fallback" `Quick
              test_cross_product_fallback ] ) ]
