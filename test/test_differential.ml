(* Old-vs-new engine equivalence: the vectorized columnar {!Executor}
   against the frozen row-at-a-time {!Row_engine}, over an identical
   sequence of EXECUTE steps per (workload, query, plan, budget,
   environment) cell. Everything observable must be bit-identical: charged
   cost, [stat_obs] (counts, distincts, stats_cost, obs_nodes in completion
   order), result rows, total produced, Σ objects, remaining budget, and
   which exception (Timeout / fault / deadline) ends a step. *)

open Monsoon_util
open Monsoon_storage
open Monsoon_relalg
open Monsoon_workloads
module E = Monsoon_exec.Executor
module R = Monsoon_oracles.Row_engine

(* One fingerprint string per step: hex floats are bit-exact, Expr.key is
   shape-exact, and string equality gives readable Alcotest diffs. *)
let fp_counts cs =
  String.concat ","
    (List.map (fun (m, c) -> Printf.sprintf "%d=%h" (m : Relset.t) c) cs)

let fp_distincts ds =
  String.concat ","
    (List.map (fun (tm, d) -> Printf.sprintf "%d=%h" tm d) ds)

let fp_nodes ns =
  String.concat ","
    (List.map (fun (e, c) -> Printf.sprintf "%s=%h" (Expr.key e) c) ns)

let fp_rows rows =
  (* Cardinality plus a content hash: full row dumps would drown the diff. *)
  Printf.sprintf "%d#%Lx" (Array.length rows)
    (Array.fold_left
       (fun acc row ->
         Array.fold_left
           (fun acc v -> Hashing.combine acc (Value.hash v))
           (Hashing.combine acc 17L) row)
       0L rows)

let run_new ?env cat q ~budget exprs =
  let bud = E.budget budget in
  let exec = E.create ?env cat q bud in
  let steps =
    List.map
      (fun e ->
        match E.execute exec e with
        | cost, obs ->
          Printf.sprintf "cost=%h counts=[%s] dist=[%s] sc=%h nodes=[%s] rows=%s"
            cost
            (fp_counts obs.E.obs_counts)
            (fp_distincts obs.E.obs_distincts)
            obs.E.obs_stats_cost
            (fp_nodes obs.E.obs_nodes)
            (fp_rows (E.result_rows exec e))
        | exception E.Timeout -> "timeout"
        | exception Fault.Injected reason -> "fault:" ^ reason
        | exception Deadline.Expired -> "deadline")
      exprs
  in
  Printf.sprintf "%s | produced=%h sigma=%h left=%h"
    (String.concat " ; " steps)
    (E.total_produced exec) (E.sigma_objects exec) bud.E.remaining

let run_old ?env cat q ~budget exprs =
  let bud = R.budget budget in
  let exec = R.create ?env cat q bud in
  let steps =
    List.map
      (fun e ->
        match R.execute exec e with
        | cost, obs ->
          Printf.sprintf "cost=%h counts=[%s] dist=[%s] sc=%h nodes=[%s] rows=%s"
            cost
            (fp_counts obs.R.obs_counts)
            (fp_distincts obs.R.obs_distincts)
            obs.R.obs_stats_cost
            (fp_nodes obs.R.obs_nodes)
            (fp_rows (R.result_rows exec e))
        | exception R.Timeout -> "timeout"
        | exception Fault.Injected reason -> "fault:" ^ reason
        | exception Deadline.Expired -> "deadline")
      exprs
  in
  Printf.sprintf "%s | produced=%h sigma=%h left=%h"
    (String.concat " ; " steps)
    (R.total_produced exec) (R.sigma_objects exec) bud.R.remaining

let check_cell ~label ?env_new ?env_old cat q ~budget exprs =
  Alcotest.(check string)
    label
    (run_old ?env:env_old cat q ~budget exprs)
    (run_new ?env:env_new cat q ~budget exprs)

(* Step sequences per query: a Σ pass on a base, a join prefix (later
   reused from cache), the full left-deep plan, the full plan again (pure
   cache hit), then Σ on the now-cached prefix, then the reversed join
   order (distinct shape, same final mask). *)
let step_sequences q =
  let n = Query.n_rels q in
  let left_deep order =
    List.fold_left
      (fun acc i -> Expr.join acc (Expr.base i))
      (Expr.base (List.hd order))
      (List.tl order)
  in
  let fwd = List.init n Fun.id in
  let rev = List.rev fwd in
  if n = 1 then [ [ Expr.stats (Expr.base 0); Expr.base 0 ] ]
  else begin
    let prefix = left_deep (List.filteri (fun i _ -> i < 2) fwd) in
    [ [ Expr.stats (Expr.base 0);
        prefix;
        left_deep fwd;
        left_deep fwd;
        Expr.stats prefix;
        left_deep rev ] ]
  end

let check_workload ?(budget = 1e7) ?(queries = max_int) (w : Workload.t) =
  List.iteri
    (fun i (name, q) ->
      if i < queries then
        List.iter
          (fun exprs ->
            check_cell
              ~label:(Printf.sprintf "%s/%s" w.Workload.name name)
              w.Workload.catalog q ~budget exprs)
          (step_sequences q))
    w.Workload.queries

let test_tpch () =
  check_workload ~queries:4
    (Tpch.workload { Tpch.seed = 11; scale = 0.05; skew = Tpch.Plain })

let test_tpch_skewed () =
  check_workload ~queries:3
    (Tpch.workload { Tpch.seed = 12; scale = 0.05; skew = Tpch.High })

let test_ott () =
  check_workload ~queries:3
    (Ott.workload { Ott.seed = 13; scale = 0.2; domain = 40 })

let test_imdb () =
  check_workload ~queries:3
    (Imdb.workload { Imdb.seed = 14; scale = 0.05 })

(* Opaque (non-identity) UDF terms force the scalar fallback inside the
   vectorized engine; the fallback must still match the frozen engine. *)
let test_udf_bench () =
  check_workload ~queries:2
    (Udf_bench.workload
       { Udf_bench.seed = 15; imdb_scale = 0.04; tpch_scale = 0.04 })

(* Hostile value semantics: NaN / -0. float join keys, dictionary string
   keys, and a Null-poisoned int column (demoted to the boxed fallback). *)
let tricky_fixture () =
  let cat = Catalog.create () in
  let fvals = [| 1.5; Float.nan; -0.0; 0.0; 2.5; Float.nan; 1.5 |] in
  let svals = [| "ash"; "birch"; "cedar" |] in
  let mk name n offset =
    let schema =
      Schema.make
        [ { Schema.name = "f"; ty = Value.TFloat };
          { Schema.name = "s"; ty = Value.TStr };
          { Schema.name = "n"; ty = Value.TInt } ]
    in
    Table.of_row_array ~name schema
      (Array.init n (fun i ->
           [| Value.Float fvals.((i + offset) mod Array.length fvals);
              Value.Str svals.((i + offset) mod Array.length svals);
              (if (i + offset) mod 7 = 0 then Value.Null else Value.Int (i mod 5))
           |]))
  in
  Catalog.add cat (mk "A" 60 0);
  Catalog.add cat (mk "B" 45 3);
  cat

let tricky_query ~on ~select =
  let b = Query.Builder.create ~name:(Printf.sprintf "tricky-%s" on) in
  let a = Query.Builder.rel b ~table:"A" ~alias:"A" in
  let c = Query.Builder.rel b ~table:"B" ~alias:"B" in
  let ta = Query.Builder.term b (Udf.identity on) [ (a, on) ] in
  let tb = Query.Builder.term b (Udf.identity on) [ (c, on) ] in
  Query.Builder.join_pred b ta tb;
  (match select with
  | Some (col, v) ->
    let ts = Query.Builder.term b (Udf.identity col) [ (a, col) ] in
    Query.Builder.select_pred b ts v
  | None -> ());
  Query.Builder.build b

let test_tricky_values () =
  let cat = tricky_fixture () in
  List.iter
    (fun (on, select) ->
      let q = tricky_query ~on ~select in
      let full = Expr.join (Expr.base 0) (Expr.base 1) in
      check_cell
        ~label:("tricky join on " ^ on)
        cat q ~budget:1e7
        [ Expr.stats (Expr.base 0); Expr.stats (Expr.base 1); full ])
    [ ("f", None);
      ("s", None);
      ("n", None);
      ("f", Some ("s", Value.Str "birch"));
      ("s", Some ("n", Value.Int 2));
      ("n", Some ("f", Value.Float Float.nan)) ]

(* No connecting predicate: the cross-product path. *)
let test_cross_product () =
  let cat = tricky_fixture () in
  let b = Query.Builder.create ~name:"cross" in
  let a = Query.Builder.rel b ~table:"A" ~alias:"A" in
  let _ = Query.Builder.rel b ~table:"B" ~alias:"B" in
  let ts = Query.Builder.term b (Udf.identity "s") [ (a, "s") ] in
  Query.Builder.select_pred b ts (Value.Str "ash");
  let q = Query.Builder.build b in
  check_cell ~label:"cross product" cat q ~budget:1e7
    [ Expr.join (Expr.base 0) (Expr.base 1) ]

(* Budget exhaustion: both engines must stop at exactly the same emitted
   tuple, leaving identical produced totals and remaining budgets. *)
let test_budget_timeout_parity () =
  let w = Tpch.workload { Tpch.seed = 16; scale = 0.05; skew = Tpch.Plain } in
  List.iter
    (fun budget ->
      List.iteri
        (fun i (name, q) ->
          if i < 3 then
            List.iter
              (fun exprs ->
                check_cell
                  ~label:(Printf.sprintf "timeout %s @%g" name budget)
                  w.Workload.catalog q ~budget exprs)
              (step_sequences q))
        w.Workload.queries)
    [ 50.0; 400.0; 3_000.0 ]

(* Fault checkpoints: same spec + same seed must fire at the same draw in
   both engines (an armed plan pins the new engine to the scalar path). *)
let test_fault_parity () =
  let w = Tpch.workload { Tpch.seed = 17; scale = 0.05; skew = Tpch.Plain } in
  let name, q = List.hd w.Workload.queries in
  List.iter
    (fun (spec, seed) ->
      let env_of () =
        Env.with_fault Env.default (Fault.plan spec (Rng.create seed))
      in
      List.iter
        (fun exprs ->
          check_cell
            ~label:(Printf.sprintf "fault %s %s" name (Fault.spec_to_string spec))
            ~env_new:(env_of ()) ~env_old:(env_of ()) w.Workload.catalog q
            ~budget:1e7 exprs)
        (step_sequences q))
    [ ({ Fault.no_faults with Fault.row_rate = 1.0 }, 5);
      ({ Fault.no_faults with Fault.udf_rate = 2e-4 }, 6);
      ({ Fault.no_faults with Fault.udf_rate = 1e-5; row_rate = 1e-5 }, 7);
      (Fault.no_faults, 8) ]

let test_deadline_parity () =
  let w = Tpch.workload { Tpch.seed = 18; scale = 0.05; skew = Tpch.Plain } in
  let _, q = List.hd w.Workload.queries in
  let env () = Env.with_deadline Env.default (Deadline.after 0.0) in
  List.iter
    (fun exprs ->
      check_cell ~label:"expired deadline" ~env_new:(env ()) ~env_old:(env ())
        w.Workload.catalog q ~budget:1e7 exprs)
    (step_sequences q)

(* --- Mixed paths ---

   A vectorized join emits base-row ids; every other consumer (the scalar
   join, a cross product, a multi-key chained join, a row-path Σ pass,
   [result_rows]) must see exactly the tuples the row engine built. Each
   cell also runs the new engine profiled: the profile must not perturb
   the result, every non-Σ node's rows_out must equal the row engine's
   observation of that node, and the node paths are pinned so the cell
   provably exercises the mix it names. *)

let row_engine_nodes ?env cat q exprs =
  let exec = R.create ?env cat q (R.budget 1e7) in
  List.concat_map
    (fun e ->
      match R.execute exec e with
      | _, obs -> obs.R.obs_nodes
      | exception (R.Timeout | Fault.Injected _) -> [])
    exprs

let check_mixed ~label ?(env = fun () -> Env.default) cat q exprs ~paths =
  let prof = Monsoon_exec.Profile.create () in
  check_cell ~label
    ~env_new:(Monsoon_exec.Profile.to_env ~env:(env ()) prof)
    ~env_old:(env ()) cat q ~budget:1e7 exprs;
  let nodes = Monsoon_exec.Profile.nodes prof in
  Alcotest.(check (list string))
    (label ^ ": paths") paths
    (List.map (fun n -> n.Monsoon_exec.Profile.n_path) nodes);
  let fp_node (e, c) = Printf.sprintf "%s=%h" (Expr.key e) c in
  Alcotest.(check (list string))
    (label ^ ": profiled rows_out")
    (List.map fp_node (row_engine_nodes ~env:(env ()) cat q exprs))
    (List.filter_map
       (fun (n : Monsoon_exec.Profile.node) ->
         match n.Monsoon_exec.Profile.n_kind with
         | Monsoon_exec.Profile.Sigma -> None
         | _ -> Some (fp_node (n.Monsoon_exec.Profile.n_expr, n.n_rows_out)))
       nodes)

let udf_workload =
  lazy
    (Udf_bench.workload
       { Udf_bench.seed = 15; imdb_scale = 0.04; tpch_scale = 0.04 })

let imdb_workload = lazy (Imdb.workload { Imdb.seed = 14; scale = 0.05 })

(* uq16: o ⋈ c on identity keys (the fused int join), then ⋈ n through a
   combiner over both o and c — a non-identity key, so the scalar join
   reads boxed rows built from the fused join's ids. Σ over o ⋈ c then
   hashes the combiner per row on the same ids. *)
let test_fast_feeds_scalar_join () =
  let w = Lazy.force udf_workload in
  let q = Workload.find_query w "uq16" in
  let oc = Expr.join (Expr.base 0) (Expr.base 1) in
  check_mixed ~label:"uq16 fast ⋈ scalar" w.Workload.catalog q
    [ Expr.join oc (Expr.base 2); Expr.stats oc ]
    ~paths:[ "sel_eq_const"; "raw"; "join_ints"; "raw"; "scalar"; "mixed" ]

(* t ⋈ mc (fused), then a cross product with a filtered company_name: the
   cross product walks the composed ids of one side and a selection
   vector's ids of the other. *)
let test_fast_feeds_cross () =
  let w = Lazy.force imdb_workload in
  let b = Query.Builder.create ~name:"fast-cross" in
  let t = Query.Builder.rel b ~table:"title" ~alias:"t" in
  let mc = Query.Builder.rel b ~table:"movie_companies" ~alias:"mc" in
  let cn = Query.Builder.rel b ~table:"company_name" ~alias:"cn" in
  let at rel col = Query.Builder.term b (Udf.identity col) [ (rel, col) ] in
  Query.Builder.join_pred b (at t "id") (at mc "movie_id");
  Query.Builder.select_pred b (at t "kind_id") (Value.Int 1);
  Query.Builder.select_pred b (at cn "country_code") (Value.Int 3);
  let q = Query.Builder.build b in
  let tmc = Expr.join (Expr.base 0) (Expr.base 1) in
  check_mixed ~label:"fast ⋈ cross" w.Workload.catalog q
    [ Expr.join tmc (Expr.base 2); Expr.stats (Expr.join tmc (Expr.base 2)) ]
    ~paths:[ "sel_eq_const"; "raw"; "join_ints"; "sel_eq_const"; "cross"; "column" ]

(* t ⋈ mi (fused), then ⋈ mk on two keys at once (t.id and mi.movie_id
   both equal mk.movie_id): the chained multi-key join over composed ids,
   with and without an armed fault plan pinning everything, Σ included,
   to the row path. *)
let chained_query () =
  let b = Query.Builder.create ~name:"multi-key" in
  let t = Query.Builder.rel b ~table:"title" ~alias:"t" in
  let mi = Query.Builder.rel b ~table:"movie_info" ~alias:"mi" in
  let mk = Query.Builder.rel b ~table:"movie_keyword" ~alias:"mk" in
  let at rel col = Query.Builder.term b (Udf.identity col) [ (rel, col) ] in
  Query.Builder.join_pred b (at t "id") (at mi "movie_id");
  Query.Builder.join_pred b (at t "id") (at mk "movie_id");
  Query.Builder.join_pred b (at mi "movie_id") (at mk "movie_id");
  Query.Builder.select_pred b (at mi "info_type_id") (Value.Int 2);
  Query.Builder.build b

let chained_steps =
  let tmi = Expr.join (Expr.base 0) (Expr.base 1) in
  [ Expr.join tmi (Expr.base 2); Expr.stats tmi;
    Expr.stats (Expr.join tmi (Expr.base 2)) ]

let test_fast_feeds_multikey () =
  let w = Lazy.force imdb_workload in
  check_mixed ~label:"fast ⋈ multi-key" w.Workload.catalog (chained_query ())
    chained_steps
    ~paths:[ "raw"; "sel_eq_const"; "join_ints"; "raw"; "chained"; "column";
             "column" ]

let test_armed_sigma_row_pass () =
  let w = Lazy.force imdb_workload in
  List.iter
    (fun (spec, seed) ->
      check_mixed
        ~label:(Printf.sprintf "armed %s" (Fault.spec_to_string spec))
        ~env:(fun () -> Env.with_fault Env.default (Fault.plan spec (Rng.create seed)))
        w.Workload.catalog (chained_query ()) chained_steps
        ~paths:[ "raw"; "scalar"; "scalar"; "raw"; "scalar"; "row"; "row" ])
    [ (Fault.no_faults, 21); ({ Fault.no_faults with Fault.udf_rate = 1e-7 }, 22) ]

(* [result_rows] of whole 3- and 4-instance IMDB queries, in two
   connected left-deep orders each (every join of either order has a
   connecting predicate). *)
let connected_order q first =
  let n = Query.n_rels q in
  let rec grow mask order =
    if List.length order = n then List.rev order
    else
      match
        List.find_opt
          (fun r ->
            (not (Relset.mem r mask))
            && Query.connecting q mask (Relset.singleton r) <> [])
          (List.init n Fun.id)
      with
      | Some r -> grow (Relset.union mask (Relset.singleton r)) (r :: order)
      | None -> []
  in
  grow (Relset.singleton first) [ first ]

let test_imdb_multiway_rows () =
  let w = Lazy.force imdb_workload in
  List.iter
    (fun n_rels ->
      let name, q =
        List.find (fun (_, q) -> Query.n_rels q = n_rels) w.Workload.queries
      in
      List.iter
        (fun first ->
          match connected_order q first with
          | [] -> Alcotest.failf "%s: no connected order from %d" name first
          | r0 :: rest ->
            let plan =
              List.fold_left
                (fun acc r -> Expr.join acc (Expr.base r))
                (Expr.base r0) rest
            in
            let label = Printf.sprintf "%s (%d-way) from %d" name n_rels first in
            check_cell ~label w.Workload.catalog q ~budget:1e7
              [ plan; Expr.stats plan ];
            let exec = E.create w.Workload.catalog q (E.budget 1e7) in
            ignore (E.execute exec plan);
            Alcotest.(check bool)
              (label ^ ": non-empty") true
              (Array.length (E.result_rows exec plan) > 0))
        [ 0; n_rels - 1 ])
    [ 3; 4 ]

let () =
  Alcotest.run "differential"
    [ ( "engine equivalence",
        [ Alcotest.test_case "tpch" `Quick test_tpch;
          Alcotest.test_case "tpch skewed" `Quick test_tpch_skewed;
          Alcotest.test_case "ott" `Quick test_ott;
          Alcotest.test_case "imdb" `Quick test_imdb;
          Alcotest.test_case "udf bench (opaque terms)" `Quick test_udf_bench;
          Alcotest.test_case "tricky values" `Quick test_tricky_values;
          Alcotest.test_case "cross product" `Quick test_cross_product ] );
      ( "checkpoints",
        [ Alcotest.test_case "budget timeout" `Quick test_budget_timeout_parity;
          Alcotest.test_case "fault plans" `Quick test_fault_parity;
          Alcotest.test_case "deadlines" `Quick test_deadline_parity ] );
      ( "mixed paths",
        [ Alcotest.test_case "fast join feeds scalar join" `Quick
            test_fast_feeds_scalar_join;
          Alcotest.test_case "fast join feeds cross product" `Quick
            test_fast_feeds_cross;
          Alcotest.test_case "fast join feeds multi-key join" `Quick
            test_fast_feeds_multikey;
          Alcotest.test_case "armed-fault row pass" `Quick
            test_armed_sigma_row_pass;
          Alcotest.test_case "imdb 3- and 4-way result rows" `Quick
            test_imdb_multiway_rows ] ) ]
