open Monsoon_util
open Monsoon_storage
open Monsoon_relalg
open Monsoon_exec

(* A small two-table join fixture with known contents. *)
let two_table_query ?(select_const = None) () =
  let b = Query.Builder.create ~name:"two" in
  let r = Query.Builder.rel b ~table:"R" ~alias:"R" in
  let s = Query.Builder.rel b ~table:"S" ~alias:"S" in
  let fr = Query.Builder.term b (Udf.identity "k") [ (r, "k") ] in
  let fs = Query.Builder.term b (Udf.identity "k") [ (s, "k") ] in
  Query.Builder.join_pred b fr fs;
  (match select_const with
  | Some v ->
    let fv = Query.Builder.term b (Udf.identity "v") [ (r, "v") ] in
    Query.Builder.select_pred b fv (Value.Int v)
  | None -> ());
  Query.Builder.build b

let two_table_catalog rng ~n_r ~n_s ~d =
  let cat = Catalog.create () in
  Catalog.add cat
    (Fixtures.make_table rng ~name:"R" ~cols:[ ("k", d); ("v", 3) ] n_r);
  Catalog.add cat (Fixtures.make_table rng ~name:"S" ~cols:[ ("k", d) ] n_s);
  cat

let full_join _q = Expr.join (Expr.base 0) (Expr.base 1)

let test_join_matches_brute_force () =
  let rng = Rng.create 31 in
  let q = two_table_query () in
  let cat = two_table_catalog rng ~n_r:200 ~n_s:150 ~d:20 in
  let exec = Executor.create cat q (Executor.budget 1e6) in
  let _cost, _obs = Executor.execute exec (full_join q) in
  let rows = Executor.result_rows exec (full_join q) in
  Alcotest.(check int) "same cardinality as brute force"
    (Fixtures.brute_force_count cat q)
    (Array.length rows)

let test_join_root_not_charged () =
  (* A complete 2-way query consists only of its (free) root join. *)
  let rng = Rng.create 32 in
  let q = two_table_query () in
  let cat = two_table_catalog rng ~n_r:100 ~n_s:100 ~d:10 in
  let exec = Executor.create cat q (Executor.budget 1e6) in
  let cost, _ = Executor.execute exec (full_join q) in
  Alcotest.(check (float 0.0)) "zero cost" 0.0 cost

let test_scan_filter_applied () =
  let rng = Rng.create 33 in
  let q = two_table_query ~select_const:(Some 1) () in
  let cat = two_table_catalog rng ~n_r:300 ~n_s:100 ~d:10 in
  let exec = Executor.create cat q (Executor.budget 1e6) in
  let _ = Executor.execute exec (full_join q) in
  (* All result rows must satisfy the filter. *)
  let rows = Executor.result_rows exec (full_join q) in
  let v_idx =
    Intermediate.col_index q cat
      (Option.get (Executor.materialized exec (Query.all_mask q)))
      ~rel:0 ~col:"v"
  in
  Array.iter
    (fun row -> Alcotest.(check int) "filtered" 1 (Value.as_int row.(v_idx)))
    rows;
  Alcotest.(check int) "matches brute force" (Fixtures.brute_force_count cat q)
    (Array.length rows)

let test_budget_timeout () =
  let rng = Rng.create 34 in
  let q = two_table_query () in
  (* d = 1: the join is a full cross product of matches; 500 * 500 rows. *)
  let cat = two_table_catalog rng ~n_r:500 ~n_s:500 ~d:1 in
  let exec = Executor.create cat q (Executor.budget 1000.0) in
  Alcotest.check_raises "timeout" Executor.Timeout (fun () ->
      ignore (Executor.execute exec (full_join q)))

let test_intermediate_cache_reused () =
  let rng = Rng.create 35 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:1000 ~d_s:1 ~d_t:10 in
  let exec = Executor.create cat q (Executor.budget 1e8) in
  let rs = Expr.join (Expr.base 0) (Expr.base 1) in
  let c1, _ = Executor.execute exec rs in
  Alcotest.(check bool) "first run charged" true (c1 > 0.0);
  let c2, _ = Executor.execute exec rs in
  Alcotest.(check (float 0.0)) "cached rerun free" 0.0 c2;
  (* A plan reusing the cached intermediate as a leaf only pays the top. *)
  let top = Expr.join (Expr.leaf (Relset.of_list [ 0; 1 ])) (Expr.base 2) in
  let c3, _ = Executor.execute exec top in
  Alcotest.(check (float 0.0)) "root of full query free" 0.0 c3

let test_sec23_three_way_ground_truth () =
  let rng = Rng.create 36 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:2000 ~d_s:1 ~d_t:5 in
  let exec = Executor.create cat q (Executor.budget 1e8) in
  let plan = Expr.join (Expr.join (Expr.base 0) (Expr.base 1)) (Expr.base 2) in
  let _ = Executor.execute exec plan in
  Alcotest.(check int) "matches brute force"
    (Fixtures.brute_force_count cat q)
    (Array.length (Executor.result_rows exec plan))

let test_observed_counts () =
  let rng = Rng.create 37 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:2000 ~d_s:1 ~d_t:5 in
  let exec = Executor.create cat q (Executor.budget 1e8) in
  let inner = Expr.join (Expr.base 0) (Expr.base 1) in
  let plan = Expr.join inner (Expr.base 2) in
  let cost, obs = Executor.execute exec plan in
  (* Observations cover the two join masks (plus any filtered scans). *)
  let c_of m = List.assoc_opt m obs.Executor.obs_counts in
  let inner_card =
    float_of_int
      (Intermediate.cardinality (Option.get (Executor.materialized exec (Expr.mask inner))))
  in
  Alcotest.(check (option (float 0.0))) "inner count observed" (Some inner_card)
    (c_of (Expr.mask inner));
  Alcotest.(check bool) "full count observed" true (c_of (Query.all_mask q) <> None);
  Alcotest.(check (float 0.0)) "cost = inner cardinality" inner_card cost

let test_sigma_measures_distincts () =
  let rng = Rng.create 38 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:1000 ~d_s:7 ~d_t:4 in
  let exec = Executor.create cat q (Executor.budget 1e8) in
  let cost, obs = Executor.execute exec (Expr.stats (Expr.base 1)) in
  (* Σ(S) measures d(F2, S): term id 1. *)
  (match List.assoc_opt 1 obs.Executor.obs_distincts with
  | Some d ->
    let truth = float_of_int (Table.distinct_exact (Catalog.find cat "S") "b") in
    Alcotest.(check bool) "HLL close to exact" true
      (abs_float (d -. truth) /. truth < 0.05)
  | None -> Alcotest.fail "no distinct measured for F2");
  (* Cost of Σ over a base table: one pass over its rows. *)
  let c_s = float_of_int (Table.cardinality (Catalog.find cat "S")) in
  Alcotest.(check (float 0.0)) "one pass" c_s cost;
  Alcotest.(check (float 0.0)) "all of it is stats cost" c_s obs.Executor.obs_stats_cost

let test_sigma_on_intermediate () =
  let rng = Rng.create 39 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:2000 ~d_s:3 ~d_t:5 in
  let exec = Executor.create cat q (Executor.budget 1e8) in
  let inner = Expr.join (Expr.base 0) (Expr.base 1) in
  let cost, obs = Executor.execute exec (Expr.stats inner) in
  let inner_card =
    float_of_int
      (Intermediate.cardinality (Option.get (Executor.materialized exec (Expr.mask inner))))
  in
  (* Materialize (charged) + extra Σ pass. *)
  Alcotest.(check (float 0.0)) "2x inner" (2.0 *. inner_card) cost;
  (* Terms F1, F2, F3 are all evaluable on R⨝S. *)
  let ids = List.sort compare (List.map fst obs.Executor.obs_distincts) in
  Alcotest.(check (list int)) "terms measured" [ 0; 1; 2 ] ids

let test_cross_product_when_unconnected () =
  (* S and T have no connecting predicate: joining them is a cross
     product. *)
  let rng = Rng.create 40 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:2000 ~d_s:2 ~d_t:2 in
  let exec = Executor.create cat q (Executor.budget 1e8) in
  let st = Expr.join (Expr.base 1) (Expr.base 2) in
  let cost, _ = Executor.execute exec st in
  let c_s = float_of_int (Table.cardinality (Catalog.find cat "S")) in
  let c_t = float_of_int (Table.cardinality (Catalog.find cat "T")) in
  Alcotest.(check (float 0.0)) "|S|*|T|" (c_s *. c_t) cost

(* An unfiltered base scan keeps the "all rows" marker, so its columns are
   the table's own cached ones; a filtered scan and a join gather theirs
   through row ids, and every gathered column equals the column
   materialized from the intermediate's boxed rows — same representation
   (a boxed base column unboxes when the surviving subset allows) and same
   values. *)
let test_columns_through_ids () =
  let schema =
    Schema.make
      [ { Schema.name = "k"; ty = Value.TInt };
        { Schema.name = "s"; ty = Value.TStr };
        { Schema.name = "n"; ty = Value.TInt } ]
  in
  let words = [| "ash"; "birch"; "cedar"; "elm" |] in
  let mk name n =
    Table.of_row_array ~name schema
      (Array.init n (fun i ->
           [| Value.Int (i mod 13);
              Value.Str words.(i mod 4);
              (* Nulls only where s = "elm", which the select drops. *)
              (if i mod 4 = 3 then Value.Null else Value.Int (i mod 5)) |]))
  in
  let cat = Catalog.create () in
  Catalog.add cat (mk "A" 80);
  Catalog.add cat (mk "B" 50);
  let b = Query.Builder.create ~name:"ids" in
  let a = Query.Builder.rel b ~table:"A" ~alias:"A" in
  let c = Query.Builder.rel b ~table:"B" ~alias:"B" in
  let at rel col = Query.Builder.term b (Udf.identity col) [ (rel, col) ] in
  Query.Builder.join_pred b (at a "k") (at c "k");
  Query.Builder.select_pred b (at a "s") (Value.Str "birch");
  let q = Query.Builder.build b in
  let exec = Executor.create cat q (Executor.budget 1e7) in
  ignore (Executor.execute exec (full_join q));
  let inter mask = Option.get (Executor.materialized exec mask) in
  let b_scan = inter (Relset.singleton 1) in
  Alcotest.(check bool) "unfiltered scan keeps the all-rows marker" true
    (b_scan.Intermediate.parts.(0).Intermediate.ids = Intermediate.All);
  let chunk = Chunk.of_intermediate b_scan in
  for slot = 0 to 2 do
    Alcotest.(check bool) "table's cached column reused" true
      (Chunk.column chunk slot == Table.column_at (Catalog.find cat "B") slot)
  done;
  Alcotest.(check bool) "base column n is boxed" true
    (match Table.column_at (Catalog.find cat "A") 2 with
    | Column.Boxed _ -> true
    | _ -> false);
  List.iter
    (fun mask ->
      let inter = inter mask in
      let rows = Intermediate.rows inter in
      let chunk = Chunk.of_intermediate inter in
      let tys = [| Value.TInt; Value.TStr; Value.TInt |] in
      for slot = 0 to inter.Intermediate.width - 1 do
        let got = Chunk.column chunk slot in
        let want =
          Column.of_values tys.(slot mod 3) (Array.map (fun r -> r.(slot)) rows)
        in
        let repr = function
          | Column.Ints _ -> "ints"
          | Column.Floats _ -> "floats"
          | Column.Dict _ -> "dict"
          | Column.Boxed _ -> "boxed"
        in
        Alcotest.(check string) "representation" (repr want) (repr got);
        Array.iteri
          (fun i _ ->
            Alcotest.(check bool) "value" true
              (Value.equal (Column.get want i) (Column.get got i)))
          rows
      done)
    [ Relset.singleton 0; Query.all_mask q ]

(* Property: hash join result always equals the nested-loop oracle. *)
let prop_join_equals_oracle =
  QCheck.Test.make ~name:"hash join == nested loop oracle" ~count:30
    QCheck.(triple (int_range 10 120) (int_range 10 120) (int_range 1 30))
    (fun (n_r, n_s, d) ->
      let rng = Rng.create (n_r + (n_s * 131) + d) in
      let q = two_table_query () in
      let cat = two_table_catalog rng ~n_r ~n_s ~d in
      let exec = Executor.create cat q (Executor.budget 1e7) in
      let _ = Executor.execute exec (full_join q) in
      Array.length (Executor.result_rows exec (full_join q))
      = Fixtures.brute_force_count cat q)

(* Property: three-way plans of either shape produce identical result
   cardinalities. *)
let prop_plan_shape_irrelevant =
  QCheck.Test.make ~name:"plan shape does not change the result" ~count:15
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (d_s, d_t) ->
      let rng = Rng.create ((d_s * 17) + d_t) in
      let q = Fixtures.sec23_query () in
      let cat = Fixtures.sec23_catalog rng ~scale:4000 ~d_s ~d_t in
      let plan1 = Expr.join (Expr.join (Expr.base 0) (Expr.base 1)) (Expr.base 2) in
      let plan2 = Expr.join (Expr.join (Expr.base 0) (Expr.base 2)) (Expr.base 1) in
      let run plan =
        let exec = Executor.create cat q (Executor.budget 1e8) in
        let _ = Executor.execute exec plan in
        Array.length (Executor.result_rows exec plan)
      in
      run plan1 = run plan2)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "exec"
    [ ( "executor",
        [ Alcotest.test_case "join vs brute force" `Quick test_join_matches_brute_force;
          Alcotest.test_case "root not charged" `Quick test_join_root_not_charged;
          Alcotest.test_case "scan filter" `Quick test_scan_filter_applied;
          Alcotest.test_case "budget timeout" `Quick test_budget_timeout;
          Alcotest.test_case "cache reuse" `Quick test_intermediate_cache_reused;
          Alcotest.test_case "3-way ground truth" `Quick test_sec23_three_way_ground_truth;
          Alcotest.test_case "observed counts" `Quick test_observed_counts;
          Alcotest.test_case "sigma distincts" `Quick test_sigma_measures_distincts;
          Alcotest.test_case "sigma on intermediate" `Quick test_sigma_on_intermediate;
          Alcotest.test_case "cross product" `Quick test_cross_product_when_unconnected;
          Alcotest.test_case "columns through ids" `Quick test_columns_through_ids ] );
      ("properties", qc [ prop_join_equals_oracle; prop_plan_shape_irrelevant ]) ]
