(* The benchmark's metric arithmetic: the tail-rank rule, what counts as a
   failed query, and how timeouts are charged. *)

let close = Alcotest.float 1e-9
let ok latency cost = { Metrics.latency; cost; status = Metrics.Ok }
let timed_out latency cost = { Metrics.latency; cost; status = Metrics.Timed_out }
let errored why = { Metrics.latency = 0.5; cost = 0.0; status = Metrics.Errored why }
let seconds n = List.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check close "odd count" 2.0 (Metrics.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even count" 2.5 (Metrics.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Metrics.median: no samples")
    (fun () -> ignore (Metrics.median []))

let test_tail_rank () =
  (* 60 samples 1..60: the 50th smallest has exactly ten beyond it. *)
  (match Metrics.tail (List.rev (seconds 60)) with
  | None -> Alcotest.fail "60 samples have a tail"
  | Some t ->
    Alcotest.check close "value" 50.0 t.Metrics.value;
    Alcotest.check close "rank" (100.0 *. 50.0 /. 60.0) t.Metrics.rank;
    Alcotest.(check int) "samples" 60 t.Metrics.samples);
  (* 1000 samples: p99, ten beyond. *)
  (match Metrics.tail (seconds 1000) with
  | None -> Alcotest.fail "1000 samples have a tail"
  | Some t ->
    Alcotest.check close "p99 value" 990.0 t.Metrics.value;
    Alcotest.check close "p99 rank" 99.0 t.Metrics.rank);
  (* 11 samples: the smallest is the only one with ten beyond. *)
  (match Metrics.tail (seconds 11) with
  | None -> Alcotest.fail "11 samples have a tail"
  | Some t -> Alcotest.check close "minimum" 1.0 t.Metrics.value);
  Alcotest.(check bool) "10 samples have no tail" true (Metrics.tail (seconds 10) = None)

let test_tail_ties () =
  (* Ranks are positions, not values: ties at the top still leave ten
     samples beyond the reported one. *)
  match Metrics.tail (List.init 20 (fun i -> if i < 5 then 1.0 else 7.0)) with
  | None -> Alcotest.fail "20 samples have a tail"
  | Some t -> Alcotest.check close "tied value" 7.0 t.Metrics.value

let test_failed_share () =
  let samples =
    [ ok 0.1 10.0; timed_out 0.2 0.0; errored "HTTP 429"; errored "transport";
      ok 0.1 20.0 ]
  in
  Alcotest.(check int) "timeouts, errors and non-200s fail" 3 (Metrics.failed samples);
  Alcotest.check close "over attempted" 0.6 (Metrics.failed_share samples);
  Alcotest.check close "no samples" 0.0 (Metrics.failed_share []);
  Alcotest.check close "all ok" 0.0 (Metrics.failed_share [ ok 0.1 1.0 ])

let test_objects_charge_budget () =
  let budget = 1e6 in
  Alcotest.check close "ok costs as charged" 15.0
    (Metrics.objects_per_query ~budget [ ok 0.1 10.0; ok 0.1 20.0 ]);
  Alcotest.check close "a timeout is charged the budget, not its partial cost"
    ((10.0 +. budget) /. 2.0)
    (Metrics.objects_per_query ~budget [ ok 0.1 10.0; timed_out 0.1 123.0 ]);
  Alcotest.check close "errors charge nothing observable" 10.0
    (Metrics.objects_per_query ~budget [ ok 0.1 10.0; errored "HTTP 500" ]);
  Alcotest.(check bool) "nothing charged" true
    (Float.is_nan (Metrics.objects_per_query ~budget [ errored "transport" ]))

let () =
  Alcotest.run "perfbench-metrics"
    [ ( "metrics",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail rank rule" `Quick test_tail_rank;
          Alcotest.test_case "tail ties" `Quick test_tail_ties;
          Alcotest.test_case "failed share" `Quick test_failed_share;
          Alcotest.test_case "objects charge the budget on timeout" `Quick
            test_objects_charge_budget ] ) ]
