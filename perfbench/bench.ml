(* End-to-end MONSOON benchmark. One process runs one workload:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   prints human-readable notes, then as its last line one JSON object with
   [correct], [attempted], [failed] and [metrics]. [--trace 0] measures the
   end-to-end metrics with nothing wrapped; [--trace 1] reruns the workload
   through Layers' timed replay and reports the per-layer split. See
   NOTES.md for the workloads, the metrics and why they were chosen. *)

open Monsoon_util
open Monsoon_relalg
open Monsoon_workloads
open Monsoon_harness
module Driver = Monsoon_core.Driver
module Stats_repo = Monsoon_stats_repo.Stats_repo
module Server = Monsoon_server.Server
module Load_client = Monsoon_server.Load_client
module Recorder = Monsoon_telemetry.Recorder
module Json = Monsoon_telemetry.Json

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

(* A failed output check ends the run: it is never folded into a metric. *)
exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

let note fmt = Printf.printf (fmt ^^ "\n%!")
let out_dir = Filename.concat "perfbench" "out"

(* Set-up is repeated and its median reported, so a change that moves work
   into set-up shows: at least three times, and until a second of set-up
   has been timed, so a set-up of milliseconds is sampled often enough to
   be steady. Every instance but the last is torn down and its heap
   returned before the next starts. *)
let repeat_setup ~discard setup =
  let rec go times =
    let v, dt = Timer.time setup in
    let times = dt :: times in
    if List.length times >= 3 && List.fold_left ( +. ) 0.0 times >= 1.0 then
      (v, Metrics.median times)
    else begin
      discard v;
      Gc.compact ();
      go times
    end
  in
  go []

let query_names lo hi = List.init (hi - lo + 1) (fun i -> Printf.sprintf "iq%d" (lo + i))

let select (w : Workload.t) names =
  List.map (fun n -> (n, Workload.find_query w n)) names

(* The data sets and the planner's RNG streams are fixed; [--seed] picks
   the query order. Plan quality swings with both: one imdb-plan-cold pass
   averaged 9.1k to 18.7k objects per query across eight planner seeds and
   12.6k to 23.9k across five data seeds, and imdb-exec-large's throughput
   spread 18% across data seeds, wider than a run-to-run bound can hold. *)
let planner_seed = 42
let data_seed = 42
let cell_rng name = Runner.cell_rng ~seed:planner_seed ~strategy:"Monsoon" ~query:name

(* Result cardinalities from an independently planned execution: the
   Greedy left-deep plan, with no budget to run out of. It gives the same
   cardinalities as the full-statistics Postgres plan on every query here,
   at a quarter of its time on scale 10. *)
let reference_cards catalog queries =
  let module S = Monsoon_baselines.Strategy in
  let t0 = Timer.now () in
  let cards =
    List.map
      (fun (name, q) ->
        let o = S.greedy.S.run ~rng:(cell_rng name) ~budget:infinity catalog q in
        (name, o.S.result_card))
      queries
  in
  note "reference plans for %d queries: %.2f s, outside set-up and timing"
    (List.length cards) (Timer.now () -. t0);
  cards

let check_card cards name card =
  let expected = List.assoc name cards in
  check (card = expected) "%s: result cardinality %.0f, reference plan gives %.0f"
    name card expected

(* The first line of a [/proc] file that [parse] accepts. *)
let proc_line path parse =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> ( match parse line with Some v -> Some v | None -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Peak resident set of this process, in MB. *)
let peak_rss_mb () =
  match proc_line "/proc/self/status" (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id) with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> nan

let status_of_outcome ~timed_out = if timed_out then Metrics.Timed_out else Metrics.Ok

let end_to_end ~setup_s ~budget ~window samples =
  let latencies = List.map (fun s -> s.Metrics.latency) samples in
  let n = List.length samples in
  let tail =
    match Metrics.tail latencies with
    | Some t -> t
    | None -> raise (Check_failed (Printf.sprintf "only %d samples: no tail percentile" n))
  in
  note "latency_tail_s is p%.1f of %d samples" tail.Metrics.rank tail.Metrics.samples;
  note "failed_share %.4f (%d of %d)" (Metrics.failed_share samples)
    (Metrics.failed samples) n;
  { correct = true;
    attempted = n;
    failed = Metrics.failed samples;
    metrics =
      [ ("setup_s", setup_s, "s");
        ("latency_p50_s", Metrics.median latencies, "s");
        ("latency_tail_s", tail.Metrics.value, "s");
        ("throughput_qps", float_of_int (n - Metrics.failed samples) /. window, "queries/s");
        ("objects_per_query", Metrics.objects_per_query ~budget samples, "objects");
        ("ok_share", 1.0 -. Metrics.failed_share samples, "ratio");
        ("peak_rss_mb", peak_rss_mb (), "MB") ] }

(* Per-layer metrics of a traced run, per replayed query unless a ratio.
   Layers a workload never calls read 0. *)
let per_layer (l : Layers.t) ~overhead ~repo_replay_s ~bytes_per_query ~server =
  let n = float_of_int (max 1 l.Layers.run.Layers.calls) in
  let per c = c.Layers.seconds /. n in
  let calls c = float_of_int c.Layers.calls /. n in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let callbacks =
    List.fold_left ( +. ) 0.0
      (List.map
         (fun c -> c.Layers.seconds)
         [ l.Layers.legal_actions; l.Layers.state_key; l.Layers.is_terminal;
           l.Layers.step; l.Layers.rollout ])
  in
  [ ("mcts.plan_s", per l.Layers.plan, "s");
    ("mcts.plan_calls", calls l.Layers.plan, "count");
    ("mcts.self_s", (l.Layers.plan.Layers.seconds -. callbacks) /. n, "s");
    ("mdp.legal_actions_s", per l.Layers.legal_actions, "s");
    ("mdp.legal_actions_calls", calls l.Layers.legal_actions, "count");
    ( "mdp.actions_per_call",
      ratio (float_of_int l.Layers.actions_returned)
        (float_of_int l.Layers.legal_actions.Layers.calls),
      "count" );
    ("mdp.state_key_s", per l.Layers.state_key, "s");
    ("mdp.state_key_calls", calls l.Layers.state_key, "count");
    ("mdp.is_terminal_s", per l.Layers.is_terminal, "s");
    ("simulator.step_s", per l.Layers.step, "s");
    ("simulator.step_calls", calls l.Layers.step, "count");
    ("simulator.rollout_s", per l.Layers.rollout, "s");
    ("exec.execute_s", per l.Layers.execute, "s");
    ("exec.execute_calls", calls l.Layers.execute, "count");
    ("exec.objects", l.Layers.objects /. n, "objects");
    ("exec.sigma_objects", l.Layers.sigma_objects /. n, "objects");
    ("exec.objects_per_s", ratio l.Layers.objects l.Layers.execute.Layers.seconds, "objects/s");
    ( "driver.residual_s",
      (l.Layers.run.Layers.seconds -. l.Layers.plan.Layers.seconds
     -. l.Layers.execute.Layers.seconds)
      /. n,
      "s" );
    ("stats_repo.replay_s", repo_replay_s, "s");
    ("stats_repo.lookup_s", per l.Layers.lookup, "s");
    ( "stats_repo.hit_ratio",
      ratio (float_of_int l.Layers.hits) (float_of_int l.Layers.lookups),
      "ratio" );
    ("stats_repo.flush_s", per l.Layers.flush, "s");
    ("stats_repo.bytes_per_query", bytes_per_query, "B") ]
  @ server
  @ [ ("trace.overhead_ratio", overhead, "ratio") ]

let no_server =
  [ ("server.queue_wait_s", 0.0, "s");
    ("server.handler_s", 0.0, "s");
    ("server.http_overhead_s", 0.0, "s");
    ("server.requests_per_connection", 0.0, "count") ]

let check_replay name (o : Layers.outcome) ~plan ~cost =
  check
    (String.concat " | " o.Layers.actions = plan)
    "%s: replayed action trace differs from Driver.run" name;
  check (o.Layers.cost = cost) "%s: replayed cost %.0f, Driver.run charged %.0f" name
    o.Layers.cost cost

let write_trace l ~workload ~seed =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
  Layers.write_perfetto l path;
  note "spans written to %s" path

(* --- imdb-plan-cold / imdb-exec-large: Driver.run, one sequential client --- *)

type driver_spec = {
  scale : float;
  iterations : int;
  budget : float;
  names : string list option;  (** [None]: all 60 queries *)
}

(* Whole passes over the query set, each in a fresh seeded order, until
   [seconds] have elapsed and at least [min_passes] have run: every run
   measures the same query mix. *)
let passes ~min_passes ~seed ~seconds queries f =
  let order = Array.of_list queries in
  let rng = Rng.create seed in
  let t0 = Timer.now () in
  let rec go n =
    Rng.shuffle rng order;
    Array.iteri f order;
    if n < min_passes || Timer.now () -. t0 < seconds then go (n + 1) else n
  in
  let n = go 1 in
  let window = Timer.now () -. t0 in
  note "%d pass(es) of %d queries in %.2f s" n (Array.length order) window;
  window

let driver_workload spec ~workload ~seed ~seconds ~trace =
  let w, setup_s =
    repeat_setup ~discard:ignore (fun () ->
        Imdb.workload { Imdb.seed = data_seed; scale = spec.scale })
  in
  let catalog = w.Workload.catalog in
  let queries =
    match spec.names with
    | None -> w.Workload.queries
    | Some names -> select w names
  in
  let cards = reference_cards catalog queries in
  let run_driver (name, q) =
    let config =
      Layers.monsoon_config ~iterations:spec.iterations ~budget:spec.budget
        ~rng:(cell_rng name) q
    in
    Timer.time (fun () -> Driver.run config catalog q)
  in
  let samples = ref [] in
  Gc.compact ();
  if not trace then begin
    let window =
      (* Two passes at least, so each query is timed twice even where one
         pass outlasts the window (imdb-plan-cold). *)
      passes ~min_passes:2 ~seed ~seconds queries (fun _ ((name, _) as nq) ->
          let o, latency = run_driver nq in
          if not o.Driver.timed_out then check_card cards name o.Driver.result_card;
          samples :=
            { Metrics.latency;
              cost = o.Driver.cost;
              status = status_of_outcome ~timed_out:o.Driver.timed_out }
            :: !samples)
    in
    end_to_end ~setup_s ~budget:spec.budget ~window !samples
  end
  else begin
    let l = Layers.create () in
    let reference_wall = ref 0.0 in
    let replay (name, q) =
      let config =
        Layers.monsoon_config ~iterations:spec.iterations ~budget:spec.budget
          ~rng:(cell_rng name) q
      in
      Layers.replay l ~env:Env.default config catalog q
    in
    let _window =
      passes ~min_passes:1 ~seed ~seconds queries (fun i ((name, _) as nq) ->
          (* Alternate which side runs first, so neither always finds the
             caches the other warmed. *)
          let (o, wall), r =
            if i mod 2 = 0 then
              let d = run_driver nq in
              (d, replay nq)
            else
              let r = replay nq in
              (run_driver nq, r)
          in
          reference_wall := !reference_wall +. wall;
          check_replay name r
            ~plan:(String.concat " | " o.Driver.actions)
            ~cost:o.Driver.cost;
          if not o.Driver.timed_out then check_card cards name r.Layers.result_card;
          samples :=
            { Metrics.latency = wall;
              cost = o.Driver.cost;
              status = status_of_outcome ~timed_out:o.Driver.timed_out }
            :: !samples)
    in
    write_trace l ~workload ~seed;
    { correct = true;
      attempted = List.length !samples;
      failed = Metrics.failed !samples;
      metrics =
        per_layer l
          ~overhead:(l.Layers.run.Layers.seconds /. !reference_wall -. 1.0)
          ~repo_replay_s:0.0 ~bytes_per_query:0.0 ~server:no_server }
  end

(* --- serve-warm-repeat: two closed-loop HTTP clients, one execution slot --- *)

let serve_names = query_names 1 30
let serve_clients = 2

let serve_profile =
  { Experiments.quick with
    Experiments.label = "perfbench";
    seed = data_seed;
    imdb_scale = 0.1;
    monsoon_iterations = 150;
    imdb_queries = Some serve_names;
    jobs = 1 }

let service repo =
  match Experiments.service serve_profile ~experiment:"imdb" ~stats_repo:repo () with
  | Ok hn -> hn
  | Error msg -> failwith msg

(* Every request of a query plans on that query's fixed stream in place of
   the server's per-request one, so repeats do identical work and a run's
   objects do not depend on which streams its request ids drew. *)
let fixed_streams (h : Server.handler) : Server.handler =
 fun ~id ~rng:_ ~env ~recorder ~trace name -> h ~id ~rng:(cell_rng name) ~env ~recorder ~trace name

let call_handler (h : Server.handler) name =
  h ~id:0 ~rng:(cell_rng name) ~env:Env.default ~recorder:(Recorder.null ())
    ~trace:"perfbench" name

(* One execution slot, a queue no two clients can fill, and no explain
   capture: the served handler is exactly [Driver.run], like the traced
   replay that stands in for it. *)
let server_config =
  { Server.default_config with Server.max_concurrent = 1; queue_bound = 64; explain_ring = 0 }

type served = {
  server : Server.t;
  port : int;
  repo_path : string;
  replay_s : float;  (** [Stats_repo.open_] of the seeded log *)
}

let file_size path = (Unix.stat path).Unix.st_size

(* Closed loop: the clients share one request sequence made of rounds, each
   a fresh seeded permutation of the queries, and each client takes the next
   request as soon as its previous reply lands. No round starts after
   [seconds] have elapsed, and the one in progress is finished, so every run
   serves whole rounds: the same mix. *)
let closed_loop client ~seed ~seconds =
  let rng = Rng.create seed in
  let round = Array.of_list serve_names in
  let lock = Mutex.create () in
  let next = ref 0 and stopped = ref false in
  let t0 = Timer.now () in
  let take () =
    Mutex.protect lock (fun () ->
        let i = !next mod Array.length round in
        if i = 0 && (!stopped || (!next > 0 && Timer.now () -. t0 >= seconds)) then begin
          stopped := true;
          None
        end
        else begin
          if i = 0 then Rng.shuffle rng round;
          incr next;
          Some round.(i)
        end)
  in
  let results = Array.make serve_clients [] in
  let rec per_client c =
    match take () with
    | None -> ()
    | Some q ->
      let r, latency = Timer.time (fun () -> Load_client.query client q) in
      results.(c) <- (q, r, latency) :: results.(c);
      per_client c
  in
  let threads = List.init serve_clients (Thread.create per_client) in
  List.iter Thread.join threads;
  let window = Timer.now () -. t0 in
  note "%d rounds of %d queries" (!next / Array.length round) (Array.length round);
  (List.concat (Array.to_list results), window)

let sample_of (q, r, latency) =
  match r with
  | Ok o ->
    let status =
      match o.Load_client.o_code with
      | 200 -> Metrics.Ok
      | 504 -> Metrics.Timed_out
      | code -> Metrics.Errored (Printf.sprintf "%s: HTTP %d" q code)
    in
    { Metrics.latency; cost = o.Load_client.o_cost; status }
  | Error msg -> { Metrics.latency; cost = 0.0; status = Metrics.Errored (q ^ ": " ^ msg) }

(* Every count the repository log holds for a served query's full result —
   from set-up's cold pass and from every request since — must equal the
   reference plan's cardinality. *)
let check_logged_cards path queries cards =
  let entries = Stats_repo.entries (Stats_repo.open_ path) in
  List.iter
    (fun (name, q) ->
      let key = Stats_repo.count_key q (Query.all_mask q) in
      match
        List.find_opt
          (fun e -> e.Stats_repo.e_kind = "count" && e.Stats_repo.e_key = key)
          entries
      with
      | None -> raise (Check_failed (name ^ ": no result count in the repository log"))
      | Some e ->
        check_card cards name e.Stats_repo.e_lo;
        check_card cards name e.Stats_repo.e_hi)
    queries

let serve_workload ~workload ~seed ~seconds ~trace =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let repo_path =
    Filename.concat out_dir (Printf.sprintf "serve-repo-%d.jsonl" (Unix.getpid ()))
  in
  let ref_path = repo_path ^ ".reference" in
  let remove p = try Sys.remove p with Sys_error _ -> () in
  let budget = serve_profile.Experiments.imdb_budget in
  (* The benchmark's own copy of the served data, for the reference plans
     and the traced replay; the handler builds its own in set-up. *)
  let w = Imdb.workload { Imdb.seed = data_seed; scale = serve_profile.Experiments.imdb_scale } in
  (* One request as [Experiments.service]'s handler answers it — same RNG
     use, same armed zero-rate fault plan — through the timed replay. *)
  let replay_request l ~env repo name =
    let q = Workload.find_query w name in
    let rng = cell_rng name in
    let env = Env.with_fault env (Fault.plan Fault.no_faults (Rng.split (Rng.copy rng))) in
    let config =
      Layers.monsoon_config ~iterations:serve_profile.Experiments.monsoon_iterations ~budget ~rng q
    in
    Layers.replay l ~env ~repo config w.Workload.catalog q
  in
  let l = Layers.create () in
  let traced = ref [] in
  let traced_lock = Mutex.create () in
  let replay_handler repo : Server.handler =
   fun ~id:_ ~rng:_ ~env ~recorder:_ ~trace:_ name ->
    let o =
      Layers.span l "server.handler" l.Layers.handler (fun _ ->
          replay_request l ~env repo name)
    in
    Mutex.protect traced_lock (fun () -> traced := (name, o) :: !traced);
    Ok
      { Server.x_cost = o.Layers.cost;
        x_timed_out = o.Layers.timed_out;
        x_degraded = false;
        x_plan = String.concat " | " o.Layers.actions }
  in
  let setup () =
    remove repo_path;
    let cold, names = service (Stats_repo.open_ repo_path) in
    List.iter
      (fun name ->
        match call_handler cold name with
        | Ok x -> check (not x.Server.x_timed_out) "%s: timed out while seeding" name
        | Error _ -> raise (Check_failed (name ^ ": seeding request failed")))
      names;
    let repo, replay_s = Timer.time (fun () -> Stats_repo.open_ repo_path) in
    let handler =
      if trace then replay_handler repo else fixed_streams (fst (service repo))
    in
    let server = Server.create ~queries:names server_config handler in
    match Server.listen server ~port:0 with
    | Ok port -> { server; port; repo_path; replay_s }
    | Error msg -> failwith ("listen: " ^ msg)
  in
  let s, setup_s = repeat_setup ~discard:(fun s -> Server.stop s.server) setup in
  Fun.protect ~finally:(fun () -> remove repo_path; remove ref_path) @@ fun () ->
  if trace then begin
    let ic = open_in_bin repo_path and oc = open_out_bin ref_path in
    output_string oc (really_input_string ic (in_channel_length ic));
    close_in ic;
    close_out oc
  end;
  let size_before = file_size repo_path in
  let client = Load_client.http ~port:s.port () in
  Gc.compact ();
  let results, window = closed_loop client ~seed ~seconds in
  let samples = List.map sample_of results in
  let (), teardown = Timer.time (fun () -> Server.stop s.server) in
  note "%d requests over %d connections in %.2f s; server teardown %.2f s (outside \
        every timed window: idle keep-alive connections wait out SO_RCVTIMEO)"
    (List.length samples) (Load_client.connections client) window teardown;
  List.iter
    (fun smp ->
      match smp.Metrics.status with
      | Metrics.Ok -> ()
      | Metrics.Timed_out -> raise (Check_failed "a served request timed out (504)")
      | Metrics.Errored msg -> raise (Check_failed msg))
    samples;
  let queries = select w serve_names in
  check_logged_cards s.repo_path queries (reference_cards w.Workload.catalog queries);
  if not trace then end_to_end ~setup_s ~budget ~window samples
  else begin
    (* Offline, on a repository opened from the same pre-window log (lookups
       read the baseline frozen at open, so order does not matter): the real
       service handler reproduces every served replay, and an untraced and a
       traced run of each request, alternating which goes first, price the
       tracing itself. *)
    let reference_repo = Stats_repo.open_ ref_path in
    let reference, _ = service reference_repo in
    let offline = Layers.create () in
    let reference_wall = ref 0.0 in
    List.iteri
      (fun i (name, served) ->
        let run_reference () =
          match Timer.time (fun () -> call_handler reference name) with
          | Ok x, wall ->
            reference_wall := !reference_wall +. wall;
            x
          | Error _, _ -> raise (Check_failed (name ^ ": reference request failed"))
        in
        let run_replay () = replay_request offline ~env:Env.default reference_repo name in
        let x, replayed =
          if i mod 2 = 0 then
            let x = run_reference () in
            (x, run_replay ())
          else
            let r = run_replay () in
            (run_reference (), r)
        in
        List.iter
          (fun o -> check_replay name o ~plan:x.Server.x_plan ~cost:x.Server.x_cost)
          [ served; replayed ])
      (List.rev !traced);
    let served =
      List.filter_map
        (fun (_, r, latency) -> Option.map (fun o -> (o, latency)) (Result.to_option r))
        results
    in
    let n = float_of_int (List.length samples) in
    write_trace l ~workload ~seed;
    { correct = true;
      attempted = List.length samples;
      failed = Metrics.failed samples;
      metrics =
        per_layer l
          ~overhead:(offline.Layers.run.Layers.seconds /. !reference_wall -. 1.0)
          ~repo_replay_s:s.replay_s
          ~bytes_per_query:(float_of_int (file_size s.repo_path - size_before) /. n)
          ~server:
            [ ( "server.queue_wait_s",
                Metrics.median (List.map (fun (o, _) -> o.Load_client.o_queue_wait) served),
                "s" );
              ("server.handler_s", l.Layers.handler.Layers.seconds /. n, "s");
              ( "server.http_overhead_s",
                Metrics.median
                  (List.map (fun (o, latency) -> latency -. o.Load_client.o_latency) served),
                "s" );
              ( "server.requests_per_connection",
                n /. float_of_int (max 1 (Load_client.connections client)),
                "count" ) ] }
  end

(* --- entry point --- *)

let workloads =
  [ ( "imdb-plan-cold",
      driver_workload { scale = 0.1; iterations = 50; budget = 1e6; names = None } );
    ( "imdb-exec-large",
      driver_workload
        { scale = 10.0; iterations = 25; budget = 5e6; names = Some (query_names 1 20) } );
    ("serve-warm-repeat", serve_workload) ]

let machine () =
  let model =
    proc_line "/proc/cpuinfo" (fun l ->
        match String.index_opt l ':' with
        | Some i when String.starts_with ~prefix:"model name" l ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
  in
  Printf.sprintf "cpus=%d cpu=%S ocaml=%s" (Domain.recommended_domain_count ())
    (Option.value model ~default:"unknown") Sys.ocaml_version

let print_result r =
  let metric (name, value, unit_) =
    (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool r.correct);
            ("attempted", Json.Num (float_of_int r.attempted));
            ("failed", Json.Num (float_of_int r.failed));
            ("metrics", Json.Obj (List.map metric r.metrics)) ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for the query order (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer split") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  match List.assoc_opt !workload workloads with
  | None ->
    Printf.eprintf "unknown workload %S; one of: %s\n" !workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some _ when !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) ->
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  | Some run -> (
    note "workload %s seed %d seconds %g trace %d; %s" !workload !seed !seconds !trace
      (machine ());
    match run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
    | r ->
      List.iter (fun (name, v, u) -> note "%-32s %.6g %s" name v u) r.metrics;
      print_result r
    | exception Check_failed msg ->
      note "CHECK FAILED: %s" msg;
      print_result { correct = false; attempted = 1; failed = 1; metrics = [] };
      exit 1)
