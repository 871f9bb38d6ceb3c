(** The long-running query service: admission → pool → deadline → degrade,
    over HTTP or in process.

    A server pairs a query {!handler} (supplied by the harness — the thing
    that actually plans and executes a named benchmark query) with the
    serving machinery this library provides: a bounded {!Admission}
    controller in front of a {!Monsoon_util.Pool} of [max_concurrent]
    worker domains, a per-request {!Monsoon_util.Deadline}, per-request
    flight-recorder capture, and {!Slo} accounting for every outcome.

    The request path ({!submit}) is the same whether a request arrives over
    HTTP or from an in-process client ({!Load_client}):

    + admission — free slot: run; full queue: 429; draining: 503; deadline
      tripped while queued: 504;
    + execution — the handler runs on one pool worker under the request's
      deadline and a per-request RNG derived from [(seed, request id)];
    + classification — handler outcome to {!Slo.outcome} (degraded
      executions are successes), recorded with latency and queue wait.

    The HTTP front end ({!listen}) registers these routes on the shared
    {!Monsoon_telemetry.Http} stack (one thread per connection, bounded
    reads, opt-in keep-alive); other paths fall through to its registry
    routes:

    - [POST /query] — body [{"query": NAME}]; answers the response JSON
      with the outcome's HTTP code (200 / 404 / 429+Retry-After / 500 /
      503 / 504);
    - [GET /query/ID/explain] — the captured flight-recorder report of
      request ID (the last [explain_ring] requests are retained);
    - [GET /queries] — the query names this server answers, as JSON;
    - [GET /slo] — the live {!Slo.report};
    - [GET /metrics], [/healthz], [/snapshot.json] —
      {!Monsoon_telemetry.Http.registry_routes}.

    [POST /query] responses carry the request's trace id as
    [X-Monsoon-Trace]; a 429's [Retry-After] is derived from the observed
    queue depth and mean service latency.

    {!stop} is drain-then-stop: close the listener, let every in-flight
    request finish (queued requests resolve 503 — shed, not crashed),
    close connections idle between requests at once, then shut the pool
    down. Idempotent. *)

open Monsoon_util
open Monsoon_telemetry

type exec_outcome = {
  x_cost : float;  (** objects charged (the paper's cost measure) *)
  x_timed_out : bool;  (** budget or deadline exhausted — reported 504 *)
  x_degraded : bool;  (** survived a fault on the fallback plan — 200 *)
  x_plan : string;  (** human-readable plan / action trace *)
}

type handler_error =
  [ `Unknown_query of string  (** 404 *)
  | `Failed of string  (** 500 *) ]

type handler =
  id:int ->
  rng:Rng.t ->
  env:Env.t ->
  recorder:Recorder.t ->
  trace:string ->
  string ->
  (exec_outcome, handler_error) result
(** Runs one named query on a pool worker domain. [rng] is the request's
    private deterministic stream; [env] is the request's execution
    environment — its deadline is the request timeout (enrich the
    environment, don't replace it: [Monsoon_telemetry.Ctx.to_env ~env] and
    [Monsoon_util.Env.with_fault] layer the handler's context and fault
    plan over the request deadline); [recorder] captures the decision
    trajectory when the server retains explains (a null recorder
    otherwise); [trace] is the request's trace id — thread it into the
    handler's context ({!Monsoon_telemetry.Ctx.with_trace_id}) so the spans
    it opens join the request's qlog record and explain capture. Exceptions — including
    {!Monsoon_util.Deadline.Expired} and {!Monsoon_util.Fault.Injected} —
    are caught and classified by the server; they fail the request, never
    the server. *)

type config = {
  max_concurrent : int;  (** pool workers = execution slots *)
  queue_bound : int;  (** admission queue bound; 0 = reject when busy *)
  request_timeout : float option;  (** per-request deadline, seconds *)
  seed : int;  (** per-request RNG derivation base *)
  explain_ring : int;  (** recorder captures retained; 0 disables capture *)
  latency_target : float;  (** SLO: p95 latency objective, seconds *)
  availability_target : float;  (** SLO: success-share objective *)
  slow_query : float option;
      (** latency threshold, seconds: a request at or over it pins its
          explain capture outside the ring (last 256 kept); [None] off *)
  qlog : Monsoon_telemetry.Qlog.t option;
      (** audit log: every finished request appends one
          {!Monsoon_telemetry.Qlog} record; [None] off *)
}

val default_config : config
(** 4 slots, queue bound 16, 30 s timeout, seed 42, 64 explains retained,
    p95 target 1.0 s, availability target 0.99, no slow-query retention,
    no qlog. *)

type t

val create : ?env:Env.t -> ?queries:string list -> config -> handler -> t
(** Spawns the worker pool. [queries] is the advertised name list for
    [GET /queries] (purely informational — the handler remains the
    authority). The registry of [env]'s packed context
    ({!Monsoon_telemetry.Ctx.to_env}) carries every server metric. *)

type response = {
  rs_id : int;
  rs_query : string;
  rs_trace : string;
      (** the request's trace id — minted deterministically from
          [(seed, id)], echoed over HTTP as [X-Monsoon-Trace] *)
  rs_outcome : Slo.outcome;
  rs_code : int;  (** the HTTP status this outcome maps to *)
  rs_cost : float;
  rs_latency : float;  (** seconds, admission entry to classification *)
  rs_queue_wait : float;  (** seconds of [rs_latency] spent queued *)
  rs_detail : string;  (** plan on success, reason otherwise *)
}

val submit : t -> string -> response
(** The full request path, in process — what POST /query calls. Safe from
    any thread. After {!stop} every submit resolves to a 503. *)

val response_json : response -> Json.t

val explain : t -> int -> string option
(** The captured flight-recorder report of a recent request id — from the
    slow-query store when the request breached the threshold, otherwise
    from the ring. *)

val slo : t -> Slo.t

val queries : t -> string list
(** The advertised query-name list (as passed to {!create}). *)

val admission : t -> Admission.t

val requests : t -> int
(** Requests accepted so far (monotone id counter). *)

val inject_kills : t -> int -> unit
(** Chaos hook: kill-and-respawn [n] pool workers ({!Monsoon_util.Pool.inject_kills}). *)

val listen : t -> port:int -> (int, string) result
(** Bind [127.0.0.1:port] ([0] picks an ephemeral port) and start the
    accept loop. Returns the bound port — the programmatic alternative to
    scraping stderr — or an error when the bind fails, the server already
    listens, or it was stopped. *)

val port : t -> int
(** The bound port. @raise Invalid_argument when not listening. *)

val stop : t -> unit
(** Drain-then-stop; blocks until in-flight requests finished and the pool
    joined, but not on idle keep-alive connections. Idempotent. *)
