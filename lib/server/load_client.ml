open Monsoon_telemetry

type http_state = {
  host : string;
  port : int;
  pool_lock : Mutex.t;
  idle : Unix.file_descr Queue.t;  (* connections the server kept alive *)
  mutable connects : int;  (* fresh TCP connects made so far *)
}

type t = In_process of Server.t | Remote of http_state

let in_process s = In_process s

let http ?(host = "127.0.0.1") ~port () =
  Remote
    { host; port; pool_lock = Mutex.create (); idle = Queue.create ();
      connects = 0 }

let connections = function
  | In_process _ -> 0
  | Remote state ->
    Mutex.lock state.pool_lock;
    let n = state.connects in
    Mutex.unlock state.pool_lock;
    n

type outcome = {
  o_query : string;
  o_status : string;
  o_code : int;
  o_cost : float;
  o_latency : float;
  o_queue_wait : float;
}

(* --- HTTP/1.1 with keep-alive connection reuse --- *)

let take_idle state =
  Mutex.lock state.pool_lock;
  let fd = Queue.take_opt state.idle in
  Mutex.unlock state.pool_lock;
  fd

let return_idle state fd =
  Mutex.lock state.pool_lock;
  Queue.push fd state.idle;
  Mutex.unlock state.pool_lock

let connect_fresh state =
  match
    try
      Ok
        (try Unix.inet_addr_of_string state.host
         with Failure _ ->
           (Unix.gethostbyname state.host).Unix.h_addr_list.(0))
    with Not_found -> Error ("unknown host: " ^ state.host)
  with
  | Error _ as e -> e
  | Ok addr -> (
    match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
    | fd -> (
      match
        Unix.connect fd (Unix.ADDR_INET (addr, state.port));
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0
      with
      | () ->
        Mutex.lock state.pool_lock;
        state.connects <- state.connects + 1;
        Mutex.unlock state.pool_lock;
        Ok fd
      | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Unix.error_message err)))

(* One request-response exchange. Connections the server keeps alive go
   back to the idle pool for the next request; a reused connection that
   fails (the server may have closed it between requests) is retried once
   on a fresh one before the failure is reported. *)
let http_request state ~meth ~path ~body =
  let rec go ~may_retry fd =
    match
      Http.write_request fd ~host:state.host ~port:state.port ~meth ~path body;
      Http.read_response fd
    with
    | Ok (code, body, keep_alive) ->
      if keep_alive then return_idle state fd
      else (try Unix.close fd with Unix.Unix_error _ -> ());
      Ok (code, body)
    | Error _ as e -> retry ~may_retry fd e
    | exception Unix.Unix_error (err, _, _) ->
      retry ~may_retry fd (Error (Unix.error_message err))
  and retry ~may_retry fd e =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if may_retry then
      match connect_fresh state with
      | Error _ as e -> e
      | Ok fd -> go ~may_retry:false fd
    else e
  in
  match take_idle state with
  | Some fd -> go ~may_retry:true fd
  | None -> (
    match connect_fresh state with
    | Error _ as e -> e
    | Ok fd -> go ~may_retry:false fd)

(* --- the interface --- *)

let parse_outcome qname code body =
  match Json.of_string body with
  | Error m -> Error ("unparseable response body: " ^ m)
  | Ok j -> (
    let str k = Option.bind (Json.member k j) Json.to_str in
    let num k = Option.bind (Json.member k j) Json.to_float in
    match (str "status", num "cost", num "latency_s", num "queue_wait_s") with
    | Some st, Some c, Some l, Some qw ->
      Ok
        { o_query = qname;
          o_status = st;
          o_code = code;
          o_cost = c;
          o_latency = l;
          o_queue_wait = qw }
    | _ -> Error "response body missing fields")

let query t qname =
  match t with
  | In_process s ->
    let r = Server.submit s qname in
    Ok
      { o_query = qname;
        o_status = Slo.outcome_label r.Server.rs_outcome;
        o_code = r.Server.rs_code;
        o_cost = r.Server.rs_cost;
        o_latency = r.Server.rs_latency;
        o_queue_wait = r.Server.rs_queue_wait }
  | Remote state -> (
    let body = Json.to_string (Json.Obj [ ("query", Json.Str qname) ]) in
    match http_request state ~meth:"POST" ~path:"/query" ~body with
    | Error _ as e -> e
    | Ok (code, body) -> parse_outcome qname code body)

let queries t =
  match t with
  | In_process s -> Ok (Server.queries s)
  | Remote state -> (
    match http_request state ~meth:"GET" ~path:"/queries" ~body:"" with
    | Error _ as e -> e
    | Ok (200, body) -> (
      match Json.of_string body with
      | Ok (Json.Arr items) ->
        Ok (List.filter_map Json.to_str items)
      | Ok _ -> Error "expected a JSON array of query names"
      | Error m -> Error ("unparseable /queries body: " ^ m))
    | Ok (code, _) -> Error (Printf.sprintf "/queries answered %d" code))

let slo_report t =
  match t with
  | In_process s -> Ok (Slo.report (Server.slo s))
  | Remote state -> (
    match http_request state ~meth:"GET" ~path:"/slo" ~body:"" with
    | Error _ as e -> e
    | Ok (200, body) -> Ok body
    | Ok (code, _) -> Error (Printf.sprintf "/slo answered %d" code))
