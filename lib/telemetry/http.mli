(** The repo's one HTTP/1.1 implementation: the front end every endpoint
    is served by, and the client half of the wire format the load client
    speaks.

    [listen] binds a loopback port and answers each connection on its own
    systhread (a slow request never head-of-line-blocks a [/metrics]
    scrape). Requests are read with bounds — 8 KiB of headers, 64 KiB of
    body — and a 5 s [SO_RCVTIMEO]; a malformed request line or a
    negative or non-numeric [Content-Length] is answered 400. Connections
    close after one response unless the client sends
    [Connection: keep-alive], in which case the socket is reused until
    the client closes, idles past the read timeout, or the listener
    stops.

    Routes are tried in order; the first [Some] answers, and a request no
    route claims is a 404. Embedders put their own routes first and
    {!registry_routes} last, so every front end shares one copy of
    [/metrics], [/healthz] and [/snapshot.json]. *)

type request = {
  meth : string;  (** ["GET"], ["POST"], ... *)
  path : string;  (** target without its query string *)
  body : string;  (** the [Content-Length] body, [""] when absent *)
}

type response = {
  code : int;
  content_type : string;
  headers : (string * string) list;
      (** extra headers, written after [Content-Length] *)
  body : string;
}

type route = request -> response option
(** [None] passes the request on to the next route. *)

val response :
  ?headers:(string * string) list ->
  ?content_type:string ->
  int ->
  string ->
  response
(** [response code body]; content type defaults to ["text/plain"]. *)

val registry_routes : Registry.t -> route
(** [GET /metrics] (Prometheus text, {!Exporter.render}), [GET /healthz]
    (["ok"]) and [GET /snapshot.json] ({!Snapshot.metrics_json}). *)

(** {1 Client side} *)

val write_request :
  Unix.file_descr ->
  host:string ->
  port:int ->
  meth:string ->
  path:string ->
  string ->
  unit
(** Writes one JSON-bodied request that asks for [Connection: keep-alive].
    @raise Unix.Unix_error on a write failure. *)

val read_response : Unix.file_descr -> (int * string * bool, string) result
(** Reads one response: status code, body, and whether the server keeps
    the connection open for another request. A [Content-Length]
    delimits the body and must match it; without one the body runs to
    EOF and the connection is not reused. [Error] names the protocol
    failure (EOF or read timeout before a full response, short read,
    malformed status line). *)

(** {1 Server side} *)

type t

val listen : port:int -> route list -> (t, string) result
(** Binds [127.0.0.1:port] ([0] picks an ephemeral port) and starts the
    accept loop. [Error] carries the bind failure's message. *)

val port : t -> int
(** The bound port. *)

val stop : ?drain:(unit -> unit) -> t -> unit
(** Closes the listener, then runs [drain] (default: nothing) — the
    embedder's hook to resolve requests still queued behind it — then
    waits (at most 10 s) for connection threads to finish. A connection
    answering a request still writes its response; one idle between
    requests has its read side shut so it closes at once instead of
    waiting out the read timeout. Idempotent. *)
