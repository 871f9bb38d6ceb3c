(* The one HTTP/1.1 stack: loopback listener, one systhread per
   connection, bounded request reader, response writer, a drain-aware
   stop, and the client's request writer and response reader. Routes are
   plain functions, so the wire format stays in this file. *)

type request = { meth : string; path : string; body : string }

type response = {
  code : int;
  content_type : string;
  headers : (string * string) list;
  body : string;
}

type route = request -> response option

let response ?(headers = []) ?(content_type = "text/plain") code body =
  { code; content_type; headers; body }

let registry_routes reg req =
  match (req.meth, req.path) with
  | "GET", "/metrics" ->
    Some
      (response ~content_type:Exporter.content_type 200 (Exporter.render reg))
  | "GET", "/healthz" -> Some (response 200 "ok\n")
  | "GET", "/snapshot.json" ->
    Some
      (response ~content_type:"application/json" 200
         (Json.to_string (Snapshot.metrics_json reg) ^ "\n"))
  | _ -> None

(* --- wire format --- *)

let reason_of_code = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

let render ~keep_alive r =
  let headers =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) r.headers)
  in
  Printf.sprintf
    "HTTP/1.1 %d %s\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     %sConnection: %s\r\n\
     \r\n\
     %s"
    r.code (reason_of_code r.code) r.content_type (String.length r.body)
    headers
    (if keep_alive then "keep-alive" else "close")
    r.body

let find_substring s needle =
  let n = String.length needle and m = String.length s in
  let rec go i =
    if i + n > m then None
    else if String.sub s i n = needle then Some i
    else go (i + 1)
  in
  go 0

let header_value headers name =
  String.split_on_char '\n' headers
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | None -> None
         | Some i ->
           let n = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
           if n = name then
             Some
               (String.trim
                  (String.sub line (i + 1) (String.length line - i - 1)))
           else None)

(* Absent means no body; anything but plain decimal digits is malformed
   (a negative length would otherwise reach [String.sub]). *)
let content_length headers =
  match header_value headers "content-length" with
  | None -> Some 0
  | Some v when v <> "" && String.for_all (fun c -> c >= '0' && c <= '9') v
    ->
    int_of_string_opt v
  | Some _ -> None

(* Keep-alive is strictly opt-in: only a client that says
   [Connection: keep-alive] gets connection reuse; everything else
   (curl's default, the tests) keeps close semantics. *)
let wants_keep_alive headers =
  match header_value headers "connection" with
  | Some v -> String.lowercase_ascii v = "keep-alive"
  | None -> false

(* Reads into [buf] until [stop] holds on its contents (true), or the
   peer closes or the read times out first (false). *)
let read_until fd buf stop =
  let chunk = Bytes.create 4096 in
  let rec go () =
    stop (Buffer.contents buf)
    ||
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> false
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let head_end s = find_substring s "\r\n\r\n"

let first_line_words raw =
  String.split_on_char ' ' (List.hd (String.split_on_char '\r' raw))

type read = Request of request * bool | Malformed | Closed

(* Reads request line + headers + a Content-Length body. Bounded: 8 KiB
   of headers, 64 KiB of body — a query name plus slack. *)
let read_request fd =
  let buf = Buffer.create 256 in
  ignore
    (read_until fd buf (fun s -> String.length s > 8192 || head_end s <> None));
  let raw = Buffer.contents buf in
  match head_end raw with
  | None -> Closed
  | Some i -> (
    let headers = String.sub raw 0 i in
    let body_start = i + 4 in
    match (content_length headers, first_line_words raw) with
    | Some len, meth :: target :: _ ->
      let want = min len 65536 in
      ignore
        (read_until fd buf (fun s -> String.length s - body_start >= want));
      let raw = Buffer.contents buf in
      let body =
        String.sub raw body_start (min want (String.length raw - body_start))
      in
      let path =
        match String.index_opt target '?' with
        | Some q -> String.sub target 0 q
        | None -> target
      in
      Request ({ meth; path; body }, wants_keep_alive headers)
    | _ -> Malformed)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* --- the client side --- *)

let write_request fd ~host ~port ~meth ~path body =
  write_all fd
    (Printf.sprintf
       "%s %s HTTP/1.1\r\n\
        Host: %s:%d\r\n\
        Content-Type: application/json\r\n\
        Content-Length: %d\r\n\
        Connection: keep-alive\r\n\
        \r\n\
        %s"
       meth path host port (String.length body) body)

(* With a Content-Length the body is delimited by it — the path that lets
   a kept-alive connection hand back exactly one response without waiting
   for EOF; the length check catches short and over-long reads. Without
   one, read to EOF and do not trust the connection with another
   request. *)
let read_response fd =
  let buf = Buffer.create 1024 in
  if not (read_until fd buf (fun s -> head_end s <> None)) then
    Error "eof before response headers"
  else
    let i = Option.get (head_end (Buffer.contents buf)) in
    let headers = Buffer.sub buf 0 i in
    let length =
      Option.bind (header_value headers "content-length") int_of_string_opt
    in
    let complete =
      match length with
      | Some want -> read_until fd buf (fun s -> String.length s - (i + 4) >= want)
      | None ->
        ignore (read_until fd buf (fun _ -> false));
        true
    in
    let body = Buffer.sub buf (i + 4) (Buffer.length buf - i - 4) in
    match (complete, length, first_line_words headers) with
    | false, _, _ -> Error "eof before response body"
    | _, Some want, _ when want <> String.length body ->
      Error
        (Printf.sprintf "short read: Content-Length %d, body %d bytes" want
           (String.length body))
    | _, _, _http :: code :: _ -> (
      match int_of_string_opt code with
      | Some c -> Ok (c, body, length <> None && wants_keep_alive headers)
      | None -> Error ("malformed status line: " ^ code))
    | _ -> Error "malformed status line"

(* --- the listener --- *)

let backlog = 64

type conn = { fd : Unix.file_descr; mutable idle : bool }

type t = {
  listen_fd : Unix.file_descr;
  port : int;
  routes : route list;
  lock : Mutex.t;  (* guards [stopping], [conns] and every [conn.idle] *)
  mutable stopping : bool;
  mutable conns : conn list;
  mutable acceptor : Thread.t option;
}

let port t = t.port

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let dispatch t req =
  match List.find_map (fun route -> route req) t.routes with
  | Some r -> r
  | None -> response 404 "not found\n"

(* A connection is idle while it waits for its next request. [stop] shuts
   the read side of idle connections so their blocked read returns at
   once; a connection that is answering a request finishes it, then sees
   [stopping] when it would go idle again and closes. *)
let serve_conn t c =
  let rec loop () =
    match read_request c.fd with
    | Closed -> ()
    | Malformed ->
      write_all c.fd
        (render ~keep_alive:false (response 400 "bad request\n"))
    | Request (req, wants) ->
      let keep_alive =
        locked t (fun () ->
            c.idle <- false;
            wants && not t.stopping)
      in
      write_all c.fd (render ~keep_alive (dispatch t req));
      let again =
        keep_alive
        && locked t (fun () ->
               c.idle <- true;
               not t.stopping)
      in
      if again then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      locked t (fun () -> t.conns <- List.filter (fun c' -> c' != c) t.conns);
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 5.0;
      loop ())

(* One thread per connection: a slow request must not head-of-line-block
   a /metrics scrape, and the embedder's own queue — not the accept
   backlog — is where requests are meant to wait. *)
let rec accept_loop t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
    let c = { fd; idle = true } in
    let admitted =
      locked t (fun () ->
          if not t.stopping then t.conns <- c :: t.conns;
          not t.stopping)
    in
    if admitted then begin
      ignore (Thread.create (fun () -> try serve_conn t c with _ -> ()) ());
      accept_loop t
    end
    else ( try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
  | exception Unix.Unix_error (_, _, _) ->
    (* the listen socket was shut down by [stop] *)
    ()

let listen ~port routes =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  | fd -> (
    match
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd backlog;
      Unix.getsockname fd
    with
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message err)
    | addr ->
      let port = match addr with Unix.ADDR_INET (_, p) -> p | _ -> port in
      let t =
        { listen_fd = fd;
          port;
          routes;
          lock = Mutex.create ();
          stopping = false;
          conns = [];
          acceptor = None }
      in
      t.acceptor <- Some (Thread.create accept_loop t);
      Ok t)

let stop ?(drain = ignore) t =
  let first =
    locked t (fun () ->
        let first = not t.stopping in
        t.stopping <- true;
        List.iter
          (fun c ->
            if c.idle then
              try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
              with Unix.Unix_error _ -> ())
          t.conns;
        first)
  in
  if first then begin
    (* Waking a thread blocked in accept needs more than close(2): shut
       the listening socket down (accept fails with EINVAL on Linux) and
       self-connect as a fallback wake (the loop sees [stopping] on the
       accepted connection and exits). The fd closes after the join. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try
       let c = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect c (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port))
        with Unix.Unix_error _ -> ());
       try Unix.close c with Unix.Unix_error _ -> ()
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.acceptor;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    drain ();
    (* Connections answering a request flush their responses. Reads are
       bounded by SO_RCVTIMEO and idle readers were woken above, so this
       terminates; the cap is belt and braces. *)
    let waited = ref 0.0 in
    while locked t (fun () -> t.conns <> []) && !waited < 10.0 do
      Thread.delay 0.01;
      waited := !waited +. 0.01
    done
  end
