(* HTTP/1.1 client over the server's Unix-domain socket: a blocking
   exchange for closed loops and a non-blocking connection for the
   open-loop load generator. Both reconnect when the server closes a
   keep-alive connection. *)

module Http = Xr_server.Http

let connect ?(timeout = 20.) path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
  fd

let get_request target =
  Printf.sprintf "GET %s HTTP/1.1\r\nhost: perfbench\r\n\r\n" target

let post_request target body =
  Printf.sprintf "POST %s HTTP/1.1\r\nhost: perfbench\r\ncontent-length: %d\r\n\r\n%s"
    target (String.length body) body

type response = { status : int; headers : (string * string) list; body : string }

let closing headers =
  match List.assoc_opt "connection" headers with
  | Some v -> String.lowercase_ascii v = "close"
  | None -> false

(* ---- blocking ------------------------------------------------------- *)

type conn = {
  path : string;
  timeout : float;
  mutable fd : (Unix.file_descr * Http.reader) option;
}

let open_conn ?(timeout = 20.) path = { path; timeout; fd = None }

let close c =
  match c.fd with
  | Some (fd, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    c.fd <- None
  | None -> ()

let exchange c raw =
  let fd, reader =
    match c.fd with
    | Some p -> p
    | None ->
      let fd = connect ~timeout:c.timeout c.path in
      let p = (fd, Http.reader_of_fd fd) in
      c.fd <- Some p;
      p
  in
  match
    Http.write_all fd raw;
    Http.read_response reader
  with
  | Ok (status, headers, body) ->
    if closing headers then close c;
    Ok { status; headers; body }
  | Error e ->
    close c;
    Error (Http.error_to_string e)
  | exception Unix.Unix_error (e, _, _) ->
    close c;
    Error (Unix.error_message e)

let get c target = exchange c (get_request target)

(* ---- non-blocking (open loop) ----------------------------------------- *)

(* One in-flight request at a time per connection; the response is
   complete once the header block and Content-Length bytes are in. *)
type async = {
  apath : string;
  mutable afd : Unix.file_descr option;
  buf : Buffer.t;
  chunk : Bytes.t;
}

let open_async path =
  { apath = path; afd = None; buf = Buffer.create 65536; chunk = Bytes.create 65536 }

let async_close a =
  (match a.afd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  a.afd <- None

let async_send a raw =
  let fd =
    match a.afd with
    | Some fd -> fd
    | None ->
      let fd = connect a.apath in
      a.afd <- Some fd;
      fd
  in
  Buffer.clear a.buf;
  (* requests are small: write them whole, blocking *)
  Http.write_all fd raw;
  fd

let header_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then
      Some (i + 4)
    else go (i + 1)
  in
  go 0

let content_length head =
  String.split_on_char '\n' head
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i
           when String.lowercase_ascii (String.trim (String.sub line 0 i))
                = "content-length" ->
           int_of_string_opt
             (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

(* Read what is available; [Some result] once the response is whole. *)
let async_poll a =
  match a.afd with
  | None -> Some (Error "not connected")
  | Some fd -> (
    match Unix.read fd a.chunk 0 (Bytes.length a.chunk) with
    | 0 ->
      async_close a;
      Some (Error "connection closed")
    | n -> (
      Buffer.add_subbytes a.buf a.chunk 0 n;
      let s = Buffer.contents a.buf in
      match header_end s with
      | None -> None
      | Some he -> (
        match content_length (String.sub s 0 he) with
        | None ->
          async_close a;
          Some (Error "response without content-length")
        | Some len ->
          if String.length s < he + len then None
          else
            match Http.read_response (Http.reader_of_string s) with
            | Ok (status, headers, body) ->
              if closing headers then async_close a;
              Some (Ok { status; headers; body })
            | Error e ->
              async_close a;
              Some (Error (Http.error_to_string e))))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      None
    | exception Unix.Unix_error (e, _, _) ->
      async_close a;
      Some (Error (Unix.error_message e)))
