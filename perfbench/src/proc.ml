(* The server as a child process: spawn `xrefine serve`, wait for its
   first 200 on /health, read its peak RSS, stop it and reap it. *)

type t = { pid : int; sock : string; mutable alive : bool }

let spawn ~xrefine ~docs ~sock ~log =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let args =
    Array.of_list
      ((xrefine :: "serve" :: List.concat_map (fun d -> [ "-d"; d ]) docs)
      @ [ "--unix"; sock ])
  in
  let pid = Unix.create_process xrefine args devnull out out in
  Unix.close out;
  Unix.close devnull;
  { pid; sock; alive = true }

let exited t =
  t.alive
  &&
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
    t.alive <- false;
    true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    t.alive <- false;
    true

(* Poll /health until it answers 200; the result is the elapsed time
   since [started]. *)
let wait_healthy t ~started ~timeout =
  let rec go () =
    if exited t then failwith "server exited during start-up (see its log)"
    else if Unix.gettimeofday () -. started > timeout then
      failwith "server did not become healthy in time"
    else
      match Client.connect t.sock with
      | exception Unix.Unix_error _ ->
        Unix.sleepf 0.002;
        go ()
      | fd -> (
        let reader = Xr_server.Http.reader_of_fd fd in
        let res =
          try
            Xr_server.Http.write_all fd (Client.get_request "/health");
            Xr_server.Http.read_response reader
          with Unix.Unix_error _ -> Error Xr_server.Http.Eof
        in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match res with
        | Ok (200, _, _) -> Unix.gettimeofday () -. started
        | _ ->
          Unix.sleepf 0.002;
          go ())
  in
  go ()

let status_kb pid field =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           let p = field ^ ":" in
           let n = String.length p in
           if String.length line > n && String.sub line 0 n = p then
             String.sub line n (String.length line - n)
             |> String.trim |> String.split_on_char ' ' |> List.hd |> float_of_string_opt
           else None)
    |> Option.value ~default:nan

let peak_rss_mb t = status_kb t.pid "VmHWM" /. 1024.

(* SIGTERM, then SIGKILL if the server has not exited within [grace]
   (a wedged server never finishes its graceful shutdown). *)
let stop ?(grace = 10.) t =
  if t.alive then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. grace in
    while t.alive && not (exited t) do
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
        t.alive <- false
      end
      else Unix.sleepf 0.01
    done
  end
