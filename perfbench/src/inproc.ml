(* In-process server instances over the workload's corpora: the
   reference that every served body is byte-compared to, and the
   instance the traced pass times. Neither ever accepts a connection;
   requests go straight to [Server.handle]. *)

module Server = Xr_server.Server
module Http = Xr_server.Http

let start ~sock ~config (corpora : Workload.corpus list) =
  Server.start_corpora
    { config with Server.addr = Server.Unix_socket sock }
    (List.map
       (fun (c : Workload.corpus) ->
         { Server.name = c.Workload.cname; index = Workload.index c; kv = None })
       corpora)

(* The reference: unbatched, uncached, one worker domain (and the caller
   sizes the shared pool to one domain), so every body comes from the
   plain sequential request path. *)
let reference_config =
  {
    Server.default_config with
    Server.domains = 1;
    cache_capacity = 0;
    batch = false;
    trace = false;
  }

(* [run] never ran the acceptor: stopping first makes it return at once
   and join the worker and ingest domains. *)
let shutdown srv =
  Server.stop srv;
  Server.run srv

let parse raw =
  match Http.read_request (Http.reader_of_string raw) with
  | Ok r -> r
  | Error e -> failwith ("unparseable request: " ^ Http.error_to_string e)

let raw (r : Workload.request) =
  match r.Workload.op with
  | Perfbench_core.Sched.Ingest -> Client.post_request r.Workload.target r.Workload.body
  | _ -> Client.get_request r.Workload.target

(* Reference bodies for the distinct read targets, computed on two
   domains (each request alone is still the sequential path). *)
let reference_bodies srv (requests : Workload.request array) =
  let seen = Hashtbl.create 256 in
  let targets =
    Array.to_list requests
    |> List.filter (fun (r : Workload.request) ->
           r.Workload.op <> Perfbench_core.Sched.Ingest
           && (not (Hashtbl.mem seen r.Workload.target))
           &&
           (Hashtbl.add seen r.Workload.target ();
            true))
    |> Array.of_list
  in
  let out = Array.make (Array.length targets) (0, "") in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length targets then begin
      let resp = Server.handle srv (parse (raw targets.(i))) in
      out.(i) <- (resp.Http.status, resp.Http.resp_body);
      work ()
    end
  in
  let other = Domain.spawn work in
  work ();
  Domain.join other;
  let tbl = Hashtbl.create (Array.length targets) in
  Array.iteri
    (fun i (r : Workload.request) -> Hashtbl.replace tbl r.Workload.target out.(i))
    targets;
  tbl
