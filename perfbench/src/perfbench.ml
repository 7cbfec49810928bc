(* End-to-end serving benchmark: `xrefine serve` as a child process,
   driven over its Unix-domain socket, every response checked.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Prints a human report on stderr and, as the last line of stdout, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 they
   are the per-layer ones, which add a traced in-process pass. See
   README.md beside this file. *)

module Stats = Perfbench_core.Stats
module Sched = Perfbench_core.Sched
module Prom = Perfbench_core.Prom
module Json = Xr_server.Json
open Perfbench_run

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0

let speclist =
  [
    ( "--workload",
      Arg.Set_string workload,
      "NAME one of: " ^ String.concat ", " Workload.names );
    ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
    ("--seconds", Arg.Set_float seconds, "S length of the measured window (default 10)");
    ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
  ]

(* Paths relative to the repository root, where run.sh starts us. *)
let xrefine = "_build/default/bin/xrefine.exe"

let work = ".perfbench-work"

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let now = Unix.gettimeofday

let clip s = if String.length s > 400 then String.sub s 0 400 ^ "..." else s

(* The part of [got] and [want] around their first differing byte. *)
let first_difference got want =
  let n = min (String.length got) (String.length want) in
  let rec at i = if i < n && got.[i] = want.[i] then at (i + 1) else i in
  let i = at 0 in
  let from = max 0 (i - 200) in
  let window s = clip (String.sub s from (String.length s - from)) in
  (i, window got, window want)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* ---- measured window ---------------------------------------------------- *)

type outcome = {
  req : Workload.request;
  timing : Sched.timing;  (** relative to the window start *)
  fault : string option;
      (** [None]: 200 and, for reads, the reference body byte for byte *)
  body : string;
}

(* The window closes once [seconds] have passed and every operation type
   present has its minimum sample count — or, as a backstop, at [cap]. *)
let cap = 90.

(* A request unanswered this long means the server is wedged: the window
   ends there, the request counts as failed, and the run reports it. *)
let request_timeout = 20.

(* Closed loop over one connection: send, wait, send the next. *)
let closed_loop ~sock ~check (requests : Workload.request array) =
  let conn = Client.open_conn ~timeout:request_timeout sock in
  let out = ref [] in
  let wedged = ref false in
  let start = now () in
  let present = Hashtbl.create 3 in
  Array.iter (fun (r : Workload.request) -> Hashtbl.replace present r.Workload.op 0) requests;
  let enough () = Hashtbl.fold (fun _ c acc -> acc && c >= Stats.min_samples) present true in
  (try
     Array.iter
       (fun (r : Workload.request) ->
         let rel = now () -. start in
         if (rel >= !seconds && enough ()) || rel >= cap then raise Exit;
         let sent = now () -. start in
         let res = Client.exchange conn (Inproc.raw r) in
         let done_ = now () -. start in
         Hashtbl.replace present r.Workload.op (Hashtbl.find present r.Workload.op + 1);
         let fault, body =
           match res with
           | Ok resp -> (check r resp, resp.Client.body)
           | Error e -> (Some e, "")
         in
         out := { req = r; timing = { Sched.due = sent; sent; done_ }; fault; body } :: !out;
         if done_ -. sent >= request_timeout then (
           wedged := true;
           raise Exit))
       requests
   with Exit -> ());
  Client.close conn;
  (List.rev !out, now () -. start, !wedged)

(* The open loop sleeps until [spin] seconds before a due time and polls
   from there. On a 2-core VM a timed sleep woke about 0.3 ms late at the
   median: a third of a cache hit's latency, charged to the server. *)
let spin = 0.001

(* Open loop: requests are due on the precomputed schedule and go out on
   whichever of the connections is idle; latency counts from the due
   time, so queueing behind a slow response is charged, not hidden. *)
let open_loop ~sock ~check ~connections (requests : Workload.request array) due =
  let conns = Array.init connections (fun _ -> Client.open_async sock) in
  let inflight = Array.make connections None in
  let out = ref [] in
  let n = Array.length requests in
  let next = ref 0 in
  let start = now () in
  let finish i result =
    match inflight.(i) with
    | None -> ()
    | Some (k, sent) ->
      inflight.(i) <- None;
      let done_ = now () -. start in
      let r = requests.(k) in
      let fault, body =
        match result with
        | Ok resp -> (check r resp, resp.Client.body)
        | Error e -> (Some e, "")
      in
      out := { req = r; timing = { Sched.due = due.(k); sent; done_ }; fault; body } :: !out
  in
  let busy () = Array.exists Option.is_some inflight in
  let wedged = ref false in
  while ((!next < n && now () -. start < cap) || busy ()) && not !wedged do
    let rel = now () -. start in
    (* dispatch every due request an idle connection can take *)
    Array.iteri
      (fun i a ->
        if inflight.(i) = None && !next < n && due.(!next) <= rel && rel < cap then begin
          let k = !next in
          incr next;
          let sent = now () -. start in
          match Client.async_send a (Inproc.raw requests.(k)) with
          | _ -> inflight.(i) <- Some (k, sent)
          | exception Unix.Unix_error (e, _, _) ->
            Client.async_close a;
            inflight.(i) <- Some (k, sent);
            finish i (Error (Unix.error_message e))
        end)
      conns;
    let fds =
      Array.to_list conns
      |> List.filteri (fun i _ -> inflight.(i) <> None)
      |> List.filter_map (fun a -> a.Client.afd)
    in
    let idle = Array.exists Option.is_none inflight in
    let timeout =
      if idle && !next < n then Float.max 0. (due.(!next) -. (now () -. start) -. spin) else 0.05
    in
    match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      Array.iteri
        (fun i a ->
          match a.Client.afd with
          | Some fd when inflight.(i) <> None && List.mem fd readable -> (
            match Client.async_poll a with Some res -> finish i res | None -> ())
          | _ -> ())
        conns;
      Array.iteri
        (fun i slot ->
          match slot with
          | Some (_, sent) when now () -. start -. sent >= request_timeout ->
            wedged := true;
            finish i (Error "timed out")
          | _ -> ())
        inflight
  done;
  Array.iter Client.async_close conns;
  (List.rev !out, now () -. start, !wedged)

(* ---- helpers -------------------------------------------------------------- *)

let scrape sock path =
  let c = Client.open_conn sock in
  let r = Client.get c path in
  Client.close c;
  match r with
  | Ok { Client.status = 200; body; _ } -> body
  | Ok { Client.status; _ } -> failwith (Printf.sprintf "%s answered %d" path status)
  | Error e -> failwith (path ^ ": " ^ e)

let json_num name j =
  match Json.member name j with
  | Some (Json.Int n) -> float_of_int n
  | Some (Json.Float f) -> f
  | _ -> 0.

(* Resident index bytes per node, summed over the served corpora. *)
let index_bytes_per_node stats_body =
  match Json.of_string stats_body with
  | Error e -> failwith ("/stats: " ^ e)
  | Ok j ->
    let per =
      match Json.member "corpora" j with Some (Json.List l) -> l | _ -> [ j ]
    in
    let bytes, nodes =
      List.fold_left
        (fun (b, n) c ->
          let ix = Option.value ~default:Json.Null (Json.member "index" c) in
          (b +. json_num "packed_bytes" ix, n +. json_num "nodes" c))
        (0., 0.) per
    in
    Stats.ratio bytes nodes

let marker_count sock corpus =
  let body =
    scrape sock (Printf.sprintf "/search?q=%s&corpus=%s&limit=1" Workload.marker corpus)
  in
  match Json.of_string body with Ok j -> int_of_float (json_num "count" j) | Error _ -> -1

(* The first refined query equals the intent: the rule `xrefine replay`
   applies, read off the served body. *)
let intent_hit (o : outcome) =
  match o.req.Workload.intent with
  | None -> None
  | Some intent -> (
    match Json.of_string o.body with
    | Ok j -> (
      match Json.member "refinements" j with
      | Some (Json.List (first :: _)) -> (
        match Json.member "keywords" first with
        | Some (Json.List ks) ->
          Some (List.map (function Json.String s -> s | _ -> "") ks = intent)
        | _ -> Some false)
      | _ -> Some false)
    | Error _ -> Some false)

(* ---- the run ------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let ms_of s = s *. 1000.

let run () =
  let name = !workload in
  if not (List.mem name Workload.names) then failwith ("unknown workload " ^ name);
  if not (Sys.file_exists xrefine) then failwith ("missing server binary " ^ xrefine);
  rm_rf work;
  Unix.mkdir work 0o755;
  let sock = Filename.concat work "serve.sock" in
  (* the reference and the sampler run on a one-domain shared pool *)
  Xr_pool.reset_global ~domains:1 ();
  log "perfbench: %s seed %d: generating workload" name !seed;
  let wl = Workload.build ~name ~seed:!seed ~seconds:!seconds ~dir:work in
  log "perfbench: %d requests; in-process build %.2f s (parse %.2f, compile %.2f, index %.2f)"
    (Array.length wl.Workload.requests)
    (wl.Workload.parse_s +. wl.Workload.compile_s +. wl.Workload.index_s)
    wl.Workload.parse_s wl.Workload.compile_s wl.Workload.index_s;
  let reference corpora =
    let srv =
      Inproc.start ~sock:(Filename.concat work "ref.sock") ~config:Inproc.reference_config corpora
    in
    Fun.protect ~finally:(fun () -> Inproc.shutdown srv) (fun () ->
        Workload.with_bench_gc (fun () -> Inproc.reference_bodies srv wl.Workload.requests))
  in
  let t0 = now () in
  let refs = reference wl.Workload.corpora in
  log "perfbench: %d reference bodies in %.2f s" (Hashtbl.length refs) (now () -. t0);
  (* A read whose answer changes as writes land has no fixed reference:
     the workload itself is at fault, so the run stops here. The other
     corpora's parts of a body are the same either way, so the write
     corpus is checked alone. *)
  Option.iter
    (fun (served, probe) ->
      let before = reference [ served ] and after = reference [ probe ] in
      Hashtbl.iter
        (fun target body ->
          if Hashtbl.find_opt after target <> Some body then
            failwith ("the write corpus answers the read " ^ target))
        before)
    wl.Workload.write_probe;
  let traced =
    if !trace = 1 then begin
      (* the traced instance mirrors the server: default shared pool *)
      Xr_pool.reset_global ();
      let t = Traced.run ~sock:(Filename.concat work "traced.sock") wl in
      Xr_pool.reset_global ~domains:1 ();
      Some t
    end
    else None
  in
  (* free the in-process indexes before the server takes the machine *)
  List.iter
    (fun (c : Workload.corpus) -> c.Workload.index <- None)
    (wl.Workload.corpora
    @ match wl.Workload.write_probe with Some (_, probe) -> [ probe ] | None -> []);
  Gc.compact ();
  let files = List.map (fun (c : Workload.corpus) -> c.Workload.file) wl.Workload.corpora in
  let srv_log = Filename.concat work "serve.log" in
  let spawn () = Proc.spawn ~xrefine:xrefine ~docs:files ~sock ~log:srv_log in
  let setups = ref [] in
  let rec start k =
    let t0 = now () in
    let p = spawn () in
    match Proc.wait_healthy p ~started:t0 ~timeout:120. with
    | exception e ->
      Proc.stop p;
      raise e
    | s ->
      setups := s :: !setups;
      if k > 1 then (
        Proc.stop p;
        start (k - 1))
      else p
  in
  let server = start wl.Workload.setups in
  Fun.protect ~finally:(fun () -> Proc.stop server) @@ fun () ->
  log "perfbench: server healthy after %s s"
    (String.concat ", " (List.rev_map (Printf.sprintf "%.2f") !setups));
  let bpn = index_bytes_per_node (scrape sock "/stats") in
  let before = Prom.parse (scrape sock "/metrics") in
  let check (r : Workload.request) (resp : Client.response) =
    if resp.Client.status <> 200 then
      Some (Printf.sprintf "status %d: %s" resp.Client.status (clip resp.Client.body))
    else
      match r.Workload.op with
      | Sched.Ingest -> None
      | _ -> (
        match Hashtbl.find_opt refs r.Workload.target with
        | Some (200, body) when String.equal body resp.Client.body -> None
        | Some (200, body) ->
          let i, got, want = first_difference resp.Client.body body in
          Some
            (Printf.sprintf
               "body differs from the reference at byte %d:\n  got  ...%s\n  want ...%s" i got
               want)
        | _ -> Some "no reference body")
  in
  let outcomes, window, wedged =
    match wl.Workload.due with
    | None -> closed_loop ~sock ~check wl.Workload.requests
    | Some due ->
      open_loop ~sock ~check ~connections:wl.Workload.connections wl.Workload.requests due
  in
  if wedged then
    log "perfbench: a request went unanswered for %.0f s: the server is wedged"
      request_timeout;
  (* a wedged server answers nothing more: keep the window's numbers *)
  let after = if wedged then before else Prom.parse (scrape sock "/metrics") in
  let acked =
    List.length
      (List.filter (fun o -> o.fault = None && o.req.Workload.op = Sched.Ingest) outcomes)
  in
  let audit_ok =
    match wl.Workload.write_corpus with
    | None -> true
    | Some _ when wedged -> false
    | Some corpus ->
      let n = marker_count sock corpus in
      log "perfbench: write audit: marker count %d, acknowledged writes %d" n acked;
      n = acked
  in
  let rss = Proc.peak_rss_mb server in
  Proc.stop server;
  let attempted = List.length outcomes in
  if attempted = 0 then failwith "no request completed in the window";
  let failed =
    List.length (List.filter (fun o -> o.fault <> None) outcomes) + if audit_ok then 0 else 1
  in
  List.iter
    (fun o ->
      Option.iter
        (fun f ->
          log "perfbench: failed at %.3f s: %s %s: %s" o.timing.Sched.sent
            (if o.req.Workload.op = Sched.Ingest then "POST" else "GET")
            o.req.Workload.target f)
        o.fault)
    (List.filteri (fun i _ -> i < 10) (List.filter (fun o -> o.fault <> None) outcomes));
  let of_op op = List.filter (fun o -> o.req.Workload.op = op) outcomes in
  let lat_ms l = Array.of_list (List.map (fun o -> ms_of (Sched.latency o.timing)) l) in
  let service_ms l = Array.of_list (List.map (fun o -> ms_of (Sched.service o.timing)) l) in
  let reads = List.filter (fun o -> o.req.Workload.op <> Sched.Ingest) outcomes in
  let read_lat = lat_ms reads in
  let searches = lat_ms (of_op Sched.Search) and refines = lat_ms (of_op Sched.Refine) in
  (* ingest latency runs from the send to the synced (published) answer *)
  let ingests = service_ms (of_op Sched.Ingest) in
  let qps = float_of_int (List.length reads) /. window in
  let setup_s = Stats.median (Array.of_list !setups) in
  let hits = List.filter_map intent_hit outcomes in
  let intent_top1 =
    Stats.ratio
      (float_of_int (List.length (List.filter Fun.id hits)))
      (float_of_int (List.length hits))
  in
  let pct p a = if Array.length a = 0 then 0. else Stats.percentile ~pct:p a in
  (* every operation type of the stream needs its minimum sample count,
     or its percentiles rest on too few samples past p90 *)
  let short =
    List.filter
      (fun (_, op, a) ->
        Array.exists (fun (r : Workload.request) -> r.Workload.op = op) wl.Workload.requests
        && Array.length a < Stats.min_samples)
      [
        ("search", Sched.Search, searches);
        ("refine", Sched.Refine, refines);
        ("ingest", Sched.Ingest, ingests);
      ]
  in
  List.iter
    (fun (nm, _, a) ->
      log "perfbench: only %d %s samples, fewer than %d" (Array.length a) nm Stats.min_samples)
    short;
  log "perfbench: %d requests in %.2f s: %d failed; read p50 %.2f ms p90 %.2f ms (n=%d), qps %.2f"
    attempted window failed (pct 50 read_lat) (pct 90 read_lat) (Array.length read_lat) qps;
  List.iter
    (fun (nm, a) ->
      if Array.length a > 0 then
        log "  %-7s n=%4d (%d beyond p90)  p50 %8.2f ms  p90 %8.2f ms" nm (Array.length a)
          (Stats.beyond ~pct:90 (Array.length a)) (pct 50 a) (pct 90 a))
    [ ("search", searches); ("refine", refines); ("ingest", ingests) ];
  log "  setup_s %.3f  rss_peak_mb %.1f  index_bytes_per_node %.3f  intent_top1 %.4f (n=%d)"
    setup_s rss bpn intent_top1 (List.length hits);
  (* provenance for the recorded baseline: corpora, flags, sample counts *)
  let detail =
    Json.Obj
      [
        ("workload", Json.String name);
        ("seed", Json.Int !seed);
        ( "corpora",
          Json.List
            (List.map
               (fun (c : Workload.corpus) ->
                 Json.Obj
                   [
                     ("name", Json.String c.Workload.cname);
                     ("nodes", Json.Int c.Workload.nodes);
                   ])
               wl.Workload.corpora) );
        ( "server_flags",
          Json.String "xrefine serve -d FILE... --unix SOCKET (all other flags default)" );
        ("connections", Json.Int wl.Workload.connections);
        ("window_s", Json.Float window);
        ("setups_s", Json.List (List.rev_map (fun s -> Json.Float s) !setups));
        ( "samples",
          Json.Obj
            [
              ("read", Json.Int (Array.length read_lat));
              ("search", Json.Int (Array.length searches));
              ("refine", Json.Int (Array.length refines));
              ("ingest", Json.Int (Array.length ingests));
            ] );
      ]
  in
  log "perfbench-detail: %s" (Json.to_string detail);
  let end_to_end =
    [
      ("setup_s", setup_s, "s");
      ("read_p50_ms", pct 50 read_lat, "ms");
      ("qps", qps, "1/s");
      ("rss_peak_mb", rss, "MB");
      ("index_bytes_per_node", bpn, "B");
    ]
  in
  let metrics =
    match traced with
    | None -> end_to_end
    | Some t ->
      Layers.metrics ~wl ~before ~after ~window ~reads:(List.length reads)
        ~writes:(List.length (of_op Sched.Ingest))
        ~lateness:(Array.of_list (List.map (fun o -> ms_of (Sched.lateness o.timing)) outcomes))
        ~searches ~refines ~ingests ~read_lat
        ~failed_frac:(Stats.ratio (float_of_int failed) (float_of_int (max 1 attempted)))
        ~intent_top1 t
  in
  (* a traced re-execution that renders other bytes than handle did means
     the timed layers are not the ones the request ran *)
  let faithful =
    match traced with
    | Some t when t.Traced.mismatches > 0 ->
      log "perfbench: traced pass: %d re-executed bodies differ from handle's"
        t.Traced.mismatches;
      false
    | _ -> true
  in
  {
    correct = failed = 0 && audit_ok && faithful && short = [];
    attempted;
    failed;
    metrics;
  }

let print_result r =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let metrics =
    String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
         r.metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed metrics

exception Interrupted

let () =
  (* a stopped benchmark still stops its server (the finalizers run) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Interrupted)))
    [ Sys.sigterm; Sys.sigint ];
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench [options]";
  match run () with
  | r ->
    rm_rf work;
    print_result r
  | exception e ->
    log "perfbench: FAILED: %s" (Printexc.to_string e);
    (match In_channel.with_open_text (Filename.concat work "serve.log") In_channel.input_all with
    | text ->
      let lines = String.split_on_char '\n' text in
      let n = List.length lines in
      log "perfbench: server log tail:\n%s"
        (String.concat "\n" (List.filteri (fun i _ -> i >= n - 20) lines))
    | exception Sys_error _ -> ());
    rm_rf work;
    exit 1
