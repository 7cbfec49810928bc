(* The traced pass: replay a deterministic sample of the workload's
   reads in-process, time [Server.handle] (with the request parse before
   it and the serialization after it, the worker's in-memory path) as the
   root span, then call the layer functions the request path runs, in
   order, each as a child span. Nothing in the program is instrumented
   for this: the one split below a layer call, of [Plan.run_search] into
   its scan and its filter, comes from the spans the program records
   anyway (tracing is on by default in the server). *)

module Spans = Perfbench_core.Spans
module Sched = Perfbench_core.Sched
module Server = Xr_server.Server
module Http = Xr_server.Http
module Json = Xr_server.Json
module Api = Xr_server.Api
module Plan = Xr_batch.Plan
module Engine = Xr_refine.Engine
module Index = Xr_index.Index

type t = {
  mutable spans : Spans.span list;
  mutable next : int;
  mutable requests : int;
  mutable mismatches : int;  (** re-executed bodies that differ from handle's *)
  counts : (string, float) Hashtbl.t;
}

let create () =
  { spans = []; next = 1; requests = 0; mismatches = 0; counts = Hashtbl.create 16 }

let count t name v =
  Hashtbl.replace t.counts name (v +. try Hashtbl.find t.counts name with Not_found -> 0.)

let get t name = try Hashtbl.find t.counts name with Not_found -> 0.

let now_ns () = Int64.to_float (Xr_obs.Tracing.now_ns ())

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

(* [span t ~parent name f] times [f] and records its minor allocation;
   returns the result and the span id ([id] when one was reserved). *)
let span t ?(id = fresh t) ~parent name f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let v = f () in
  let ns = now_ns () -. t0 in
  let words = Gc.minor_words () -. w0 in
  t.spans <- { Spans.id; parent; name; ns; words } :: t.spans;
  (v, id)

let span_ t ~parent name f = fst (span t ~parent name f)

let search_config =
  { Engine.default_config with Engine.slca = Xr_slca.Engine.Scan_parallel }

let refine_config =
  { Engine.default_config with Engine.k = 3; algorithm = Engine.Partition }

(* [Plan.run_search] under a program trace, timed as the span
   [slca.run]. Its own spans give the children: [slca.scan] (whichever
   kernel the plan dispatched to) and [meaningful.filter] (the
   statistics handle, "parse", plus "slca.filter"). The program records
   durations only, so these two carry no allocation figure. *)
let run_search t ~parent (plan : Plan.search) index =
  let (kept, tid), run_id =
    span t ~parent "slca.run" (fun () ->
        Xr_obs.Tracing.with_trace "perfbench" (fun () ->
            Plan.run_search ~config:search_config plan index))
  in
  let recorded = Xr_obs.Tracing.spans_of_trace tid in
  let root =
    List.find_map
      (fun (s : Xr_obs.Tracing.span) ->
        if s.Xr_obs.Tracing.parent_id = 0 then Some s.Xr_obs.Tracing.span_id else None)
      recorded
  in
  let ns names =
    List.fold_left
      (fun acc (s : Xr_obs.Tracing.span) ->
        if Some s.Xr_obs.Tracing.parent_id = root && List.mem s.Xr_obs.Tracing.name names
        then acc +. Int64.to_float s.Xr_obs.Tracing.dur_ns
        else acc)
      0. recorded
  in
  List.iter
    (fun (name, names) ->
      let id = fresh t in
      t.spans <- { Spans.id; parent = run_id; name; ns = ns names; words = 0. } :: t.spans)
    [ ("slca.scan", [ "slca.scan" ]); ("meaningful.filter", [ "parse"; "slca.filter" ]) ];
  kept

(* SLCAs before the meaningful filter, from an untimed ANALYZE run of
   the same plan: [Plan.run_search] returns only the kept ones. *)
let slca_count (plan : Plan.search) index =
  let _, report =
    Xr_obs.Analyze.with_report (fun () -> Plan.run_search ~config:search_config plan index)
  in
  List.fold_left
    (fun acc (s : Xr_obs.Analyze.stage) ->
      if s.Xr_obs.Analyze.sg_name = "slca.scan" then acc + s.Xr_obs.Analyze.sg_out else acc)
    0 (Xr_obs.Analyze.stages report)

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

(* Every "dewey" string in a rendered payload: the items it rendered. *)
let rec deweys acc = function
  | Json.Obj fields ->
    List.fold_left
      (fun acc (k, v) ->
        match (k, v) with "dewey", Json.String d -> d :: acc | _ -> deweys acc v)
      acc fields
  | Json.List l -> List.fold_left deweys acc l
  | _ -> acc

(* The per-corpus render [Server.handle] runs on a miss, re-executed
   layer by layer under [parent]. *)
let render_corpus t ~parent ~op ~rank ~limit (index : Index.t) query =
  let doc = index.Index.doc in
  let searched = ref None in
  let payload =
    match op with
    | Sched.Search ->
      let plan =
        span_ t ~parent "plan.compile" (fun () ->
            Plan.compile_search ~config:search_config index query)
      in
      let kept = run_search t ~parent plan index in
      searched := Some plan;
      count t "meaningful.kept" (float_of_int (List.length kept));
      let entries =
        if rank then
          span_ t ~parent "rank" (fun () ->
              let ids = List.filter_map (Xr_xml.Doc.keyword_id doc) query in
              Xr_slca.Result_rank.rank index.Index.stats ~query:ids kept)
        else List.map (fun d -> (d, 0.)) kept
      in
      span t ~parent "render" (fun () ->
          Api.search_payload index ~query ~ranked:rank ~limit entries)
    | Sched.Refine | Sched.Ingest ->
      let plan =
        span_ t ~parent "refine.mine" (fun () ->
            Plan.compile_refine ~config:refine_config index query)
      in
      let resp =
        span_ t ~parent "refine.run" (fun () ->
            Plan.run_refine ~config:refine_config plan index query)
      in
      (match resp.Engine.stats with
      | Engine.Partition_stats s ->
        count t "refine.visited" (float_of_int s.Xr_refine.Partition.partitions_visited);
        count t "refine.skipped" (float_of_int s.Xr_refine.Partition.partitions_skipped);
        count t "refine.slca_runs" (float_of_int s.Xr_refine.Partition.slca_runs)
      | _ -> ());
      span t ~parent "render" (fun () -> Api.refine_payload index ~query ~limit resp)
  in
  let payload, render_id = payload in
  let items = List.rev_map Xr_xml.Dewey.of_string (deweys [] payload) in
  count t "render.items" (float_of_int (List.length items));
  span_ t ~parent:render_id "render.subtree" (fun () ->
      List.iter (fun d -> ignore (Xr_xml.Doc.subtree doc d)) items);
  (* after the timed calls, so its scan warms nothing they measure *)
  Option.iter
    (fun plan -> count t "slca.results" (float_of_int (slca_count plan index)))
    !searched;
  payload

(* The layer calls of one request, as child spans of [root]: parse, then
   unless handle served it from its cache ([hit]) each corpus's render.
   With a single corpus the result is the body the layers rendered,
   which must equal the one handle returned. They run under a request
   trace, as handle does, so the spans the program records on the way
   cost them what they cost handle. *)
let layers t ~root ~corpora ~limit (r : Workload.request) raw ~hit =
  fst @@ Xr_obs.Tracing.with_trace "request"
  @@ fun () ->
  let req = span_ t ~parent:root "http.parse" (fun () -> Inproc.parse raw) in
  if hit then None
  else
    let query =
      Xr_xml.Token.tokenize (Option.value ~default:"" (Http.query_param req "q"))
    in
    let rank = Http.query_param req "rank" = Some "true" in
    let render index =
      render_corpus t ~parent:root ~op:r.Workload.op ~rank ~limit index query
    in
    match corpora with
    | [ (_, index) ] ->
      let payload = render index in
      let body =
        span_ t ~parent:root "render.json" (fun () -> Json.to_string payload ^ "\n")
      in
      count t "render.bytes" (float_of_int (String.length body));
      Some body
    | corpora ->
      (* several corpora: the per-corpus renders are timed; the
         scatter-gather merge around them stays in handle's self time *)
      List.iter
        (fun (_, index) ->
          let payload = render index in
          let body =
            span_ t ~parent:root "render.json" (fun () -> Json.to_string payload)
          in
          count t "render.bytes" (float_of_int (String.length body)))
        corpora;
      None

(* On a miss-only instance ([miss_only]):
   - the layer calls run once, untimed, first, so handle and the timed
     layers both find the process-wide memos (co-occurrence statistics,
     merged views) in the same state, while the server's plan cache
     stays cold and every timed handle still compiles and renders;
   - every request renders, so the layers need nothing from handle's
     answer, and on every other request they run before handle, which
     cancels whatever the second of two runs gains from warm CPU
     caches.
   With the result cache on, handle runs first: its answer says whether
   there was anything to render. *)
let one t srv ~miss_only ~corpora ~limit i (r : Workload.request) =
  let raw = Inproc.raw r in
  if miss_only then ignore (layers (create ()) ~root:0 ~corpora ~limit r raw ~hit:false);
  let root = fresh t in
  (* as a server worker does it: handle under a request trace (tracing
     is on by default), then serialize *)
  let handle () =
    fst
      (span t ~id:root ~parent:0 "server.handle" (fun () ->
           let resp, _ =
             Xr_obs.Tracing.with_trace "request" (fun () ->
                 Server.handle srv (Inproc.parse raw))
           in
           ignore (Http.serialize ~keep_alive:true resp);
           resp))
  in
  let resp, body =
    if miss_only && i mod 2 = 1 then
      let body = layers t ~root ~corpora ~limit r raw ~hit:false in
      (handle (), body)
    else
      let resp = handle () in
      let hit = List.assoc_opt "x-cache" resp.Http.resp_headers = Some "hit" in
      (resp, layers t ~root ~corpora ~limit r raw ~hit)
  in
  t.requests <- t.requests + 1;
  (match body with
  | Some b when b <> resp.Http.resp_body -> t.mismatches <- t.mismatches + 1
  | _ -> ());
  let wire =
    span_ t ~parent:root "http.serialize" (fun () -> Http.serialize ~keep_alive:true resp)
  in
  count t "http.bytes_out" (float_of_int (String.length wire))

(* Time [Index.append_partition_delta], the write path's index step, on
   the workload's write documents applied in order. *)
let appends t (index : Index.t) docs =
  ignore
    (List.fold_left
       (fun ix doc ->
         let tree = Xr_xml.Parser.parse_string doc in
         let (ix, _), _ =
           span t ~parent:0 "ingest.append" (fun () -> Index.append_partition_delta ix tree)
         in
         ix)
       index docs)

let run ~sock (wl : Workload.t) =
  let t = create () in
  (* Miss-only workloads run on a cache-off instance, so every traced
     request renders; their requests are distinct, so each also compiles
     its plan, as on the server. The mixed workload keeps the result
     cache: its hits are what it measures. *)
  let miss_only = wl.Workload.write_corpus = None in
  let config =
    if miss_only then { Server.default_config with Server.cache_capacity = 0 }
    else Server.default_config
  in
  let srv = Inproc.start ~sock ~config wl.Workload.corpora in
  (* on by default in the server; [run_search] reads its spans *)
  Xr_obs.Tracing.enable ();
  Fun.protect ~finally:(fun () -> Inproc.shutdown srv) @@ fun () ->
  let corpora =
    List.map
      (fun (c : Workload.corpus) -> (c.Workload.cname, Workload.index c))
      wl.Workload.corpora
  in
  let limit = Server.default_config.Server.result_limit in
  let sample =
    match wl.Workload.name with "search-100k" -> 40 | "refine-querylog-20k" -> 100 | _ -> 300
  in
  let reads =
    Array.to_list wl.Workload.requests
    |> List.filter (fun (r : Workload.request) -> r.Workload.op <> Sched.Ingest)
  in
  List.iteri (one t srv ~miss_only ~corpora ~limit) (take sample reads);
  (match wl.Workload.write_corpus with
  | Some w ->
    let c =
      List.find (fun (c : Workload.corpus) -> c.Workload.cname = w) wl.Workload.corpora
    in
    let docs =
      Array.to_list wl.Workload.requests
      |> List.filter (fun (r : Workload.request) -> r.Workload.op = Sched.Ingest)
      |> List.map (fun (r : Workload.request) -> r.Workload.body)
    in
    appends t (Workload.index c) (take 100 docs)
  | None -> ());
  t
