module Index = Xr_index.Index
module Engine = Xr_refine.Engine
module Generation = Xr_ingest.Generation
module Ingest = Xr_ingest.Ingest

type address = Tcp of string * int | Unix_socket of string

type config = {
  addr : address;
  domains : int;
  queue_bound : int;
  cache_capacity : int;
  cache_shards : int;
  deadline_ms : float;
  keepalive_requests : int;
  result_limit : int;
  parallel_threshold : int;
  limits : Http.limits;
  log : bool;
  trace : bool;  (* per-request span recording + /debug/trace *)
  slow_query_ms : float;  (* log requests at or above this; 0 = off *)
  shards : int;  (* serving shards; 0 = one per corpus *)
  ingest_queue : int;  (* per-corpus ingest queue bound *)
  ingest_batch : int;  (* max documents merged per generation *)
  batch : bool;  (* compiled plans + single-flight request coalescing *)
  coalesce_window_ms : float;  (* leader wait before rendering; 0 = no added latency *)
  plan_cache_capacity : int;  (* per-corpus compiled-plan entries *)
}

let default_config =
  {
    addr = Tcp ("127.0.0.1", 8080);
    domains = Domain.recommended_domain_count ();
    queue_bound = 64;
    cache_capacity = 512;
    cache_shards = 8;
    deadline_ms = 5000.;
    keepalive_requests = 1000;
    result_limit = 20;
    parallel_threshold = Xr_slca.Parallel.default_threshold;
    limits = Http.default_limits;
    log = false;
    trace = true;
    slow_query_ms = 0.;
    shards = 0;
    ingest_queue = 256;
    ingest_batch = 32;
    batch = true;
    coalesce_window_ms = 0.;
    plan_cache_capacity = 512;
  }

type corpus_spec = { name : string; index : Index.t; kv : Xr_store.Kv.t option }

(* One live corpus: its generation chain, its write path, and the
   completion trie for the current generation (swapped on publish). *)
type corpus_state = {
  cname : string;
  shard_id : int;
  gens : Generation.t;
  ingest : Ingest.t;
  ctrie : Xr_text.Trie.t Atomic.t;
  plans : Xr_batch.Plan_cache.t option;
      (* compiled query plans, keyed by generation id — a publish
         retires them by keyspace, no invalidation hook needed *)
}

(* What one corpus contributes to a cacheable endpoint, rendered at its
   pinned generation. /search stays typed so the multi-corpus merge can
   order items without re-reading them; its EXPLAIN/ANALYZE [blocks]
   ride along per corpus. *)
type results = {
  query : string list;
  ranked : bool;
  count : int;
  items : Api.item list;
  blocks : (string * Json.t) list;
}

type body =
  | Results of results
  | Payload of Json.t  (* /refine, /suggest: the corpus's own response *)
  | Completions of { prefix : string; completions : (string * int) list }

(* The unit a shard caches and coalesces: one partial per served corpus,
   tagged with the (corpus, generation, index mode) it was pinned at,
   which is also what the slow-query log attributes a request to. *)
type partial = { corpus : string; generation : int; mode : string; body : body }

(* One serving shard: a subset of the corpora plus its own result cache.
   Cache keys embed the pinned generation ids, so an entry written for
   generation N can never answer a request admitted at N+1 — the cache
   is also cleared on publish, but the tag closes the race where a
   reader still on N inserts after the clear. *)
type shard = {
  sid : int;
  corpora : corpus_state array;
  cache : partial list Lru.t;
  flights : partial list Xr_batch.Coalesce.t option;
      (* single-flight admission on cache misses: concurrent identical
         requests coalesce onto one render *)
}

type conn = { fd : Unix.file_descr; accepted_at : float }

type t = {
  config : config;
  shards : shard array;
  single : bool;  (* exactly one corpus: serve the legacy (byte-stable) schemas *)
  server_metrics : Metrics.t;
  listen_fd : Unix.file_descr;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  pool : conn Pool.t;
  log_lock : Mutex.t;
}

let metrics t = t.server_metrics

let queue_depth t = Pool.depth t.pool

let iter_corpora t f = Array.iter (fun s -> Array.iter (f s) s.corpora) t.shards

let corpora_names t =
  let acc = ref [] in
  iter_corpora t (fun _ cs -> acc := cs.cname :: !acc);
  List.rev !acc

let find_corpus t name =
  let found = ref None in
  iter_corpora t (fun _ cs -> if cs.cname = name then found := Some cs);
  !found

let combined_cache_stats t =
  Array.fold_left
    (fun (acc : Lru.stats) s ->
      let st = Lru.stats s.cache in
      {
        Lru.hits = acc.Lru.hits + st.Lru.hits;
        misses = acc.Lru.misses + st.Lru.misses;
        entries = acc.Lru.entries + st.Lru.entries;
        evictions = acc.Lru.evictions + st.Lru.evictions;
        capacity = acc.Lru.capacity + st.Lru.capacity;
        shards = acc.Lru.shards + st.Lru.shards;
      })
    { Lru.hits = 0; misses = 0; entries = 0; evictions = 0; capacity = 0; shards = 0 }
    t.shards

(* ---- request handling --------------------------------------------------- *)

let bad_request msg = Http.json_response ~status:400 (Api.error_payload msg)

let tokenized_query req =
  Xr_obs.Tracing.with_span "parse" (fun () ->
      match Http.query_param req "q" with
      | None -> Error (bad_request "missing query parameter q")
      | Some raw -> (
        match Xr_xml.Token.tokenize raw with
        | [] -> Error (bad_request "query has no keywords")
        | toks -> Ok toks))

let int_param req name ~default =
  match Http.query_param req name with
  | None -> Ok default
  | Some v -> (
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (bad_request (Printf.sprintf "parameter %s must be an integer" name)))

let bool_param req name =
  match Http.query_param req name with
  | Some ("true" | "1" | "yes") -> true
  | _ -> false

(* Per-shard cached evaluation. Pins every served corpus of the shard,
   tags the cache key with the pinned generation ids, and either serves
   the cached partials or renders them with [render_one] and caches
   them. Rendering is deterministic, so a hit answers byte-identically
   to the miss that populated it. *)
let shard_partials ?(cache = true) shard members ~base_key ~render_one =
  let pins = List.map (fun cs -> (cs, Generation.pin cs.gens)) members in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, g) -> Generation.unpin g) pins)
  @@ fun () ->
  let render () =
    List.map
      (fun (cs, (g : Generation.gen)) ->
        {
          corpus = cs.cname;
          generation = g.Generation.id;
          mode = Index.mode_name (Index.mode g.Generation.index);
          body = render_one cs g;
        })
      pins
  in
  let gsig =
    String.concat ","
      (List.map (fun (_, g) -> string_of_int g.Generation.id) pins)
  in
  let key = Printf.sprintf "g%s|%s" gsig base_key in
  if not cache then
    (* ANALYZE runs report fresh actuals: no cache read or write, no
       coalescing onto another request's render. *)
    (render (), false)
  else
    match Xr_obs.Tracing.with_span "cache" (fun () -> Lru.find shard.cache key) with
    | Some parts -> (parts, true)
    | None ->
      (* Single-flight on the generation-tagged key: every member of a
         coalesced flight pinned the same generations (key equality),
         so the leader's partials answer all of them. Followers count
         as cache hits — they were served without rendering. *)
      let parts, follower =
        match shard.flights with
        | None -> (render (), false)
        | Some flights -> Xr_batch.Coalesce.run flights ~key render
      in
      if not follower then Lru.add shard.cache key parts;
      (parts, follower)

(* Fan a computation out over the shards that serve this request. One
   shard runs inline; several go through the shared domain pool (the
   scatter of scatter-gather), which re-raises a task's exception once
   the batch is done. Results come back in shard order. *)
let fan_out tasks =
  match tasks with
  | [| task |] -> [| task () |]
  | tasks ->
    let out = Array.make (Array.length tasks) None in
    Xr_pool.run (Xr_pool.global ())
      (Array.mapi (fun i task () -> out.(i) <- Some (task ())) tasks);
    Array.map Option.get out

let cache_headers hit =
  [ ("content-type", "application/json"); ("x-cache", (if hit then "hit" else "miss")) ]

let with_fields fields = function Json.Obj f -> Json.Obj (f @ fields) | j -> j

let tagged corpus = function
  | Json.Obj fields -> Json.Obj (("corpus", Json.String corpus) :: fields)
  | j -> j

(* A corpus's own response: the whole body in single-corpus mode. *)
let payload = function
  | Results r ->
    with_fields r.blocks
      (Api.search_json ~query:r.query ~ranked:r.ranked ~count:r.count r.items)
  | Payload j -> j
  | Completions c -> Api.complete_payload ~prefix:c.prefix c.completions

(* Evaluate a cacheable endpoint: scatter over the shards serving the
   request, gather their partials in shard order, and render JSON once.
   [render_one] renders a single corpus at a pinned generation (handed
   whole, so plan caches can key on its id). With one corpus the body is
   its (legacy, byte-stable) payload; with several, [merge] combines the
   partials. Also returns the (corpus, generation, index mode) tuples
   the response was served from. *)
let gather ?cache t req ~base_key ~render_one ~merge =
  (* all corpora, or the one named by [?corpus=] *)
  let only = Http.query_param req "corpus" in
  let served cs = Option.fold ~none:true ~some:(String.equal cs.cname) only in
  let members s = List.filter served (Array.to_list s.corpora) in
  let shards =
    List.filter_map
      (fun s -> match members s with [] -> None | m -> Some (s, m))
      (Array.to_list t.shards)
  in
  match (shards, only) with
  | [], Some name ->
    (Http.json_response ~status:404 (Api.error_payload ("unknown corpus " ^ name)), [])
  | _ ->
    let results =
      fan_out
        (Array.of_list
           (List.map
              (fun (shard, members) () ->
                shard_partials ?cache shard members ~base_key ~render_one)
              shards))
    in
    let parts = List.concat_map fst (Array.to_list results) in
    let hit = Array.for_all snd results in
    let json = if t.single then payload (List.hd parts).body else merge parts in
    ( Http.response ~status:200 ~headers:(cache_headers hit) (Json.to_string json ^ "\n"),
      List.map (fun p -> (p.corpus, p.generation, p.mode)) parts )

(* ---- merges for the gather (multi-corpus) schemas --------------------- *)

(* Tag each result item with its corpus and merge the per-corpus ranked
   lists: score descending — compared at the %.12g precision the JSON
   printer writes, so ties are the ties a client sees — then
   (corpus, dewey), deterministic across runs and cache states. Each
   corpus's EXPLAIN/ANALYZE blocks follow, tagged with the corpus. *)
let merge_search t ~query ~ranked ~limit parts =
  let rs =
    List.filter_map
      (fun p -> match p.body with Results r -> Some (p.corpus, r) | _ -> None)
      parts
  in
  let wire s = Option.value ~default:0. (float_of_string_opt (Json.float_to_string s)) in
  let items =
    List.concat_map
      (fun (c, r) -> List.map (fun (i : Api.item) -> (wire i.score, c, i)) r.items)
      rs
  in
  let items =
    if ranked then
      List.stable_sort
        (fun (sa, ca, (a : Api.item)) (sb, cb, (b : Api.item)) ->
          let c = Float.compare sb sa in
          if c <> 0 then c
          else
            let c = String.compare ca cb in
            if c <> 0 then c else String.compare a.dewey b.dewey)
        items
    else items
  in
  let blocks name =
    let block (c, r) = Option.map (tagged c) (List.assoc_opt name r.blocks) in
    match List.filter_map block rs with [] -> [] | l -> [ (name, Json.List l) ]
  in
  Json.Obj
    ([
       ("query", Json.List (List.map (fun k -> Json.String k) query));
       ("count", Json.Int (List.fold_left (fun a (_, r) -> a + r.count) 0 rs));
       ("ranked", Json.Bool ranked);
       ("shards", Json.Int (Array.length t.shards));
       ("corpora", Json.List (List.map (fun n -> Json.String n) (corpora_names t)));
       ( "results",
         Json.List
           (List.map
              (fun (_, c, (i : Api.item)) -> tagged c i.json)
              (Api.take limit items)) );
     ]
    @ blocks "explain" @ blocks "analyze")

(* Refine/suggest outcomes are corpus-local (refinement candidates are
   scored against one corpus's statistics), so the gather keeps them
   side by side instead of inventing a cross-corpus ranking. *)
let merge_by_corpus t ~query parts =
  Json.Obj
    [
      ("query", Json.List (List.map (fun k -> Json.String k) query));
      ("shards", Json.Int (Array.length t.shards));
      ("corpora", Json.List (List.map (fun p -> tagged p.corpus (payload p.body)) parts));
    ]

let merge_complete ~prefix ~k parts =
  let tally = Hashtbl.create 32 in
  List.iter
    (fun p ->
      match p.body with
      | Completions c ->
        List.iter
          (fun (w, n) ->
            let seen = Option.value ~default:0 (Hashtbl.find_opt tally w) in
            Hashtbl.replace tally w (n + seen))
          c.completions
      | _ -> ())
    parts;
  let merged =
    Hashtbl.fold (fun w n acc -> (w, n) :: acc) tally []
    |> List.sort (fun (wa, na) (wb, nb) ->
           let c = Int.compare nb na in
           if c <> 0 then c else String.compare wa wb)
  in
  Api.complete_payload ~prefix (Api.take k merged)

(* ---- endpoint handlers ------------------------------------------------ *)

(* Compute one corpus render along with its EXPLAIN (and ANALYZE)
   blocks, [[]] when neither was asked for. The plan block is built
   first so its compile (and possible measure pass) is not charged to
   the execution's GC delta; ANALYZE installs the
   collection channel, times the render, and captures the handler-side
   GC around exactly the computation. *)
let with_introspection ~explain_p ~analyze ~explain compute =
  if not explain_p then (compute (), [])
  else begin
    let xfield = ("explain", explain ()) in
    if not analyze then (compute (), [ xfield ])
    else begin
      let g0 = Xr_obs.Runtime.capture () in
      let t0 = Xr_obs.Tracing.now_ns () in
      let v, report = Xr_obs.Analyze.with_report compute in
      let ms = Int64.to_float (Int64.sub (Xr_obs.Tracing.now_ns ()) t0) /. 1e6 in
      let gc = Xr_obs.Runtime.delta g0 in
      let spans =
        (* completed children of the open request trace: the per-stage
           durations this render just produced *)
        match Xr_obs.Tracing.current_trace_id () with
        | 0 -> []
        | tid ->
          List.filter
            (fun (s : Xr_obs.Tracing.span) -> s.Xr_obs.Tracing.parent_id <> 0)
            (Xr_obs.Tracing.spans_of_trace tid)
      in
      (v, [ xfield; ("analyze", Api.analyze_payload ~ms ~gc ~spans report) ])
    end
  end

let ( let* ) r f = match r with Error resp -> (resp, []) | Ok v -> f v

let handle_search t req =
  let* query = tokenized_query req in
  let alg_name =
    match Http.query_param req "alg" with Some a -> a | None -> "scan-parallel"
  in
  match Xr_slca.Engine.of_name alg_name with
  | None -> (bad_request (Printf.sprintf "unknown SLCA engine %s" alg_name), [])
  | Some slca ->
    let rank = bool_param req "rank" in
    let analyze = bool_param req "analyze" in
    let explain_p = bool_param req "explain" || analyze in
    let* limit = int_param req "limit" ~default:t.config.result_limit in
    let base_key =
      Printf.sprintf "search|%s|%b|%d|%s%s" alg_name rank limit (String.concat " " query)
        (if explain_p then if analyze then "|analyze" else "|explain" else "")
    in
    let render_one cs (gen : Generation.gen) =
      let index = gen.Generation.index in
      let config = { Engine.default_config with Engine.slca } in
      let compute () =
        let slcas =
          match cs.plans with
          | None -> Engine.search ~config index query
          | Some plans -> (
            (* the generation id in the key scopes the plan to exactly the
               pinned snapshot; a publish shifts the keyspace and the old
               plans age out *)
            let pkey =
              Printf.sprintf "s|%d|%s|%s" gen.Generation.id alg_name
                (String.concat " " query)
            in
            match
              Xr_batch.Plan_cache.find_or_compile plans ~key:pkey (fun () ->
                  Xr_batch.Plan_cache.Search (Xr_batch.Plan.compile_search ~config index query))
            with
            | Xr_batch.Plan_cache.Search plan -> Xr_batch.Plan.run_search ~config plan index
            | Xr_batch.Plan_cache.Refine _ -> Engine.search ~config index query)
        in
        let entries =
          if rank then
            let ids = List.filter_map (Xr_xml.Doc.keyword_id index.Index.doc) query in
            Xr_slca.Result_rank.rank index.Index.stats ~query:ids slcas
          else List.map (fun d -> (d, 0.)) slcas
        in
        (List.length entries, Api.search_items index ~query ~ranked:rank ~limit entries)
      in
      let (count, items), blocks =
        with_introspection ~explain_p ~analyze
          ~explain:(fun () ->
            Api.explain_payload (Xr_batch.Plan.explain_search ~config index query))
          compute
      in
      Results { query; ranked = rank; count; items; blocks }
    in
    gather ~cache:(not analyze) t req ~base_key ~render_one
      ~merge:(merge_search t ~query ~ranked:rank ~limit)

let handle_refine t req =
  let* query = tokenized_query req in
  let alg_name =
    match Http.query_param req "alg" with Some a -> a | None -> "partition"
  in
  match Engine.algorithm_of_name alg_name with
  | None -> (bad_request (Printf.sprintf "unknown refinement algorithm %s" alg_name), [])
  | Some algorithm ->
    let* k = int_param req "k" ~default:3 in
    let* limit = int_param req "limit" ~default:t.config.result_limit in
    let analyze = bool_param req "analyze" in
    let explain_p = bool_param req "explain" || analyze in
    let base_key =
      Printf.sprintf "refine|%s|%d|%d|%s%s" alg_name k limit (String.concat " " query)
        (if explain_p then if analyze then "|analyze" else "|explain" else "")
    in
    let render_one cs (gen : Generation.gen) =
      let index = gen.Generation.index in
      let config = { Engine.default_config with Engine.k; algorithm } in
      let compute () =
        let resp =
          match cs.plans with
          | None -> Engine.refine ~config index query
          | Some plans -> (
            (* the compiled rule list depends only on the query and the
               generation — not on [k] or the refinement algorithm — so
               one plan serves every (k, alg) combination *)
            let pkey =
              Printf.sprintf "r|%d|%s" gen.Generation.id (String.concat " " query)
            in
            match
              Xr_batch.Plan_cache.find_or_compile plans ~key:pkey (fun () ->
                  Xr_batch.Plan_cache.Refine (Xr_batch.Plan.compile_refine ~config index query))
            with
            | Xr_batch.Plan_cache.Refine plan ->
              Xr_batch.Plan.run_refine ~config plan index query
            | Xr_batch.Plan_cache.Search _ -> Engine.refine ~config index query)
        in
        Api.refine_payload index ~query ~limit resp
      in
      let payload, blocks =
        with_introspection ~explain_p ~analyze
          ~explain:(fun () ->
            Api.explain_refine_payload (Xr_batch.Plan.explain_refine ~config index query))
          compute
      in
      Payload (with_fields blocks payload)
    in
    gather ~cache:(not analyze) t req ~base_key ~render_one ~merge:(merge_by_corpus t ~query)

let handle_suggest t req =
  let* query = tokenized_query req in
  let* k = int_param req "k" ~default:5 in
  let* limit = int_param req "limit" ~default:t.config.result_limit in
  let base_key = Printf.sprintf "suggest|%d|%d|%s" k limit (String.concat " " query) in
  let render_one _cs (gen : Generation.gen) =
    let index = gen.Generation.index in
    let config = { Xr_refine.Specialize.default_config with Xr_refine.Specialize.k } in
    let suggestions = Xr_refine.Specialize.suggest ~config index query in
    Payload (Api.suggest_payload index ~query ~limit suggestions)
  in
  gather t req ~base_key ~render_one ~merge:(merge_by_corpus t ~query)

let handle_complete t req =
  let prefix =
    match Http.query_param req "prefix" with
    | Some p -> Some p
    | None -> Http.query_param req "q"
  in
  match prefix with
  | None -> (bad_request "missing query parameter prefix", [])
  | Some raw ->
    let prefix = Xr_xml.Token.normalize raw in
    if prefix = "" then (bad_request "prefix has no keyword characters", [])
    else
      let* k = int_param req "k" ~default:10 in
      let base_key = Printf.sprintf "complete|%d|%s" k prefix in
      let render_one cs (_gen : Generation.gen) =
        let trie = Atomic.get cs.ctrie in
        Completions { prefix; completions = Xr_text.Trie.complete trie ~limit:k prefix }
      in
      gather t req ~base_key ~render_one ~merge:(merge_complete ~prefix ~k)

let handle_ingest t req =
  let cs =
    match Http.query_param req "corpus" with
    | Some name -> (
      match find_corpus t name with
      | Some cs -> Ok cs
      | None ->
        Error (Http.json_response ~status:404 (Api.error_payload ("unknown corpus " ^ name))))
    | None ->
      if t.single then Ok t.shards.(0).corpora.(0)
      else Error (bad_request "several corpora are served; pass ?corpus=NAME")
  in
  match cs with
  | Error resp -> resp
  | Ok cs -> (
    if String.trim req.Http.body = "" then bad_request "empty body: POST the XML document"
    else
      match Ingest.submit_string cs.ingest req.Http.body with
      | Error (Ingest.Parse _ as e) -> bad_request (Ingest.error_to_string e)
      | Error e ->
        Http.json_response ~status:503
          ~headers:[ ("retry-after", "1") ]
          (Api.error_payload (Ingest.error_to_string e))
      | Ok () ->
        let sync = bool_param req "sync" in
        let generation =
          if sync then Ingest.flush cs.ingest else Generation.current_id cs.gens
        in
        Http.json_response
          (Json.Obj
             [
               ("accepted", Json.Bool true);
               ("corpus", Json.String cs.cname);
               ("shard", Json.Int cs.shard_id);
               ("generation", Json.Int generation);
               ("queue_depth", Json.Int (Ingest.queue_depth cs.ingest));
               ("synced", Json.Bool sync);
             ]))

let plan_entries t =
  let acc = ref 0 in
  iter_corpora t (fun _ cs ->
      match cs.plans with Some p -> acc := !acc + Xr_batch.Plan_cache.size p | None -> ());
  !acc

let handle_stats t =
  let batch = Api.batch_payload ~enabled:t.config.batch ~plan_entries:(plan_entries t) () in
  if t.single then
    let cs = t.shards.(0).corpora.(0) in
    Generation.with_pinned cs.gens (fun gen ->
        Http.json_response
          (Api.stats_payload ~pool:(Api.pool_payload ()) ~batch gen.Generation.index))
  else
    let corpora = ref [] in
    iter_corpora t (fun shard cs ->
        let payload =
          Generation.with_pinned cs.gens (fun gen ->
              Api.stats_payload gen.Generation.index)
        in
        let fields = match payload with Json.Obj f -> f | j -> [ ("stats", j) ] in
        corpora :=
          Json.Obj
            (("corpus", Json.String cs.cname)
            :: ("shard", Json.Int shard.sid)
            :: ("generation", Json.Int (Generation.current_id cs.gens))
            :: fields)
          :: !corpora);
    Http.json_response
      (Json.Obj
         [
           ("shards", Json.Int (Array.length t.shards));
           ("corpora", Json.List (List.rev !corpora));
           ("pool", Api.pool_payload ());
           ("batch", batch);
         ])

let handle_plain t (req : Http.request) =
  match (req.Http.path, req.Http.meth) with
  | "/ingest", Http.POST -> handle_ingest t req
  | "/ingest", _ ->
    Http.json_response ~status:405 (Api.error_payload "only POST is supported on /ingest")
  | _, m when m <> Http.GET ->
    Http.json_response ~status:405 (Api.error_payload "only GET is supported")
  | path, _ -> (
    match path with
    | "/health" -> Http.json_response (Json.Obj [ ("status", Json.String "ok") ])
    | "/metrics" ->
      (* Prometheus text exposition of the whole process registry; the
         legacy JSON document moved to /metrics.json. *)
      Http.response ~status:200
        ~headers:[ ("content-type", Xr_obs.Expo.content_type) ]
        (Xr_obs.Expo.render (Xr_obs.Registry.default ()))
    | "/metrics.json" ->
      Http.json_response
        (Metrics.snapshot t.server_metrics ~queue_depth:(Pool.depth t.pool)
           ~workers:(Pool.domains t.pool) ~cache:(combined_cache_stats t))
    | "/debug/trace" -> (
      match Http.query_param req "id" with
      | Some id -> (
        (* exact-trace lookup: the path exemplars and slow-query log
           lines point at *)
        match int_of_string_opt id with
        | None -> bad_request "parameter id must be an integer"
        | Some tid -> (
          match Xr_obs.Tracing.spans_of_trace tid with
          | [] ->
            Http.json_response ~status:404
              (Api.error_payload (Printf.sprintf "no recorded trace %d" tid))
          | spans -> Http.json_response (Api.trace_payload [ (tid, spans) ])))
      | None -> (
        match int_param req "last" ~default:16 with
        | Error resp -> resp
        | Ok last ->
          let last = min (max last 0) 256 in
          Http.json_response (Api.trace_payload (Xr_obs.Tracing.recent_traces last))))
    | "/stats" -> handle_stats t
    | p -> Http.json_response ~status:404 (Api.error_payload ("no such endpoint " ^ p)))

(* The cacheable endpoints answer with the (corpus, generation, index
   mode) tuples they were served from, in shard order — the slow-query
   log's attribution; every other endpoint reads no index. *)
let route t (req : Http.request) =
  match (req.Http.path, req.Http.meth) with
  | "/search", Http.GET -> handle_search t req
  | "/refine", Http.GET -> handle_refine t req
  | "/suggest", Http.GET -> handle_suggest t req
  | "/complete", Http.GET -> handle_complete t req
  | _ -> (handle_plain t req, [])

let handle t req = fst (route t req)

(* ---- per-connection worker ---------------------------------------------- *)

let log_request t req status ms =
  if t.config.log then
    Mutex.protect t.log_lock (fun () ->
        Printf.eprintf "xr_server: %s %s -> %d (%.1f ms)\n%!"
          (Http.meth_to_string req.Http.meth)
          req.Http.target status ms)

let error_response err =
  let open Http in
  match err with
  | Bad_request msg -> Some (json_response ~status:400 (Api.error_payload msg))
  | Too_large msg -> Some (json_response ~status:413 (Api.error_payload msg))
  | Timeout -> Some (json_response ~status:408 (Api.error_payload "request timed out"))
  | Eof -> None

let internal_error = Http.json_response ~status:500 (Api.error_payload "internal error")

(* One structured line per offending request, with its span breakdown
   inlined so the evidence survives ring-buffer eviction. *)
let log_slow_query t req status trace_id ms corpora =
  let threshold = t.config.slow_query_ms in
  if threshold > 0. && ms >= threshold then begin
    let spans = if trace_id = 0 then [] else Xr_obs.Tracing.spans_of_trace trace_id in
    let line =
      Xr_obs.Slowlog.render ~endpoint:req.Http.path ~status ~ms ~trace_id ~corpora spans
    in
    Mutex.protect t.log_lock (fun () -> Printf.eprintf "%s\n%!" line)
  end

let handle_conn t conn =
  let close () = try Unix.close conn.fd with Unix.Unix_error _ -> () in
  let budget_s = t.config.deadline_ms /. 1000. in
  let waited = Unix.gettimeofday () -. conn.accepted_at in
  if waited > budget_s then begin
    (* The connection blew its deadline sitting in the queue: shed it. *)
    Metrics.record_deadline t.server_metrics;
    (try
       Http.write_all conn.fd
         (Http.serialize ~keep_alive:false
            (Http.json_response ~status:503
               (Api.error_payload "deadline exceeded while queued")))
     with Unix.Unix_error _ -> ());
    close ()
  end
  else begin
    (* Bound reads and writes by the remaining budget (refreshed per
       request below; engine work itself is not interruptible). *)
    (try
       Unix.setsockopt_float conn.fd Unix.SO_RCVTIMEO budget_s;
       Unix.setsockopt_float conn.fd Unix.SO_SNDTIMEO budget_s
     with Unix.Unix_error _ -> () (* e.g. not supported on this socket *));
    let reader = Http.reader_of_fd conn.fd in
    let rec serve served =
      if served >= t.config.keepalive_requests then close ()
      else
        match Http.read_request ~limits:t.config.limits reader with
        | Error err -> (
          (match error_response err with
          | Some resp -> (
            try Http.write_all conn.fd (Http.serialize ~keep_alive:false resp)
            with Unix.Unix_error _ -> ())
          | None -> ());
          close ())
        | Ok req -> (
          let t0 = Unix.gettimeofday () in
          let (resp, corpora), trace_id =
            Xr_obs.Tracing.with_trace "request" (fun () ->
                try route t req with _ -> (internal_error, []))
          in
          let ms = (Unix.gettimeofday () -. t0) *. 1000. in
          let ka = Http.keep_alive req && served + 1 < t.config.keepalive_requests in
          Metrics.record t.server_metrics ~endpoint:req.Http.path ~status:resp.Http.status
            ~ms ~trace_id ();
          log_request t req resp.Http.status ms;
          log_slow_query t req resp.Http.status trace_id ms corpora;
          match Http.write_all conn.fd (Http.serialize ~keep_alive:ka resp) with
          | () -> if ka then serve (served + 1) else close ()
          | exception Unix.Unix_error _ -> close ())
    in
    serve 0
  end

(* ---- lifecycle ----------------------------------------------------------- *)

let build_trie (index : Index.t) =
  let d = index.Index.doc in
  Xr_text.Trie.of_vocabulary
    (List.map
       (fun w ->
         ( w,
           match Xr_xml.Doc.keyword_id d w with
           | Some kw -> Xr_index.Inverted.length index.Index.inverted kw
           | None -> 0 ))
       (Xr_xml.Doc.vocabulary d))

let bind_socket addr =
  match addr with
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
        | _ -> failwith ("cannot resolve host " ^ host))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 128;
    fd
  | Unix_socket path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 128;
    fd

(* Scrape-time gauges and pulled counters for state owned elsewhere:
   queue depth, worker count, cache statistics, uptime, and the index
   footprint. The footprint is pulled live from the current generations
   (summed over corpora) — ingest swaps them at any time. Families are
   idempotent and [set_pull] rebinds, so restarting a server in the same
   process re-points the series at the live instance. *)
let register_observability t =
  let module Reg = Xr_obs.Registry in
  Xr_obs.Runtime.register ();
  let gauge name help = Reg.Gauge.no_labels (Reg.Gauge.family ~name ~help ()) in
  let pull_gauge name help f = Reg.Gauge.set_pull (gauge name help) f in
  let pull_counter name help f =
    Reg.Counter.set_pull (Reg.Counter.no_labels (Reg.Counter.family ~name ~help ())) f
  in
  let sum_indices f =
    let acc = ref 0 in
    iter_corpora t (fun _ cs ->
        acc := !acc + f (Generation.current cs.gens).Generation.index);
    float_of_int !acc
  in
  pull_gauge "xr_uptime_seconds" "Seconds since server start" (fun () ->
      Unix.gettimeofday () -. Metrics.started_at t.server_metrics);
  pull_gauge "xr_queue_depth" "Connections waiting in the admission queue" (fun () ->
      float_of_int (Pool.depth t.pool));
  pull_gauge "xr_worker_domains" "Request worker domains" (fun () ->
      float_of_int (Pool.domains t.pool));
  pull_counter "xr_cache_hits_total" "Result cache hits" (fun () ->
      float_of_int (combined_cache_stats t).Lru.hits);
  pull_counter "xr_cache_misses_total" "Result cache misses" (fun () ->
      float_of_int (combined_cache_stats t).Lru.misses);
  pull_counter "xr_cache_evictions_total" "Result cache evictions" (fun () ->
      float_of_int (combined_cache_stats t).Lru.evictions);
  pull_gauge "xr_cache_entries" "Result cache resident entries" (fun () ->
      float_of_int (combined_cache_stats t).Lru.entries);
  pull_gauge "xr_cache_capacity" "Result cache capacity" (fun () ->
      float_of_int (combined_cache_stats t).Lru.capacity);
  pull_gauge "xr_plan_cache_entries" "Compiled query plans resident across corpora"
    (fun () -> float_of_int (plan_entries t));
  pull_counter "xr_index_materializations_total"
    "Legacy posting-array materializations from packed lists" (fun () ->
      sum_indices (fun ix -> Xr_index.Inverted.materialization_count ix.Index.inverted));
  (* Non-forcing totals only: a metrics scrape of a DAG-backed index
     must never trigger per-keyword merges, so these read the O(1)
     accounting accessors, not [iter_packed]. *)
  pull_gauge "xr_index_postings" "Postings across all inverted lists" (fun () ->
      sum_indices (fun ix -> Xr_index.Inverted.postings_total ix.Index.inverted));
  pull_gauge "xr_index_packed_bytes" "Resident bytes of posting data" (fun () ->
      sum_indices (fun ix -> Xr_index.Inverted.resident_bytes ix.Index.inverted));
  pull_gauge "xr_index_label_bytes" "Resident bytes of varint Dewey labels" (fun () ->
      sum_indices (fun ix -> Xr_index.Inverted.label_bytes_total ix.Index.inverted));
  pull_counter "xr_index_dag_merges_total"
    "Per-keyword flat views merged out of DAG-backed indexes" (fun () ->
      sum_indices (fun ix -> Xr_index.Inverted.merge_count ix.Index.inverted));
  pull_gauge "xr_index_keywords" "Distinct keywords in the vocabulary" (fun () ->
      sum_indices (fun ix -> List.length (Xr_xml.Doc.vocabulary ix.Index.doc)));
  pull_gauge "xr_index_nodes" "Element nodes in the document" (fun () ->
      sum_indices (fun ix -> Xr_xml.Doc.node_count ix.Index.doc));
  pull_gauge "xr_serving_shards" "Serving shards" (fun () ->
      float_of_int (Array.length t.shards));
  pull_gauge "xr_serving_corpora" "Corpora served" (fun () ->
      float_of_int (List.length (corpora_names t)))

let start_corpora config specs =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if config.trace then Xr_obs.Tracing.enable ();
  if specs = [] then invalid_arg "Server.start_corpora: no corpora";
  (* Request workers submit SLCA subtasks to the shared domain pool;
     queries below this many driver postings stay sequential. *)
  Xr_slca.Parallel.set_threshold config.parallel_threshold;
  let listen_fd = bind_socket config.addr in
  let stop_r, stop_w = Unix.pipe () in
  let tref = ref None in
  let pool =
    Pool.create ~domains:config.domains ~queue_bound:config.queue_bound (fun conn ->
        match !tref with
        | Some t -> handle_conn t conn
        | None -> ( try Unix.close conn.fd with Unix.Unix_error _ -> ()))
  in
  let ncorpora = List.length specs in
  let nshards =
    let requested = if config.shards <= 0 then ncorpora else config.shards in
    max 1 (min requested ncorpora)
  in
  let caches =
    Array.init nshards (fun _ ->
        Lru.create ~shards:config.cache_shards ~capacity:config.cache_capacity ())
  in
  let ingest_config =
    { Ingest.queue_bound = config.ingest_queue; batch_max = config.ingest_batch }
  in
  (* Corpora round-robin across shards; each corpus gets its own
     generation chain and writer. On publish the writer swaps the trie
     and clears its shard's cache (generation-tagged keys make late
     inserts from still-pinned readers unreachable either way). *)
  let corpus_states =
    List.mapi
      (fun i spec ->
        let shard_id = i mod nshards in
        let gens = Generation.create ~corpus:spec.name spec.index in
        let ctrie = Atomic.make (build_trie spec.index) in
        let on_publish (gen : Generation.gen) =
          Atomic.set ctrie (build_trie gen.Generation.index);
          Lru.clear caches.(shard_id)
        in
        let ingest =
          Ingest.create ~config:ingest_config ?kv:spec.kv ~on_publish gens
        in
        let plans =
          if config.batch && config.plan_cache_capacity > 0 then
            Some (Xr_batch.Plan_cache.create ~capacity:config.plan_cache_capacity ())
          else None
        in
        { cname = spec.name; shard_id; gens; ingest; ctrie; plans })
      specs
  in
  let shards =
    Array.init nshards (fun sid ->
        {
          sid;
          corpora =
            Array.of_list (List.filter (fun cs -> cs.shard_id = sid) corpus_states);
          cache = caches.(sid);
          flights =
            (if config.batch then
               Some (Xr_batch.Coalesce.create ~window_ms:config.coalesce_window_ms ())
             else None);
        })
  in
  let t =
    {
      config;
      shards;
      single = ncorpora = 1;
      server_metrics = Metrics.create ();
      listen_fd;
      stop_r;
      stop_w;
      pool;
      log_lock = Mutex.create ();
    }
  in
  tref := Some t;
  register_observability t;
  t

let start config index = start_corpora config [ { name = "default"; index; kv = None } ]

let bound_addr t = Unix.getsockname t.listen_fd

let overloaded =
  Http.json_response ~status:503
    ~headers:[ ("retry-after", "1") ]
    (Api.error_payload "server overloaded, request shed")

let run t =
  Unix.set_nonblock t.listen_fd;
  let rec loop () =
    match Unix.select [ t.listen_fd; t.stop_r ] [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | readable, _, _ ->
      if List.mem t.stop_r readable then () (* stop requested *)
      else begin
        (match Unix.accept ~cloexec:true t.listen_fd with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | fd, _peer ->
          (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
          let conn = { fd; accepted_at = Unix.gettimeofday () } in
          if not (Pool.submit t.pool conn) then begin
            Metrics.record_shed t.server_metrics;
            (try Http.write_all fd (Http.serialize ~keep_alive:false overloaded)
             with Unix.Unix_error _ -> ());
            try Unix.close fd with Unix.Unix_error _ -> ()
          end);
        loop ()
      end
  in
  loop ();
  Pool.shutdown t.pool;
  iter_corpora t (fun _ cs -> Ingest.shutdown cs.ingest);
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.listen_fd; t.stop_r; t.stop_w ];
  match t.config.addr with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let stop t =
  try ignore (Unix.write_substring t.stop_w "x" 0 1) with Unix.Unix_error _ -> ()
