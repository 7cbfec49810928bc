(* Per-layer metrics: counters from /metrics deltas over the measured
   window of the end-to-end run, timings and allocation from the traced
   pass, and the per-operation latencies behind the end-to-end numbers. *)

module Stats = Perfbench_core.Stats
module Spans = Perfbench_core.Spans
module Prom = Perfbench_core.Prom

let metrics ~(wl : Workload.t) ~before ~after ~window ~reads ~writes ~lateness ~searches
    ~refines ~ingests ~read_lat ~failed_frac ~intent_top1 (t : Traced.t) =
  let d ?label name = Prom.delta ?label ~before ~after name in
  let per_read v = Stats.ratio v (float_of_int reads) in
  let requests = float_of_int (reads + writes) in
  let share a b = Stats.ratio a (a +. b) in
  let pct p a = if Array.length a = 0 then 0. else Stats.percentile ~pct:p a in
  (* traced pass: per traced request, so the layer times add up to
     server.handle_ms less its self time *)
  let totals = Spans.totals t.Traced.spans in
  let traced_n = float_of_int (max 1 t.Traced.requests) in
  let total_ns name =
    match Hashtbl.find_opt totals name with Some (ns, _, _) -> ns | None -> 0.
  in
  let total_words name =
    match Hashtbl.find_opt totals name with Some (_, w, _) -> w | None -> 0.
  in
  let mean_ns name =
    match Hashtbl.find_opt totals name with
    | Some (ns, _, n) when n > 0 -> ns /. float_of_int n
    | _ -> 0.
  in
  let per_traced_ms name = total_ns name /. traced_n /. 1e6 in
  let is_root s = s.Spans.parent = 0 && s.Spans.name = "server.handle" in
  let handle_ns =
    List.fold_left (fun a s -> if is_root s then a +. s.Spans.ns else a) 0. t.Traced.spans
  in
  let coverage, self_ns = Spans.coverage ~root:"server.handle" t.Traced.spans in
  let count name = Traced.get t name in
  let busy_domains =
    List.sort_uniq compare
      (List.filter_map
         (fun (s : Prom.sample) ->
           if s.Prom.name = "xr_pool_busy_ns_total" then
             List.assoc_opt "domain" s.Prom.labels
           else None)
         after)
  in
  [
    (* end-to-end, per operation *)
    ("search_p50_ms", pct 50 searches, "ms");
    ("search_p90_ms", pct 90 searches, "ms");
    ("search_n", float_of_int (Array.length searches), "count");
    ("refine_p50_ms", pct 50 refines, "ms");
    ("refine_p90_ms", pct 90 refines, "ms");
    ("refine_n", float_of_int (Array.length refines), "count");
    ("ingest_p50_ms", pct 50 ingests, "ms");
    ("ingest_n", float_of_int (Array.length ingests), "count");
    ("read_p90_ms", pct 90 read_lat, "ms");
    ("failed_frac", failed_frac, "ratio");
    ("intent_top1", intent_top1, "ratio");
    (* Xr_server.Http *)
    ("http.parse_us", mean_ns "http.parse" /. 1e3, "us");
    ("http.serialize_us", mean_ns "http.serialize" /. 1e3, "us");
    ("http.bytes_out_per_req", count "http.bytes_out" /. traced_n, "B");
    (* Xr_server.Server *)
    ("server.handle_ms", handle_ns /. traced_n /. 1e6, "ms");
    ("server.self_ms", self_ns /. traced_n /. 1e6, "ms");
    ("server.coverage", coverage, "ratio");
    (* share of the window the worker domains spent inside requests *)
    ( "server.utilization",
      Stats.ratio
        (d "xr_http_request_duration_ms_sum" /. 1e3)
        (window *. Float.max 1. (Prom.sum after "xr_worker_domains")),
      "ratio" );
    (* Xr_server.Lru *)
    ( "cache.hit_ratio",
      share (d "xr_cache_hits_total") (d "xr_cache_misses_total"),
      "ratio" );
    ("cache.evictions", d "xr_cache_evictions_total", "count");
    (* Xr_batch *)
    ("plan.compile_ms", per_traced_ms "plan.compile", "ms");
    ( "plan.hit_ratio",
      share
        (d ~label:("event", "hit") "xr_plan_cache_events_total")
        (d ~label:("event", "miss") "xr_plan_cache_events_total"),
      "ratio" );
    ( "coalesce.follower_ratio",
      share
        (d ~label:("role", "follower") "xr_coalesce_requests_total")
        (d ~label:("role", "leader") "xr_coalesce_requests_total"),
      "ratio" );
    (* Xr_slca *)
    ("slca.scan_ms", per_traced_ms "slca.scan", "ms");
    ("slca.results_per_req", count "slca.results" /. traced_n, "count");
    ("slca.probes_per_req", per_read (d "xr_cursor_probes_total"), "count");
    ("slca.tiny_per_req", per_read (d "xr_slca_tiny_scans_total"), "count");
    ("slca.fallbacks_per_req", per_read (d "xr_slca_fallbacks_total"), "count");
    (* Xr_slca.Meaningful, Result_rank *)
    ("meaningful.filter_ms", per_traced_ms "meaningful.filter", "ms");
    ( "meaningful.kept_ratio",
      Stats.ratio (count "meaningful.kept") (count "slca.results"),
      "ratio" );
    ("rank.ms", per_traced_ms "rank", "ms");
    (* Xr_refine *)
    ("refine.mine_ms", per_traced_ms "refine.mine", "ms");
    ("refine.run_ms", per_traced_ms "refine.run", "ms");
    ("refine.partitions_per_req", count "refine.visited" /. traced_n, "count");
    ( "refine.skip_ratio",
      share (count "refine.skipped") (count "refine.visited"),
      "ratio" );
    ("refine.slca_runs_per_req", count "refine.slca_runs" /. traced_n, "count");
    (* render: Api payloads, Doc.subtree, Json *)
    ("render.ms", per_traced_ms "render", "ms");
    ("render.subtree_ms", per_traced_ms "render.subtree", "ms");
    ("render.json_ms", per_traced_ms "render.json", "ms");
    ("render.items_per_req", count "render.items" /. traced_n, "count");
    ("render.bytes_per_req", count "render.bytes" /. traced_n, "B");
    ( "render.alloc_kw_per_req",
      (total_words "render" +. total_words "render.json") /. traced_n /. 1e3,
      "kw" );
    (* Xr_pool *)
    ("pool.tasks_per_req", per_read (d "xr_pool_tasks_total"), "count");
    ("pool.steals_per_req", per_read (d "xr_pool_steals_total"), "count");
    ( "pool.utilization",
      Stats.ratio (d "xr_pool_busy_ns_total")
        (window *. 1e9 *. float_of_int (max 1 (List.length busy_domains))),
      "ratio" );
    (* Xr_ingest *)
    ("ingest.append_ms", mean_ns "ingest.append" /. 1e6, "ms");
    ( "ingest.merge_ms",
      Stats.ratio
        (d "xr_ingest_merge_duration_ms_sum")
        (d "xr_ingest_merge_duration_ms_count"),
      "ms" );
    ("ingest.generations", d "xr_ingest_generation", "count");
    (* setup, measured on the benchmark's own in-process build *)
    ("setup.parse_s", wl.Workload.parse_s, "s");
    ("setup.compile_s", wl.Workload.compile_s, "s");
    ("setup.index_s", wl.Workload.index_s, "s");
    (* runtime GC, per request: minor words on the handling domain in the
       traced pass (the server's xr_gc_minor_words_total counts only the
       domain that answers the scrape), major cycles from the server *)
    ("gc.minor_kw_per_req", total_words "server.handle" /. traced_n /. 1e3, "kw");
    ( "gc.major_per_req",
      Stats.ratio (d "xr_gc_major_collections_total") requests,
      "count" );
    (* load generator *)
    ("gen.late_p90_ms", pct 90 lateness, "ms");
    ("gen.workload_s", wl.Workload.workload_s, "s");
    ("traced.requests", float_of_int t.Traced.requests, "count");
    ("traced.mismatches", float_of_int t.Traced.mismatches, "count");
  ]
