(* Batched execution: the bitsliced prefix filter against its per-entry
   reference, the tiny-driver kernel against the general scan, shared
   driver passes against one-at-a-time execution (pool sizes 1 and 4),
   compiled plans against the uncompiled engine (byte-compared through
   the served payloads), plan-cache hit/eviction/single-flight
   behaviour and its generation-keyed invalidation across an ingest
   publish, the single-flight coalescer's leader/follower contract, and
   lookups nested in a compile or render through pool help. *)

open Xr_xml
module P = Dewey.Packed
module Bitslice = Xr_index.Bitslice
module Scan_packed = Xr_slca.Scan_packed
module Shared_scan = Xr_slca.Shared_scan
module Slca_engine = Xr_slca.Engine
module Index = Xr_index.Index
module Inverted = Xr_index.Inverted
module Rengine = Xr_refine.Engine
module Plan = Xr_batch.Plan
module Plan_cache = Xr_batch.Plan_cache
module Coalesce = Xr_batch.Coalesce
module Api = Xr_server.Api
module Json = Xr_server.Json
module Http = Xr_server.Http
module Server = Xr_server.Server

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- generators (same shapes as test_parallel) --------------------------- *)

let gen_label =
  QCheck.Gen.(
    list_size (int_bound 6)
      (frequency [ (6, int_bound 5); (2, int_bound 300); (1, int_bound 100_000) ])
    |> map Array.of_list)

let gen_sorted_labels =
  QCheck.Gen.(
    list_size (int_range 1 60) gen_label |> map (fun l -> List.sort_uniq Dewey.compare l))

let print_lists lists =
  String.concat "; "
    (List.map (fun l -> String.concat " " (List.map Dewey.to_string l)) lists)

(* ---- bitslice ------------------------------------------------------------ *)

let selected mask =
  let acc = ref [] in
  Bitslice.iter mask (fun i -> acc := i :: !acc);
  List.rev !acc

let arb_bitslice_case =
  let gen =
    QCheck.Gen.(
      gen_sorted_labels >>= fun labels ->
      let n = List.length labels in
      int_range 0 n >>= fun lo ->
      int_range lo n >>= fun hi ->
      (* half the time probe a prefix taken from a real entry, so the
         selection is frequently nonempty *)
      oneof
        [
          map Array.of_list (list_size (int_bound 3) (int_bound 5));
          ( int_bound (max 0 (n - 1)) >>= fun i ->
            let l = List.nth labels i in
            int_bound (Array.length l) >>= fun plen -> return (Array.sub l 0 plen) );
        ]
      >>= fun prefix -> return (labels, lo, hi, prefix))
  in
  let print (labels, lo, hi, prefix) =
    Printf.sprintf "lo=%d hi=%d prefix=[%s] labels=[%s]" lo hi
      (String.concat ";" (Array.to_list (Array.map string_of_int prefix)))
      (print_lists [ labels ])
  in
  QCheck.make ~print gen

let prop_bitslice_eq_probed =
  QCheck.Test.make ~name:"bitsliced prefix filter = per-entry probe" ~count:500
    arb_bitslice_case (fun (labels, lo, hi, prefix) ->
      let pk = P.of_list labels in
      let plen = Array.length prefix in
      let fast = Bitslice.under pk ~lo ~hi ~prefix ~plen in
      let slow = Bitslice.under_probed pk ~lo ~hi ~prefix ~plen in
      selected fast = selected slow
      && Bitslice.cardinal fast = Bitslice.cardinal slow
      && List.for_all (fun i -> Bitslice.mem fast i) (selected fast))

let test_bitslice_words () =
  (* > 63 entries under one prefix: interior mask words are stored as
     single all-ones writes and [iter] dispatches them without per-bit
     tests — make sure the word-granular paths agree with reality. *)
  let labels =
    List.init 200 (fun i -> [| 1; i |]) @ List.init 10 (fun i -> [| 2; i |])
  in
  let pk = P.of_list (List.sort_uniq Dewey.compare labels) in
  let n = P.length pk in
  let mask = Bitslice.under pk ~lo:0 ~hi:n ~prefix:[| 1 |] ~plen:1 in
  check Alcotest.int "cardinal" 200 (Bitslice.cardinal mask);
  check Alcotest.(list int) "selected indices" (List.init 200 (fun i -> i)) (selected mask);
  let empty = Bitslice.under pk ~lo:0 ~hi:n ~prefix:[| 7 |] ~plen:1 in
  check Alcotest.int "disjoint prefix selects nothing" 0 (Bitslice.cardinal empty);
  let all = Bitslice.under pk ~lo:3 ~hi:50 ~prefix:[||] ~plen:0 in
  check Alcotest.int "empty prefix selects the whole range" 47 (Bitslice.cardinal all)

(* ---- tiny kernel = general kernel ---------------------------------------- *)

let arb_lists =
  QCheck.make
    ~print:(fun l -> print_lists l)
    QCheck.Gen.(list_size (int_range 2 4) gen_sorted_labels)

let prop_tiny_eq_chunk =
  QCheck.Test.make ~name:"tiny-driver kernel = general scan kernel" ~count:300 arb_lists
    (fun lists ->
      let ranges = List.map (fun l -> let pk = P.of_list l in (pk, 0, P.length pk)) lists in
      match Scan_packed.sort_by_length ranges with
      | driver :: others ->
        List.equal Dewey.equal
          (Scan_packed.scan_tiny ~driver ~others ())
          (Scan_packed.scan_chunk ~driver ~others ())
      | [] -> true)

let test_tiny_dispatch_counted () =
  let before = Scan_packed.tiny_scans () in
  let pks = List.map P.of_list [ [ [| 1; 1 |]; [| 1; 2 |] ]; [ [| 1 |] ] ] in
  let r = Scan_packed.compute pks in
  check Alcotest.bool "tiny scan counted" true (Scan_packed.tiny_scans () > before);
  check Alcotest.(list string) "result" [ "0.1" ] (List.map Dewey.to_string r)

(* ---- shared scans = one-at-a-time ---------------------------------------- *)

let shared_pool = lazy (Xr_pool.create ~domains:4 ())

(* Batches share physical lists across queries (the coalescing case) on
   top of random private ones. *)
let arb_batch =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 3) gen_sorted_labels >>= fun commons ->
      let commons = List.map P.of_list commons in
      list_size (int_range 1 6)
        (list_size (int_range 0 2) gen_sorted_labels >>= fun privates ->
         let privates = List.map P.of_list privates in
         oneofl [ [] ] >>= fun _ ->
         int_range 0 (List.length commons) >>= fun take ->
         let rec firstn n = function
           | x :: rest when n > 0 -> x :: firstn (n - 1) rest
           | _ -> []
         in
         return (firstn take commons @ privates)))
  in
  QCheck.make
    ~print:(fun batch ->
      String.concat " || "
        (List.map
           (fun q ->
             print_lists
               (List.map (fun pk -> List.init (P.length pk) (P.get pk)) q))
           batch))
    gen

let batch_queries batch =
  List.map (List.map (fun pk -> (pk, 0, P.length pk))) batch

let prop_run_batch_eq_solo pool_size =
  QCheck.Test.make
    ~name:(Printf.sprintf "run_batch = per-query scans, pool size %d" pool_size)
    ~count:200 arb_batch (fun batch ->
      let queries = batch_queries batch in
      let solo = List.map Scan_packed.compute_ranges queries in
      let pool =
        if pool_size = 1 then Xr_pool.create ~domains:1 () else Lazy.force shared_pool
      in
      let batched = Shared_scan.run_batch ~pool queries in
      if pool_size = 1 then Xr_pool.shutdown pool;
      List.equal (List.equal Dewey.equal) solo batched)

let prop_run_batch_chunked_eq_solo =
  QCheck.Test.make ~name:"run_batch with forced chunking = per-query scans" ~count:200
    arb_batch (fun batch ->
      let queries = batch_queries batch in
      let solo = List.map Scan_packed.compute_ranges queries in
      List.for_all
        (fun chunks ->
          List.equal (List.equal Dewey.equal) solo
            (Shared_scan.run_batch ~pool:(Lazy.force shared_pool) ~chunks queries))
        [ 2; 3; 5 ])

let test_run_batch_root_mask () =
  (* Two queries scoped to the [2] subtree of a shared driver list: the
     grouped pass must take the masked full-list path (the driver range
     equals the prefix slice) and still return the per-query results. *)
  let driver_labels =
    List.init 30 (fun i -> [| 1; i |])
    @ List.init 40 (fun i -> [| 2; i |])
    @ List.init 30 (fun i -> [| 3; i |])
  in
  let driver = P.of_list driver_labels in
  let lo, hi = P.prefix_slice_sub driver ~lo:0 [| 2 |] 1 in
  check Alcotest.bool "slice found" true (hi - lo = 40);
  (* partners strictly longer than the driver slice, so the shared
     driver really is the rarest list of both queries and the grouper
     coalesces them *)
  let partner1 = P.of_list (List.init 50 (fun i -> [| 2; i; 1 |])) in
  let partner2 = P.of_list (List.init 45 (fun i -> [| 2; i; 2 |])) in
  let q1 = [ (driver, lo, hi); (partner1, 0, P.length partner1) ] in
  let q2 = [ (driver, lo, hi); (partner2, 0, P.length partner2) ] in
  let before = Shared_scan.batches () in
  let batched = Shared_scan.run_batch ~root:[| 2 |] [ q1; q2 ] in
  let solo = List.map Scan_packed.compute_ranges [ q1; q2 ] in
  check Alcotest.bool "one shared pass ran" true (Shared_scan.batches () > before);
  check Alcotest.bool "masked batch = solo" true
    (List.equal (List.equal Dewey.equal) solo batched);
  (* a root that does not bound the range must be ignored, not trusted *)
  let wrong = Shared_scan.run_batch ~root:[| 1 |] [ q1; q2 ] in
  check Alcotest.bool "mismatched root hint ignored" true
    (List.equal (List.equal Dewey.equal) solo wrong)

let test_run_batch_disabled () =
  let queries =
    batch_queries
      [ [ P.of_list [ [| 1; 1 |]; [| 2 |] ]; P.of_list [ [| 1 |] ] ] ]
  in
  Shared_scan.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Shared_scan.set_enabled true)
    (fun () ->
      check Alcotest.bool "disabled path = solo" true
        (List.equal (List.equal Dewey.equal)
           (List.map Scan_packed.compute_ranges queries)
           (Shared_scan.run_batch queries)))

(* ---- compiled plans = uncompiled engine ---------------------------------- *)

let top2 (index : Index.t) =
  let acc = ref [] in
  Inverted.iter_packed
    (fun kw pk ->
      let n = Inverted.packed_postings pk in
      if n > 0 then acc := (kw, n) :: !acc)
    index.Index.inverted;
  match
    List.sort (fun (_, a) (_, b) -> Int.compare b a) !acc
    |> List.map (fun (kw, _) -> Doc.keyword_name index.Index.doc kw)
  with
  | k1 :: k2 :: _ -> (k1, k2)
  | _ -> Alcotest.fail "corpus has fewer than two keywords"

let plan_corpora =
  lazy
    [
      ("figure1", Index.build (Xr_data.Figure1.doc ()));
      ("dblp", Index.build (Doc.of_tree (Xr_data.Dblp.scaled ~publications:120 ~seed:42)));
    ]

let test_plan_search_eq_engine () =
  List.iter
    (fun (cname, index) ->
      let k1, k2 = top2 index in
      List.iter
        (fun slca ->
          let config = { Rengine.default_config with Rengine.slca } in
          List.iter
            (fun query ->
              let plan = Plan.compile_search ~config index query in
              check Alcotest.bool
                (Printf.sprintf "%s/%s {%s}" cname (Slca_engine.name slca)
                   (String.concat " " query))
                true
                (List.equal Dewey.equal
                   (Rengine.search ~config index query)
                   (Plan.run_search ~config plan index)))
            [
              [ k1; k2 ]; [ k1 ]; [ k2; k1; k2 ]; [ "zzznope" ]; [ k1; "zzznope" ]; [];
            ])
        [
          Slca_engine.Scan_parallel;
          Slca_engine.Scan_packed;
          Slca_engine.Stack_packed;
          Slca_engine.Scan_eager;
        ])
    (Lazy.force plan_corpora)

let test_plan_search_tiny_forced () =
  (* With the tiny threshold maxed every scan-family plan compiles to
     the [Tiny] shape; results must not move. *)
  let old = Scan_packed.tiny_threshold () in
  Scan_packed.set_tiny_threshold max_int;
  Fun.protect
    ~finally:(fun () -> Scan_packed.set_tiny_threshold old)
    (fun () ->
      List.iter
        (fun (cname, index) ->
          let k1, k2 = top2 index in
          let config =
            { Rengine.default_config with Rengine.slca = Slca_engine.Scan_packed }
          in
          let query = [ k1; k2 ] in
          let plan = Plan.compile_search ~config index query in
          check Alcotest.bool (cname ^ ": tiny-compiled = engine") true
            (List.equal Dewey.equal
               (Rengine.search ~config index query)
               (Plan.run_search ~config plan index)))
        (Lazy.force plan_corpora))

let test_plan_refine_eq_engine () =
  List.iter
    (fun (cname, index) ->
      let k1, k2 = top2 index in
      List.iter
        (fun query ->
          (* one compiled rule list serves every (k, algorithm) combination *)
          let plan = Plan.compile_refine index query in
          List.iter
            (fun (k, algorithm) ->
              let config = { Rengine.default_config with Rengine.k; algorithm } in
              let bytes resp = Json.to_string (Api.refine_payload index ~query resp) in
              check Alcotest.string
                (Printf.sprintf "%s/%s k=%d {%s}" cname
                   (Rengine.algorithm_name algorithm)
                   k (String.concat " " query))
                (bytes (Rengine.refine ~config index query))
                (bytes (Plan.run_refine ~config plan index query)))
            [ (3, Rengine.Partition); (2, Rengine.Short_list_eager); (1, Rengine.Stack_refine) ])
        [ [ k1; k2; "zzparjunk" ]; [ "zzonly" ] ])
    (Lazy.force plan_corpora)

(* ---- plan cache ----------------------------------------------------------- *)

let dummy_search () = Plan_cache.Search (Plan.compile_search (Index.build (Xr_data.Figure1.doc ())) [ "x" ])

let test_plan_cache_hits_and_eviction () =
  let cache = Plan_cache.create ~shards:1 ~capacity:2 () in
  let compiles = ref 0 in
  let get key =
    Plan_cache.find_or_compile cache ~key (fun () ->
        incr compiles;
        dummy_search ())
  in
  let h0 = Plan_cache.hits () and m0 = Plan_cache.misses () in
  ignore (get "a");
  ignore (get "a");
  check Alcotest.int "one compile for two lookups" 1 !compiles;
  check Alcotest.int "hit counted" 1 (Plan_cache.hits () - h0);
  check Alcotest.int "miss counted" 1 (Plan_cache.misses () - m0);
  ignore (get "b");
  ignore (get "c");
  (* FIFO, capacity 2: "a" is gone, "c" resident *)
  check Alcotest.int "bounded" 2 (Plan_cache.size cache);
  ignore (get "c");
  check Alcotest.int "resident key needs no compile" 3 !compiles;
  ignore (get "a");
  check Alcotest.int "evicted key recompiles" 4 !compiles

let test_plan_cache_single_flight () =
  let cache = Plan_cache.create ~shards:1 ~capacity:8 () in
  let compiles = Atomic.make 0 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Plan_cache.find_or_compile cache ~key:"same" (fun () ->
                Atomic.incr compiles;
                Unix.sleepf 0.02;
                dummy_search ())))
  in
  Array.iter (fun d -> ignore (Domain.join d)) domains;
  check Alcotest.int "the herd compiles once" 1 (Atomic.get compiles)

(* ---- coalescer ------------------------------------------------------------ *)

let test_coalesce_single_flight () =
  let t = Coalesce.create () in
  let entered = Atomic.make 0 in
  let renders = Atomic.make 0 in
  let results = Array.make 4 ("", false) in
  let domains =
    Array.init 4 (fun i ->
        Domain.spawn (fun () ->
            Atomic.incr entered;
            results.(i) <-
              Coalesce.run t ~key:"k" (fun () ->
                  Atomic.incr renders;
                  (* hold the flight open until every domain has entered
                     [run], then a beat longer so the last one blocks *)
                  while Atomic.get entered < 4 do
                    Domain.cpu_relax ()
                  done;
                  Unix.sleepf 0.05;
                  "body")))
  in
  Array.iter (fun d -> Domain.join d) domains;
  check Alcotest.int "one render" 1 (Atomic.get renders);
  Array.iter (fun (b, _) -> check Alcotest.string "same bytes" "body" b) results;
  check Alcotest.int "exactly one leader" 1
    (Array.length (Array.of_seq (Seq.filter (fun (_, f) -> not f) (Array.to_seq results))));
  check Alcotest.int "flight closed" 0 (Coalesce.in_flight t)

let test_coalesce_exception_propagates () =
  let t = Coalesce.create () in
  let entered = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let domains =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr entered;
            match
              Coalesce.run t ~key:"boom" (fun () ->
                  while Atomic.get entered < 2 do
                    Domain.cpu_relax ()
                  done;
                  Unix.sleepf 0.05;
                  failwith "render failed")
            with
            | _ -> ()
            | exception Failure _ -> Atomic.incr failures))
  in
  Array.iter (fun d -> Domain.join d) domains;
  check Alcotest.int "leader and follower both raise" 2 (Atomic.get failures);
  check Alcotest.int "failed flight closed" 0 (Coalesce.in_flight t)

let test_coalesce_follower_helps () =
  (* A follower's wait must drain queued pool work. Fill the global pool
     (two workers + one submitting helper) with three blockers so the
     fourth task stays queued, then open a flight whose leader holds
     until that task has run: the only domain that can run it is the
     follower, through the [try_help] call in its wait loop. *)
  Xr_pool.reset_global ~domains:3 ();
  let pool = Xr_pool.global () in
  let started = Atomic.make 0 in
  let release = Atomic.make false in
  let helped_ran = Atomic.make 0 in
  let task () =
    if Atomic.fetch_and_add started 1 < 3 then
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done
    else Atomic.incr helped_ran
  in
  let submitter = Domain.spawn (fun () -> Xr_pool.run pool (Array.make 4 task)) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Domain.join submitter;
      (* back to the environment's default size for the tests after us *)
      Xr_pool.reset_global ())
    (fun () ->
      while Atomic.get started < 3 do
        Domain.cpu_relax ()
      done;
      let helped_before = Coalesce.helped () in
      let t = Coalesce.create () in
      let entered = Atomic.make 0 in
      let flyers =
        Array.init 2 (fun _ ->
            Domain.spawn (fun () ->
                Atomic.incr entered;
                Coalesce.run t ~key:"h" (fun () ->
                    (* hold the flight until the follower has entered
                       and donated its wait to the queued task *)
                    while Atomic.get entered < 2 || Atomic.get helped_ran < 1 do
                      Domain.cpu_relax ()
                    done;
                    "body")))
      in
      let results = Array.map Domain.join flyers in
      Array.iter (fun (b, _) -> check Alcotest.string "same bytes" "body" b) results;
      check Alcotest.int "queued task ran exactly once" 1 (Atomic.get helped_ran);
      check Alcotest.bool "helped counter ticked" true (Coalesce.helped () > helped_before))

(* ---- nested pool help ----------------------------------------------------- *)

(* Run [f] on its own domain and fail, instead of hanging the suite,
   when it has not returned after [seconds]; a stuck body is abandoned. *)
let within ~seconds what f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () -> Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get result with
    | Some r ->
      Domain.join d;
      (match r with Ok v -> v | Error e -> raise e)
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "%s: still blocked after %.0f s" what seconds
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
  in
  wait ()

let test_plan_cache_nested_help () =
  (* A compile helps the domain pool (its cost measure runs a batch), and
     the task it picks up — another request's shard render — looks up
     plans in the same shard: here both the key being compiled and a
     fresh one. A size-1 pool runs the task inline, nested in the
     compile; compiling under the shard lock relocked it on the same
     domain. *)
  let pool = Xr_pool.create ~domains:1 () in
  let cache = Plan_cache.create ~shards:1 ~capacity:8 () in
  Fun.protect ~finally:(fun () -> Xr_pool.shutdown pool) @@ fun () ->
  within ~seconds:3. "nested plan lookups" (fun () ->
      ignore
        (Plan_cache.find_or_compile cache ~key:"outer" (fun () ->
             Xr_pool.run pool
               [|
                 (fun () ->
                   ignore (Plan_cache.find_or_compile cache ~key:"outer" dummy_search);
                   ignore (Plan_cache.find_or_compile cache ~key:"inner" dummy_search));
               |];
             dummy_search ())));
  check Alcotest.int "both plans cached" 2 (Plan_cache.size cache)

let test_coalesce_nested_help () =
  (* A leader's render helps the pool and picks up a task asking for the
     same key. That task runs nested in the leader's frame, so following
     the flight would wait on itself: it renders on its own instead. *)
  let pool = Xr_pool.create ~domains:1 () in
  let t = Coalesce.create () in
  Fun.protect ~finally:(fun () -> Xr_pool.shutdown pool) @@ fun () ->
  let nested = ref ("", true) in
  let outer =
    within ~seconds:3. "nested follower" (fun () ->
        Coalesce.run t ~key:"k" (fun () ->
            Xr_pool.run pool
              [| (fun () -> nested := Coalesce.run t ~key:"k" (fun () -> "nested")) |];
            "outer"))
  in
  check Alcotest.(pair string bool) "leader keeps its own value" ("outer", false) outer;
  check
    Alcotest.(pair string bool)
    "nested arrival renders, not follows" ("nested", false) !nested;
  check Alcotest.int "flight closed" 0 (Coalesce.in_flight t)

let test_coalesce_window () =
  let t = Coalesce.create ~window_ms:2.5 () in
  check (Alcotest.float 0.001) "window readable" 2.5 (Coalesce.window_ms t);
  Coalesce.set_window_ms t 0.;
  let body, follower = Coalesce.run t ~key:"w" (fun () -> "x") in
  check Alcotest.string "solo run unaffected" "x" body;
  check Alcotest.bool "solo run leads" false follower

(* ---- server: plans survive requests, die with the generation -------------- *)

let with_corpora config specs f =
  let server = Server.start_corpora config specs in
  let acceptor = Domain.spawn (fun () -> Server.run server) in
  let port =
    match Server.bound_addr server with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "expected TCP"
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join acceptor)
    (fun () -> f port)

let request port text =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Http.write_all fd text;
      match Http.read_response (Http.reader_of_fd fd) with
      | Ok r -> r
      | Error e -> Alcotest.failf "response: %s" (Http.error_to_string e))

let http_get port target =
  request port (Printf.sprintf "GET %s HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n" target)

let http_post port target body =
  request port
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nhost: t\r\ncontent-length: %d\r\nconnection: close\r\n\r\n%s"
       target (String.length body) body)

let batch_stat port name =
  let _, _, body = http_get port "/stats" in
  match Json.of_string body with
  | Ok j -> (
    match Json.member "batch" j with
    | Some b -> (
      match Json.member name b with
      | Some (Json.Int n) -> n
      | _ -> Alcotest.failf "missing batch stat %s" name)
    | None -> Alcotest.fail "missing batch section in /stats")
  | Error msg -> Alcotest.failf "bad stats JSON: %s" msg

let base_config =
  {
    Server.default_config with
    Server.addr = Server.Tcp ("127.0.0.1", 0);
    domains = 2;
    log = false;
    ingest_batch = 4;
  }

let test_server_plan_cache_invalidation () =
  with_corpora base_config
    [ { Server.name = "default"; index = Index.build (Xr_data.Figure1.doc ()); kv = None } ]
    (fun port ->
      (* distinct limits bust the response cache but share one plan key,
         so the second request must hit the plan cache *)
      let _, _, body5 = http_get port "/refine?q=planware&limit=5" in
      let hits0 = batch_stat port "plan_cache_hits" in
      let _, _, body6 = http_get port "/refine?q=planware&limit=6" in
      check Alcotest.bool "limit does not change an empty result" true (body5 = body6);
      let hits1 = batch_stat port "plan_cache_hits" in
      check Alcotest.bool "second request hits the plan cache" true (hits1 > hits0);
      (* publish a generation that actually contains the keyword: the
         new generation id shifts the plan keyspace, so the served
         response must reflect the new index, not the cached plan *)
      let status, _, _ =
        http_post port "/ingest?sync=true" "<extra><note>planware</note></extra>"
      in
      check Alcotest.int "ingest accepted" 200 status;
      let misses0 = batch_stat port "plan_cache_misses" in
      let _, _, body7 = http_get port "/search?q=planware&limit=7" in
      let misses1 = batch_stat port "plan_cache_misses" in
      check Alcotest.bool "new generation compiles a fresh plan" true (misses1 > misses0);
      match Json.of_string body7 with
      | Ok j -> (
        match Json.member "count" j with
        | Some (Json.Int n) ->
          check Alcotest.bool "ingested keyword found via fresh plan" true (n > 0)
        | _ -> Alcotest.fail "search payload has no count")
      | Error msg -> Alcotest.failf "bad search JSON: %s" msg)

let test_server_batch_off_identical () =
  (* the whole batch path is an optimization: every byte served with it
     on must equal the bytes served with it off *)
  let spec () =
    [ { Server.name = "default"; index = Index.build (Xr_data.Figure1.doc ()); kv = None } ]
  in
  let targets =
    [
      "/search?q=xml+database&rank=true";
      "/search?q=xml+database&rank=true&limit=1";
      "/search?q=nothere";
      "/refine?q=xml+databases";
      "/refine?q=xml+databases&k=2&alg=sle";
      "/suggest?q=xml";
    ]
  in
  let serve config =
    with_corpora config (spec ()) (fun port ->
        List.map (fun t -> let _, _, body = http_get port t in body) targets)
  in
  let on = serve base_config in
  let off = serve { base_config with Server.batch = false } in
  List.iter2 (fun a b -> check Alcotest.string "batched bytes = unbatched bytes" b a) on off

let () =
  Alcotest.run "xr_batch"
    [
      ( "bitslice",
        [
          qcheck prop_bitslice_eq_probed;
          Alcotest.test_case "word-granular paths" `Quick test_bitslice_words;
        ] );
      ( "tiny",
        [
          qcheck prop_tiny_eq_chunk;
          Alcotest.test_case "dispatch counted" `Quick test_tiny_dispatch_counted;
        ] );
      ( "shared-scan",
        [
          qcheck (prop_run_batch_eq_solo 1);
          qcheck (prop_run_batch_eq_solo 4);
          qcheck prop_run_batch_chunked_eq_solo;
          Alcotest.test_case "root mask" `Quick test_run_batch_root_mask;
          Alcotest.test_case "disabled = solo" `Quick test_run_batch_disabled;
        ] );
      ( "plans",
        [
          Alcotest.test_case "search plan = engine" `Quick test_plan_search_eq_engine;
          Alcotest.test_case "tiny-forced plan = engine" `Quick test_plan_search_tiny_forced;
          Alcotest.test_case "refine plan = engine" `Quick test_plan_refine_eq_engine;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "hits and eviction" `Quick test_plan_cache_hits_and_eviction;
          Alcotest.test_case "single flight" `Quick test_plan_cache_single_flight;
          Alcotest.test_case "nested help" `Quick test_plan_cache_nested_help;
        ] );
      ( "coalesce",
        [
          Alcotest.test_case "single flight" `Quick test_coalesce_single_flight;
          Alcotest.test_case "exception propagates" `Quick test_coalesce_exception_propagates;
          Alcotest.test_case "follower helps the pool" `Quick test_coalesce_follower_helps;
          Alcotest.test_case "window" `Quick test_coalesce_window;
          Alcotest.test_case "nested help" `Quick test_coalesce_nested_help;
        ] );
      ( "server",
        [
          Alcotest.test_case "plan cache invalidation across publish" `Quick
            test_server_plan_cache_invalidation;
          Alcotest.test_case "batch off serves identical bytes" `Quick
            test_server_batch_off_identical;
        ] );
    ]
