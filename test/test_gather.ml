(* Multi-corpus scatter-gather on a 3-corpus, 2-shard server: merged
   bodies pinned byte for byte (on a cache miss and on the hit that
   follows), per-corpus EXPLAIN/ANALYZE blocks on the merged /search,
   and the (corpus, generation, index mode) attribution the slow-query
   log reports. Requests go straight to [Server.route]; no socket. *)

module Index = Xr_index.Index
module Server = Xr_server.Server
module Http = Xr_server.Http
module Json = Xr_server.Json

let check = Alcotest.check

let corpus name seed =
  {
    Server.name;
    index =
      Index.build
        (Xr_data.Dblp.doc
           ~config:{ Xr_data.Dblp.default_config with Xr_data.Dblp.publications = 8; seed }
           ());
    kv = None;
  }

(* Round-robin over two shards: a and c share shard 0, b is shard 1. *)
let with_server ?(specs = fun () -> [ corpus "a" 1; corpus "b" 2; corpus "c" 3 ]) f =
  let srv =
    Server.start_corpora
      {
        Server.default_config with
        Server.addr = Server.Tcp ("127.0.0.1", 0);
        domains = 1;
        shards = 2;
      }
      (specs ())
  in
  (* the acceptor never ran: stopping first makes [run] return at once
     and join the worker and ingest domains *)
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.run srv)
    (fun () -> f srv)

let get target =
  match
    Http.read_request
      (Http.reader_of_string (Printf.sprintf "GET %s HTTP/1.1\r\nhost: t\r\n\r\n" target))
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "request %s: %s" target (Http.error_to_string e)

let x_cache (resp : Http.response) = List.assoc_opt "x-cache" resp.Http.resp_headers

let json_of body =
  match Json.of_string body with
  | Ok v -> v
  | Error msg -> Alcotest.failf "not JSON (%s): %s" msg body

(* ---- golden bodies -------------------------------------------------------- *)

(* Captured from the JSON-round-trip gather this typed merge replaced;
   identical for flat and dag indexes and any pool size. Ranked merges
   break score ties (at the printed precision) by corpus, then Dewey. *)
let golden =
  [
    ( "/search?q=data+analysis&rank=true",
      {|{"query":["data","analysis"],"count":2,"ranked":true,"shards":2,"corpora":["a","c","b"],"results":[{"corpus":"b","dewey":"0.1.3","label":"title:0.1.3","snippet":"title: [data] [analysis] chase language query hash","score":1.46851132546},{"corpus":"a","dewey":"0.7.2","label":"title:0.7.2","snippet":"title: information heuristic [analysis] system learning monitori...","score":0.89314718056}]}
|} );
    ( "/search?q=data&limit=4",
      {|{"query":["data"],"count":14,"ranked":false,"shards":2,"corpora":["a","c","b"],"results":[{"corpus":"a","dewey":"0.0.2","label":"title:0.0.2","snippet":"title: web processing xml [data] storage workflow twig sort dist..."},{"corpus":"a","dewey":"0.4.2","label":"title:0.4.2","snippet":"title: wrapper2 database [data] discourse mining autonomic multi..."},{"corpus":"a","dewey":"0.5.2","label":"title:0.5.2","snippet":"title: index mining system [data] temporal2 efficient network"},{"corpus":"a","dewey":"0.6.1","label":"title:0.6.1","snippet":"title: model system design parallel [data] search"}]}
|} );
    ( "/search?q=data+title&rank=true&limit=5",
      {|{"query":["data","title"],"count":14,"ranked":true,"shards":2,"corpora":["a","c","b"],"results":[{"corpus":"b","dewey":"0.1.3","label":"title:0.1.3","snippet":"title: [data] analysis chase language query hash","score":0.487682072452},{"corpus":"b","dewey":"0.3.2","label":"title:0.3.2","snippet":"title: model [data] structure mining system parallel provenance ...","score":0.487682072452},{"corpus":"b","dewey":"0.4.1","label":"title:0.4.1","snippet":"title: [data] model network coverage likelihood","score":0.487682072452},{"corpus":"b","dewey":"0.5.1","label":"title:0.5.1","snippet":"title: [data] performance classification divergence query snapsh...","score":0.487682072452},{"corpus":"b","dewey":"0.6.2","label":"title:0.6.2","snippet":"title: dense model framework [data] efficient processing postorder","score":0.487682072452}]}
|} );
    ( "/search?q=model&rank=true&limit=6",
      {|{"query":["model"],"count":9,"ranked":true,"shards":2,"corpora":["a","c","b"],"results":[{"corpus":"c","dewey":"0.0.3","label":"title:0.0.3","snippet":"title: online latency [model] data","score":1.19861228867},{"corpus":"a","dewey":"0.4.2","label":"title:0.4.2","snippet":"title: wrapper2 database data discourse mining autonomic multive...","score":0.79314718056},{"corpus":"a","dewey":"0.6.1","label":"title:0.6.1","snippet":"title: [model] system design parallel data search","score":0.79314718056},{"corpus":"b","dewey":"0.0.1","label":"title:0.0.1","snippet":"title: [model] xml approach database","score":0.387682072452},{"corpus":"b","dewey":"0.3.2","label":"title:0.3.2","snippet":"title: [model] data structure mining system parallel provenance ...","score":0.387682072452},{"corpus":"b","dewey":"0.4.1","label":"title:0.4.1","snippet":"title: data [model] network coverage likelihood","score":0.387682072452}]}
|} );
    ( "/refine?q=data+base&k=2&limit=2",
      {|{"query":["data","base"],"shards":2,"corpora":[{"corpus":"a","query":["data","base"],"outcome":"refined","refinements":[{"keywords":["data","hash"],"operations":["{base} ->substitution {hash} (ds=2)"],"dissimilarity":2,"score":{"similarity":0.250023974563,"dependence":1.23846414513,"rank":1.48848811969},"count":1,"results":[{"dewey":"0.7.2","label":"title:0.7.2","snippet":"title: information heuristic analysis system learning monitoring..."}]},{"keywords":["data"],"operations":["delete \"base\""],"dissimilarity":2,"score":{"similarity":0.133169268077,"dependence":0.0,"rank":0.133169268077},"count":5,"results":[{"dewey":"0.0.2","label":"title:0.0.2","snippet":"title: web processing xml [data] storage workflow twig sort dist..."},{"dewey":"0.4.2","label":"title:0.4.2","snippet":"title: wrapper2 database [data] discourse mining autonomic multi..."}]}],"rules_used":["{data,base} ->merging {database} (ds=1)","{base} ->substitution {hash} (ds=2)"]},{"corpus":"c","query":["data","base"],"outcome":"refined","refinements":[{"keywords":["data"],"operations":["delete \"base\""],"dissimilarity":2,"score":{"similarity":0.109797469207,"dependence":0.0,"rank":0.109797469207},"count":4,"results":[{"dewey":"0.0.3","label":"title:0.0.3","snippet":"title: online latency model [data]"},{"dewey":"0.2.3","label":"title:0.2.3","snippet":"title: grouping [data] information ranking"}]},{"keywords":["database"],"operations":["{data,base} ->merging {database} (ds=1)"],"dissimilarity":1,"score":{"similarity":0.0930675730404,"dependence":0.0,"rank":0.0930675730404},"count":2,"results":[{"dewey":"0.3.3","label":"title:0.3.3","snippet":"title: [database] learning ancestor approximate web"},{"dewey":"0.4.3","label":"title:0.4.3","snippet":"title: online operator data locality [database] system diversity"}]}],"rules_used":["{data,base} ->merging {database} (ds=1)"]},{"corpus":"b","query":["data","base"],"outcome":"refined","refinements":[{"keywords":["chase","data"],"operations":["{base} ->substitution {chase} (ds=2)"],"dissimilarity":2,"score":{"similarity":0.221776662032,"dependence":1.23846414513,"rank":1.46024080716},"count":1,"results":[{"dewey":"0.1.3","label":"title:0.1.3","snippet":"title: [data] analysis [chase] language query hash"}]},{"keywords":["data","hash"],"operations":["{base} ->substitution {hash} (ds=2)"],"dissimilarity":2,"score":{"similarity":0.221776662032,"dependence":1.23846414513,"rank":1.46024080716},"count":1,"results":[{"dewey":"0.1.3","label":"title:0.1.3","snippet":"title: [data] analysis chase language query [hash]"}]}],"rules_used":["{data,base} ->merging {database} (ds=1)","{base} ->substitution {chase} (ds=2)","{base} ->substitution {hash} (ds=2)"]}]}
|} );
    ( "/suggest?q=analysis&k=2&limit=1",
      {|{"query":["analysis"],"shards":2,"corpora":[{"corpus":"a","query":["analysis"],"suggestions":[{"keywords":["analysis","web"],"added":"web","score":0.282466351232,"count":1,"results":[{"dewey":"0.1.1","label":"title:0.1.1","snippet":"title: [web] [analysis] processing information recovery lineage"}]},{"keywords":["analysis","processing"],"added":"processing","score":0.282466351232,"count":1,"results":[{"dewey":"0.1.1","label":"title:0.1.1","snippet":"title: web [analysis] [processing] information recovery lineage"}]}]},{"corpus":"c","query":["analysis"],"suggestions":[]},{"corpus":"b","query":["analysis"],"suggestions":[{"keywords":["analysis","data"],"added":"data","score":0.282466351232,"count":1,"results":[{"dewey":"0.1.3","label":"title:0.1.3","snippet":"title: [data] [analysis] chase language query hash"}]},{"keywords":["analysis","chase"],"added":"chase","score":0.282466351232,"count":1,"results":[{"dewey":"0.1.3","label":"title:0.1.3","snippet":"title: data [analysis] [chase] language query hash"}]}]}]}
|} );
    ( "/complete?prefix=d&k=6",
      {|{"prefix":"d","completions":[{"keyword":"data","occurrences":17},{"keyword":"database","occurrences":4},{"keyword":"dblp","occurrences":3},{"keyword":"december","occurrences":3},{"keyword":"daniel","occurrences":2},{"keyword":"donald","occurrences":2}]}
|} );
    ( "/search?q=data&rank=true&limit=3&corpus=b",
      {|{"query":["data"],"count":5,"ranked":true,"shards":2,"corpora":["a","c","b"],"results":[{"corpus":"b","dewey":"0.1.3","label":"title:0.1.3","snippet":"title: [data] analysis chase language query hash","score":0.387682072452},{"corpus":"b","dewey":"0.3.2","label":"title:0.3.2","snippet":"title: model [data] structure mining system parallel provenance ...","score":0.387682072452},{"corpus":"b","dewey":"0.4.1","label":"title:0.4.1","snippet":"title: [data] model network coverage likelihood","score":0.387682072452}]}
|} );
  ]

let test_golden (target, expected) () =
  with_server (fun srv ->
      let miss = Server.handle srv (get target) in
      check Alcotest.int "status" 200 miss.Http.status;
      check Alcotest.(option string) "first is a miss" (Some "miss") (x_cache miss);
      check Alcotest.string "miss body" expected miss.Http.resp_body;
      let hit = Server.handle srv (get target) in
      check Alcotest.(option string) "second is a hit" (Some "hit") (x_cache hit);
      check Alcotest.string "hit body" expected hit.Http.resp_body)

(* ---- per-corpus EXPLAIN / ANALYZE ----------------------------------------- *)

let field name v =
  match Json.member name v with Some x -> x | None -> Alcotest.failf "no field %s" name

let without names = function
  | Json.Obj fields ->
    Json.Obj (List.filter (fun (k, _) -> not (List.mem k names)) fields)
  | j -> j

let corpora_of blocks =
  match blocks with
  | Json.List l ->
    List.map (fun b -> match field "corpus" b with Json.String s -> s | _ -> "?") l
  | _ -> Alcotest.fail "per-corpus blocks are not a list"

let test_explain_per_corpus () =
  with_server (fun srv ->
      let body target = (Server.handle srv (get target)).Http.resp_body in
      let plain = json_of (body "/search?q=data+model&rank=true") in
      let explained = json_of (body "/search?q=data+model&rank=true&explain=1") in
      check Alcotest.(list string) "one explain block per corpus, shard order"
        [ "a"; "c"; "b" ]
        (corpora_of (field "explain" explained));
      check Alcotest.bool "no analyze without analyze=1" true
        (Json.member "analyze" explained = None);
      check Alcotest.bool "results unchanged by explain" true
        (Json.equal plain (without [ "explain" ] explained));
      let analyzed = json_of (body "/search?q=data+model&rank=true&analyze=1") in
      check Alcotest.(list string) "explain with analyze" [ "a"; "c"; "b" ]
        (corpora_of (field "explain" analyzed));
      check Alcotest.(list string) "analyze blocks per corpus" [ "a"; "c"; "b" ]
        (corpora_of (field "analyze" analyzed));
      check Alcotest.bool "results unchanged by analyze" true
        (Json.equal plain (without [ "explain"; "analyze" ] analyzed));
      let filtered = json_of (body "/search?q=data+model&rank=true&explain=1&corpus=a") in
      check Alcotest.(list string) "corpus filter keeps its block" [ "a" ]
        (corpora_of (field "explain" filtered));
      (* each block is the one a single-corpus server reports *)
      let single =
        with_server ~specs:(fun () -> [ corpus "a" 1 ]) (fun one ->
            json_of
              (Server.handle one (get "/search?q=data+model&rank=true&explain=1"))
                .Http.resp_body)
      in
      match field "explain" filtered with
      | Json.List [ block ] ->
        check Alcotest.bool "block = single-corpus explain" true
          (Json.equal (field "explain" single) (without [ "corpus" ] block))
      | _ -> Alcotest.fail "expected one block")

(* ---- slow-query attribution ----------------------------------------------- *)

let test_served_attribution () =
  with_server (fun srv ->
      let served target =
        let resp, corpora = Server.route srv (get target) in
        check Alcotest.int (target ^ " status") 200 resp.Http.status;
        (x_cache resp, corpora)
      in
      let names = List.map (fun (c, _, _) -> c) in
      List.iter
        (fun target ->
          let c0, miss = served target in
          let c1, hit = served target in
          check Alcotest.(option string) (target ^ " miss") (Some "miss") c0;
          check Alcotest.(option string) (target ^ " hit") (Some "hit") c1;
          check
            Alcotest.(list string)
            (target ^ " every corpus on a miss")
            [ "a"; "c"; "b" ] (names miss);
          check
            Alcotest.(list (triple string int string))
            (target ^ " same attribution on the hit") miss hit)
        [
          "/search?q=data&rank=true";
          "/refine?q=data+base";
          "/suggest?q=analysis";
          "/complete?prefix=d";
        ];
      let _, only = served "/search?q=data&corpus=b" in
      check Alcotest.(list string) "corpus filter" [ "b" ] (names only);
      let _, none = served "/stats" in
      check Alcotest.(list string) "no index read" [] (names none))

let () =
  Alcotest.run "gather"
    [
      ( "golden",
        List.map
          (fun ((target, _) as g) -> Alcotest.test_case target `Quick (test_golden g))
          golden );
      ( "introspection",
        [ Alcotest.test_case "explain/analyze per corpus" `Quick test_explain_per_corpus ] );
      ( "attribution",
        [ Alcotest.test_case "served corpora on miss and hit" `Quick test_served_attribution ] );
    ]
