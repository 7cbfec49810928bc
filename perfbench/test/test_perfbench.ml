(* The benchmark's own pure pieces: percentiles and the sample-count
   rule, the deterministic schedules, open-loop timing, span arithmetic,
   and the no-repeat property of the miss-only request streams. *)

open Perfbench_core
module Workload = Perfbench_run.Workload

let floats = Alcotest.(array (float 0.))

let check_float ?(eps = 0.) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_true msg cond = Alcotest.(check bool) msg true cond

(* ---- percentiles ------------------------------------------------------ *)

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  let p pct xs = Stats.percentile ~pct xs in
  check_float "p50 of 1..100" 50. (p 50 xs);
  check_float "p90 of 1..100" 90. (p 90 xs);
  check_float "p100 is the max" 100. (p 100 xs);
  check_float "single sample" 7. (p 90 [| 7. |]);
  check_float "p50 of two is the lower" 1. (p 50 [| 2.; 1. |]);
  check_true "empty is nan" (Float.is_nan (p 50 [||]));
  check_float "input not mutated" 100. xs.(0)

let test_sample_rule () =
  Alcotest.(check int) "rank p90 of 100" 90 (Stats.rank ~pct:90 100);
  Alcotest.(check int) "rank p90 of 101" 91 (Stats.rank ~pct:90 101);
  Alcotest.(check int) "10 beyond p90 at 100" 10 (Stats.beyond ~pct:90 100);
  Alcotest.(check int) "9 beyond p90 at 99" 9 (Stats.beyond ~pct:90 99);
  Alcotest.(check int) "min samples" 100 Stats.min_samples;
  for n = 1 to 1000 do
    let enough = Stats.beyond ~pct:90 n >= Stats.min_beyond_p90 in
    Alcotest.(check bool) (Printf.sprintf "rule at %d" n) (n >= Stats.min_samples) enough
  done

(* ---- schedules -------------------------------------------------------- *)

let tiny_index =
  lazy
    (Xr_index.Index.build
       (Xr_xml.Doc.of_tree (Xr_data.Dblp.scaled ~publications:300 ~seed:3)))

let mixed seed =
  Workload.mixed_schedule ~seed ~seconds:10. ~rate:200. [ Lazy.force tiny_index ]
    ~write_corpus:"w"

let target_list rs = Array.to_list (Array.map (fun r -> r.Workload.target) rs)

let test_poisson () =
  let r1, d1 = mixed 4 and r2, d2 = mixed 4 and _, d3 = mixed 5 in
  Alcotest.check floats "same seed, same due times" d1 d2;
  check_true "another seed differs" (d1 <> d3);
  Alcotest.(check (list string)) "same seed, same requests" (target_list r1) (target_list r2);
  Array.iteri (fun i t -> if i > 0 then check_true "increasing" (t > d1.(i - 1))) d1;
  let rate = float_of_int (Array.length d1) /. d1.(Array.length d1 - 1) in
  check_true (Printf.sprintf "rate holds (%.1f/s)" rate) (rate > 180. && rate < 220.)

let test_mix_and_zipf () =
  let rs, due = mixed 7 in
  check_true "covers the window" (due.(Array.length due - 1) >= 10.);
  let of_op op = List.filter (fun r -> r.Workload.op = op) (Array.to_list rs) in
  List.iter
    (fun op ->
      check_true "every operation type has its minimum"
        (List.length (of_op op) >= Stats.min_samples))
    Sched.[ Search; Refine; Ingest ];
  let writes = List.map (fun r -> r.Workload.body) (of_op Sched.Ingest) in
  check_true "write documents are distinct" (Sched.all_distinct writes);
  (* Zipf popularity: the most requested query dwarfs the typical one *)
  let freq = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let k = r.Workload.target in
      Hashtbl.replace freq k (1 + Option.value ~default:0 (Hashtbl.find_opt freq k)))
    (of_op Sched.Search);
  let counts = List.sort compare (Hashtbl.fold (fun _ n acc -> n :: acc) freq []) in
  let top = List.nth counts (List.length counts - 1) in
  let median = List.nth counts (List.length counts / 2) in
  check_true (Printf.sprintf "skewed (top %d, median %d)" top median) (top > 10 * median)

(* ---- open-loop timing --------------------------------------------------- *)

let test_open_loop_timing () =
  let t = { Sched.due = 1.0; sent = 1.25; done_ = 2.0 } in
  check_float ~eps:1e-12 "latency from due" 1.0 (Sched.latency t);
  check_float ~eps:1e-12 "lateness" 0.25 (Sched.lateness t);
  check_float ~eps:1e-12 "service" 0.75 (Sched.service t);
  let on_time = { Sched.due = 3.; sent = 3.; done_ = 3.5 } in
  check_float ~eps:1e-12 "no lateness, latency = service" (Sched.service on_time)
    (Sched.latency on_time)

(* ---- spans ---------------------------------------------------------------- *)

let span id parent name ns = { Spans.id; parent; name; ns; words = 0. }

let test_spans () =
  let spans =
    [
      span 1 0 "server.handle" 100.;
      span 2 1 "http.parse" 10.;
      span 3 1 "render" 60.;
      span 4 3 "render.subtree" 50.;
      span 5 1 "http.serialize" 20.;
      span 6 0 "server.handle" 50.;
      span 7 6 "http.parse" 50.;
    ]
  in
  let self i = Spans.self_ns spans (List.nth spans i) in
  let coverage spans = Spans.coverage ~root:"server.handle" spans in
  check_float ~eps:1e-9 "self = parent - direct children" 10. (self 0);
  check_float ~eps:1e-9 "grandchildren only count under their parent" 10. (self 2);
  check_float ~eps:1e-9 "fully covered root" 0. (self 5);
  check_float ~eps:1e-9 "leaf self is itself" 20. (self 4);
  (* other roots (here a write-path span) stay out of the coverage *)
  let share, self_total = coverage (span 8 0 "ingest.append" 70. :: spans) in
  check_float ~eps:1e-9 "nearest-rank median of the named roots (0.9 and 1)" 0.9 share;
  check_float ~eps:1e-9 "summed root self time" 10. self_total;
  let first_root = List.filteri (fun i _ -> i < 5) spans in
  check_float ~eps:1e-9 "one root" 0.9 (fst (coverage first_root));
  check_float ~eps:1e-9 "no roots" 0. (fst (coverage []));
  let third = [ span 9 0 "server.handle" 40.; span 10 9 "http.parse" 20. ] in
  check_float ~eps:1e-9 "median of three roots" 0.9 (fst (coverage (spans @ third)));
  let ns, _, n = Hashtbl.find (Spans.totals spans) "http.parse" in
  check_float ~eps:1e-9 "totals sum" 60. ns;
  Alcotest.(check int) "totals count" 2 n

(* ---- prometheus ---------------------------------------------------------- *)

let test_prom () =
  let before =
    Prom.parse "# HELP x\nxr_a_total 3\nxr_b{event=\"hit\"} 1\nxr_b{event=\"miss\"} 4\n"
  in
  let after =
    Prom.parse
      "xr_a_total 10\nxr_b{event=\"hit\"} 6 # {trace_id=\"7\"} 2.5\nxr_b{event=\"miss\"} 4\n"
  in
  check_float "delta" 7. (Prom.delta ~before ~after "xr_a_total");
  check_float "labelled delta" 5. (Prom.delta ~label:("event", "hit") ~before ~after "xr_b");
  check_float "family sum" 10. (Prom.sum after "xr_b");
  check_float "absent family" 0. (Prom.sum after "xr_nope")

(* ---- miss-only streams never repeat ------------------------------------- *)

let small_index seed =
  Xr_index.Index.build (Xr_xml.Doc.of_tree (Xr_data.Dblp.scaled ~publications:2000 ~seed))

let targets rs = List.map (fun r -> r.Workload.target) rs

let test_search_stream_distinct () =
  let index = small_index 1 in
  let rs = Workload.search_requests ~seed:1 index ~n:Stats.min_samples in
  Alcotest.(check int) "stream length" Stats.min_samples (List.length rs);
  check_true "no target repeats" (Sched.all_distinct (targets rs));
  check_true "no keyword set repeats"
    (Sched.all_distinct
       (List.map
          (fun r ->
            let q = List.assoc "q" (snd (Xr_server.Http.split_target r.Workload.target)) in
            Workload.query_key (String.split_on_char ' ' q))
          rs));
  Alcotest.(check (list string)) "deterministic" (targets rs)
    (targets (Workload.search_requests ~seed:1 index ~n:Stats.min_samples))

let test_refine_stream_distinct () =
  let index = small_index 2 in
  let rs = Workload.refine_requests ~seed:2 index ~per_kind:10 in
  check_true "non-empty" (List.length rs > 20);
  check_true "no target repeats" (Sched.all_distinct (targets rs));
  check_true "every case carries its intent"
    (List.for_all (fun r -> r.Workload.intent <> None) rs)

(* No read of the mixed workload may reach the write corpus, or its
   reference body would change as writes land: every write-corpus word
   must lie beyond the refinement rules' reach of every dblp word. *)
let test_write_corpus_out_of_reach () =
  let writes =
    List.sort_uniq String.compare
      (Xr_xml.Token.tokenize (Workload.write_corpus_text [ Workload.write_doc 1 ]))
  in
  let dblp =
    Xr_xml.Doc.vocabulary (Xr_xml.Doc.of_tree (Xr_data.Dblp.scaled ~publications:2000 ~seed:1))
    @ List.concat_map Array.to_list
        Xr_data.Vocab.[ title_words; first_names; last_names; venues ]
  in
  check_true "write words are perfbench tokens"
    (List.for_all (fun w -> String.starts_with ~prefix:"perfbench" w) writes);
  List.iter
    (fun w ->
      List.iter
        (fun d ->
          let near = Xr_text.Edit_distance.within ~limit:2 w d <> None in
          let same_stem = Xr_text.Stemmer.stem w = Xr_text.Stemmer.stem d in
          let merges = String.length d < String.length w && String.starts_with ~prefix:d w in
          if near || same_stem || merges then
            Alcotest.failf "write word %s is within reach of dblp word %s" w d)
        dblp)
    writes

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "sample-count rule" `Quick test_sample_rule;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "poisson arrivals deterministic" `Quick test_poisson;
          Alcotest.test_case "zipf mix deterministic" `Quick test_mix_and_zipf;
          Alcotest.test_case "open-loop timing" `Quick test_open_loop_timing;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time and coverage" `Quick test_spans;
          Alcotest.test_case "prometheus deltas" `Quick test_prom;
        ] );
      ( "streams",
        [
          Alcotest.test_case "search-100k never repeats" `Quick
            test_search_stream_distinct;
          Alcotest.test_case "refine-querylog-20k never repeats" `Quick
            test_refine_stream_distinct;
          Alcotest.test_case "write corpus out of reach of reads" `Quick
            test_write_corpus_out_of_reach;
        ] );
    ]
