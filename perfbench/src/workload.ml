(* Workload generation: corpora on disk, the in-process indexes the
   sampler and the reference instance need, and the request stream.
   All of it is benchmark time, derived from the seed alone. *)

module Sched = Perfbench_core.Sched
module Stats = Perfbench_core.Stats
module Rng = Xr_data.Rng
module Querylog = Xr_eval.Querylog
module Index = Xr_index.Index
module Http = Xr_server.Http

type request = {
  op : Sched.op;
  target : string;
  body : string;  (** POST body; [""] for reads *)
  intent : string list option;
      (** corrupted refine cases: the normalized, sorted intent the first
          refined query should equal *)
}

type corpus = {
  cname : string;  (** the server names a corpus after its file's basename *)
  file : string;
  nodes : int;
  mutable index : Index.t option;  (** dropped before the server starts *)
}

type t = {
  name : string;
  corpora : corpus list;  (** in serve order *)
  write_corpus : string option;
  write_probe : (corpus * corpus) option;
      (** the write corpus as served, and with some writes already in it:
          every read must get the same body from both *)
  requests : request array;
  due : float array option;  (** open loop: due times, seconds from window start *)
  connections : int;
  setups : int;
      (** server start-ups per run; [setup_s] is their nearest-rank median,
          the lower one of two *)
  parse_s : float;  (** in-process build of the same XML, split by stage *)
  compile_s : float;
  index_s : float;
  workload_s : float;  (** corpus generation and query sampling *)
}

(* mixed-ingest-2x10k-c2 is the mixed workload over two connections. It
   is not in BENCHMARK.json: with two requests in flight over several
   corpora the server now and then answers 500 or stops answering at
   all (see README.md), and this variant reproduces that. *)
let names =
  [ "search-100k"; "refine-querylog-20k"; "mixed-ingest-2x10k"; "mixed-ingest-2x10k-c2" ]

(* ---- corpora ----------------------------------------------------------- *)

type timer = { mutable parse : float; mutable compile : float; mutable build : float }

(* Benchmark-time work (corpus generation, sampling, reference bodies)
   runs with a 64 MB minor heap and a lazier major GC, to keep the run
   short (search-100k's reference bodies: 14.7 s to 10.6 s in one
   comparison). The program's own work measured in-process (the build
   behind setup.*, the traced pass) keeps the default settings, and the
   server never sees these. *)
let with_bench_gc f =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 1 lsl 23; space_overhead = 200 };
  Fun.protect ~finally:(fun () -> Gc.set saved) f

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let load timer ~cname ~file =
  let tree, dp = timed (fun () -> Xr_xml.Parser.parse_file file) in
  let doc, dc = timed (fun () -> Xr_xml.Doc.of_tree tree) in
  let index, di = timed (fun () -> Index.build doc) in
  timer.parse <- timer.parse +. dp;
  timer.compile <- timer.compile +. dc;
  timer.build <- timer.build +. di;
  { cname; file; nodes = Xr_xml.Doc.node_count doc; index = Some index }

let index c =
  match c.index with Some i -> i | None -> invalid_arg "Workload.index: dropped"

let write_dblp ~dir ~cname ~publications ~seed =
  let file = Filename.concat dir (cname ^ ".xml") in
  Xr_xml.Printer.to_file file (Xr_data.Dblp.scaled ~publications ~seed);
  file

let write_text ~dir ~cname text =
  let file = Filename.concat dir (cname ^ ".xml") in
  Out_channel.with_open_bin file (fun oc -> output_string oc text);
  file

(* ---- requests ---------------------------------------------------------- *)

let q_param words = String.concat "+" (List.map Http.percent_encode words)

let search ?(rank = false) words =
  {
    op = Sched.Search;
    target =
      Printf.sprintf "/search?%sq=%s" (if rank then "rank=true&" else "") (q_param words);
    body = "";
    intent = None;
  }

let refine ?intent words =
  { op = Sched.Refine; target = "/refine?q=" ^ q_param words; body = ""; intent }

let query_key words = String.concat " " (List.sort_uniq String.compare words)

let normalized_intent words =
  List.sort_uniq String.compare (List.map Xr_xml.Token.normalize words)

(* [n] distinct intents from [sample_intent], drawn from the corpora in
   turn, of 2 and 3 keywords alternately. *)
let sample_intents rng indexes ~n =
  let seen = Hashtbl.create n in
  let out = ref [] and got = ref 0 and attempt = ref 0 in
  let ixs = Array.of_list indexes in
  while !got < n && !attempt < 20 * n do
    let index = ixs.(!attempt mod Array.length ixs) in
    let len = 2 + (!attempt mod 2) in
    incr attempt;
    match Querylog.sample_intent rng index ~len with
    | Some q when not (Hashtbl.mem seen (query_key q)) ->
      Hashtbl.add seen (query_key q) ();
      out := q :: !out;
      incr got
    | _ -> ()
  done;
  List.rev !out

(* ---- search-100k: stratified distinct intents ------------------------- *)

(* Result-count classes of [sample_intent] queries on the generated dblp
   corpus, with their shares in the sampler's own output (estimated once
   from 300 draws). Each run takes exactly these shares, so run-to-run
   differences come from the queries within a class, not from how many
   cheap or expensive queries a seed happened to draw. *)
let strata =
  [|
    (1, 5, 13);
    (5, 20, 12);
    (20, 100, 13);
    (100, 1000, 24);
    (1000, 10000, 22);
    (10000, max_int, 16);
  |]

(* [n] split by the shares; the rounding remainder goes to the classes
   in order. *)
let quotas n =
  let q = Array.map (fun (_, _, share) -> share * n / 100) strata in
  let rest = ref (n - Array.fold_left ( + ) 0 q) in
  Array.iteri
    (fun i _ ->
      if !rest > 0 then begin
        q.(i) <- q.(i) + 1;
        decr rest
      end)
    q;
  q

let stratum count =
  let r = ref (-1) in
  Array.iteri (fun i (lo, hi, _) -> if count >= lo && count < hi then r := i) strata;
  !r

(* Candidates come from two sampler streams, one per domain, merged in a
   fixed order: the result depends on the seed, not on scheduling. *)
let stratified_intents ~seed index ~n =
  let quota = quotas n in
  let taken = Array.make (Array.length strata) [] in
  let seen = Hashtbl.create (2 * n) in
  let rngs = Array.init 2 (fun d -> Rng.create ((seed * 1000003) + 17 + d)) in
  let counters = Array.make 2 0 in
  let batch = 16 in
  let draw d () =
    List.init batch (fun _ ->
        let len = 2 + (counters.(d) mod 2) in
        counters.(d) <- counters.(d) + 1;
        match Querylog.sample_intent rngs.(d) index ~len with
        | None -> None
        | Some q -> Some (q, List.length (Xr_refine.Engine.search index q)))
  in
  let full () = Array.for_all2 (fun q l -> List.length l >= q) quota taken in
  let leftovers = ref [] in
  let rounds = ref 0 in
  while (not (full ())) && !rounds < 6 * n / (2 * batch) + 4 do
    incr rounds;
    let other = Domain.spawn (draw 1) in
    let mine = draw 0 () in
    let theirs = Domain.join other in
    List.iter
      (function
        | None -> ()
        | Some (q, count) ->
          let key = query_key q in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            let s = stratum count in
            if s >= 0 && List.length taken.(s) < quota.(s) then
              taken.(s) <- q :: taken.(s)
            else leftovers := q :: !leftovers
          end)
      (mine @ theirs)
  done;
  let chosen = List.concat_map List.rev (Array.to_list taken) in
  (* a seed whose corpus starves a class tops up from the other draws *)
  let missing = n - List.length chosen in
  let extra = List.filteri (fun i _ -> i < missing) (List.rev !leftovers) in
  Rng.shuffle (Rng.create (seed + 5)) (chosen @ extra)

(* ---- the three workloads ---------------------------------------------- *)

let marker = "perfbenchmark"

(* Offered load of the mixed workload, arrivals per second. On one
   connection a request due while a cold miss is in flight waits for
   it, and the wait counts in its latency. At 140/s the p75 read waited
   0.5-5 ms, so the p50 read sat close to that knee and moved with host
   speed; at 100/s the p75 read waits under 0.2 ms. At 5% writes it
   takes about 20 s of arrivals to reach 100 ingest samples. *)
let mixed_rate = 100.

(* Every tag and word of the write corpus is a long "perfbench" token, at
   edit distance above 2 from every dblp word, so no read query or
   refinement rule can reach it and its answer to every read stays the
   same while writes land. (A short tag such as "note" would not be: a
   refine on "jose" substitutes "note".) *)
let write_doc i =
  Printf.sprintf "<perfbenchdoc><perfbenchnote>%s perfbenchid%06d</perfbenchnote></perfbenchdoc>"
    marker i

let write_corpus_text docs =
  "<perfbenchwrites><perfbenchdoc><perfbenchnote>perfbenchseed</perfbenchnote></perfbenchdoc>"
  ^ String.concat "" docs ^ "</perfbenchwrites>\n"

(* search-100k: distinct, stratified [sample_intent] queries, ranked. *)
let search_requests ~seed index ~n =
  List.map (search ~rank:true) (stratified_intents ~seed index ~n)

(* refine-querylog-20k: one pass over the distinct corrupted queries of
   the paper's corruption pool, kinds interleaved. *)
let refine_requests ~seed index ~per_kind =
  let rng = Rng.create ((seed * 7919) + 3) in
  let pool = Querylog.pool ~thesaurus:(Xr_text.Thesaurus.default ()) rng index ~per_kind in
  let seen = Hashtbl.create 256 in
  List.filter
    (fun (k : Querylog.case) ->
      let key = query_key k.Querylog.corrupted in
      (not (Hashtbl.mem seen key))
      &&
      (Hashtbl.add seen key ();
       true))
    pool
  |> Rng.shuffle rng
  |> List.map (fun (k : Querylog.case) ->
         refine ~intent:(normalized_intent k.Querylog.intent) k.Querylog.corrupted)

(* mixed-ingest-2x10k: Poisson arrivals of Zipf-popular intent queries
   (70% /search, 30% /refine) and 5% synced writes, until the window is
   covered and every operation type has its minimum sample count. *)
let mixed_schedule ~seed ~seconds ~rate indexes ~write_corpus =
  let rng = Rng.create ((seed * 104729) + 11) in
  let intents = Array.of_list (Rng.shuffle rng (sample_intents rng indexes ~n:150)) in
  let zipf = Xr_data.Zipf.create ~n:(Array.length intents) ~s:1.0 in
  let counts = Hashtbl.create 3 in
  let count op = try Hashtbl.find counts op with Not_found -> 0 in
  let enough () =
    List.for_all (fun op -> count op >= Stats.min_samples) Sched.[ Search; Refine; Ingest ]
  in
  let acc = ref [] and t = ref 0. in
  while !t < seconds || not (enough ()) do
    t := !t +. Sched.exponential rng ~rate;
    let op = Sched.draw_op rng ~write_share:0.05 ~search_share:0.7 in
    Hashtbl.replace counts op (count op + 1);
    let req =
      match op with
      | Sched.Ingest ->
        {
          op;
          target = "/ingest?sync=true&corpus=" ^ write_corpus;
          body = write_doc (count op);
          intent = None;
        }
      | Sched.Search -> search (Xr_data.Zipf.pick zipf rng intents)
      | Sched.Refine -> refine (Xr_data.Zipf.pick zipf rng intents)
    in
    acc := (!t, req) :: !acc
  done;
  let l = List.rev !acc in
  (Array.of_list (List.map snd l), Array.of_list (List.map fst l))

let build ~name ~seed ~seconds ~dir =
  let timer = { parse = 0.; compile = 0.; build = 0. } in
  let gen_s = ref 0. in
  let gen f =
    let v, d = timed (fun () -> with_bench_gc f) in
    gen_s := !gen_s +. d;
    v
  in
  let finish ~corpora ?write_corpus ?write_probe ?due ~connections ~setups requests =
    {
      name;
      corpora;
      write_corpus;
      write_probe;
      requests;
      due;
      connections;
      setups;
      parse_s = timer.parse;
      compile_s = timer.compile;
      index_s = timer.build;
      workload_s = !gen_s;
    }
  in
  match name with
  | "search-100k" ->
    let file = gen (fun () -> write_dblp ~dir ~cname:"dblp" ~publications:100_000 ~seed) in
    let c = load timer ~cname:"dblp" ~file in
    let requests = gen (fun () -> search_requests ~seed (index c) ~n:Stats.min_samples) in
    (* two start-ups of about 10 s each, not three, keep a full
       steadiness check of all workloads within the hour *)
    finish ~corpora:[ c ] ~connections:1 ~setups:2 (Array.of_list requests)
  | "refine-querylog-20k" ->
    let file = gen (fun () -> write_dblp ~dir ~cname:"dblp" ~publications:20_000 ~seed) in
    let c = load timer ~cname:"dblp" ~file in
    let requests = gen (fun () -> refine_requests ~seed (index c) ~per_kind:25) in
    finish ~corpora:[ c ] ~connections:1 ~setups:3 (Array.of_list requests)
  | ("mixed-ingest-2x10k" | "mixed-ingest-2x10k-c2") as mixed ->
    let fa, fb, fw =
      gen (fun () ->
          ( write_dblp ~dir ~cname:"reada" ~publications:10_000 ~seed,
            write_dblp ~dir ~cname:"readb" ~publications:10_000 ~seed:(seed + 1),
            write_text ~dir ~cname:"writes" (write_corpus_text []) ))
    in
    let a = load timer ~cname:"reada" ~file:fa in
    let b = load timer ~cname:"readb" ~file:fb in
    let w = load timer ~cname:"writes" ~file:fw in
    let w' =
      let file =
        write_text ~dir ~cname:"writes-probe"
          (write_corpus_text (List.init 3 (fun i -> write_doc (i + 1))))
      in
      load { parse = 0.; compile = 0.; build = 0. } ~cname:"writes" ~file
    in
    let requests, due =
      gen (fun () ->
          mixed_schedule ~seed ~seconds ~rate:mixed_rate [ index a; index b ]
            ~write_corpus:w.cname)
    in
    let connections = if mixed = "mixed-ingest-2x10k" then 1 else 2 in
    finish ~corpora:[ a; b; w ] ~write_corpus:w.cname ~write_probe:(w, w') ~due ~connections
      ~setups:3 requests
  | other -> invalid_arg ("unknown workload " ^ other)
