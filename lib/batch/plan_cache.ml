type entry =
  | Search of Plan.search
  | Refine of Plan.refine

let events_fam =
  Xr_obs.Registry.Counter.family ~name:"xr_plan_cache_events_total"
    ~help:"Compiled-plan cache activity" ~label_names:[ "event" ] ()

let hits_h = Xr_obs.Registry.Counter.handle events_fam [ "hit" ]

let misses_h = Xr_obs.Registry.Counter.handle events_fam [ "miss" ]

let evictions_h = Xr_obs.Registry.Counter.handle events_fam [ "eviction" ]

let hits () = Xr_obs.Registry.Counter.value hits_h

let misses () = Xr_obs.Registry.Counter.value misses_h

let evictions () = Xr_obs.Registry.Counter.value evictions_h

type shard = {
  m : Mutex.t;
  compiled : Condition.t; (* broadcast when a compile of this shard ends *)
  tbl : (string, entry) Hashtbl.t;
  compiling : (string, unit) Hashtbl.t; (* keys some domain is compiling *)
  order : string Queue.t; (* FIFO eviction: generation-keyed entries age out *)
}

type t = { shards : shard array; shard_capacity : int }

let rec pow2_geq n acc = if acc >= n then acc else pow2_geq n (acc * 2)

let create ?(shards = 8) ~capacity () =
  let n = pow2_geq (max 1 shards) 1 in
  let shard_capacity = max 1 (capacity / n) in
  {
    shards =
      Array.init n (fun _ ->
          {
            m = Mutex.create ();
            compiled = Condition.create ();
            tbl = Hashtbl.create 16;
            compiling = Hashtbl.create 4;
            order = Queue.create ();
          });
    shard_capacity;
  }

let capacity t = Array.length t.shards * t.shard_capacity

let shard_of t key = t.shards.(Hashtbl.hash key land (Array.length t.shards - 1))

let find_or_compile t ~key f =
  let s = shard_of t key in
  Mutex.lock s.m;
  (* Wait out another domain's compile of the same key (a herd on one
     query mines once) — but never from inside a leader frame, where
     that compile may be the very one this lookup is nested in. *)
  while
    Hashtbl.mem s.compiling key
    && (not (Hashtbl.mem s.tbl key))
    && not (Coalesce.leading ())
  do
    Condition.wait s.compiled s.m
  done;
  match Hashtbl.find_opt s.tbl key with
  | Some e ->
    Mutex.unlock s.m;
    Xr_obs.Registry.Counter.inc hits_h;
    e
  | None ->
    let owner = not (Hashtbl.mem s.compiling key) in
    if owner then Hashtbl.replace s.compiling key ();
    Mutex.unlock s.m;
    (* Compile outside the lock: the compile helps the domain pool,
       and a task it picks up may look up a plan in this very shard. *)
    let compiled = try Ok (Coalesce.lead f) with ex -> Error ex in
    Mutex.lock s.m;
    if owner then begin
      Hashtbl.remove s.compiling key;
      Condition.broadcast s.compiled
    end;
    let evicted = ref 0 in
    (match compiled with
    | Ok e when not (Hashtbl.mem s.tbl key) ->
      Hashtbl.replace s.tbl key e;
      Queue.push key s.order;
      while Hashtbl.length s.tbl > t.shard_capacity do
        let victim = Queue.pop s.order in
        if Hashtbl.mem s.tbl victim then begin
          Hashtbl.remove s.tbl victim;
          incr evicted
        end
      done
    | _ -> () (* failed, or a nested compile of this key landed first *));
    Mutex.unlock s.m;
    match compiled with
    | Error ex -> raise ex
    | Ok e ->
      Xr_obs.Registry.Counter.inc misses_h;
      if !evicted > 0 then Xr_obs.Registry.Counter.add evictions_h !evicted;
      e

let size t =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.m;
      let n = Hashtbl.length s.tbl in
      Mutex.unlock s.m;
      acc + n)
    0 t.shards
