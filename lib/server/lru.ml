(* Each shard: hash table keyed by query string pointing at nodes of an
   intrusive doubly-linked list in recency order ([head] = most recent,
   [tail] = LRU victim). All shard state is guarded by the shard mutex. *)

type 'v node = {
  key : string;
  mutable value : 'v;
  mutable prev : 'v node option;
  mutable next : 'v node option;
}

type 'v shard = {
  lock : Mutex.t;
  table : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable count : int;
  cap : int;  (* per-shard capacity *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type 'v t = { shard_arr : 'v shard array; capacity : int }

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
  capacity : int;
  shards : int;
}

let create ?(shards = 8) ~capacity () =
  let shards = max 1 shards in
  let shards = if capacity > 0 then min shards capacity else shards in
  (* Spread the budget so the per-shard capacities sum to [capacity]. *)
  let cap_of i =
    if capacity <= 0 then 0
    else (capacity / shards) + (if i < capacity mod shards then 1 else 0)
  in
  let mk i =
    let cap = cap_of i in
    {
      lock = Mutex.create ();
      table = Hashtbl.create 64;
      head = None;
      tail = None;
      count = 0;
      cap;
      hits = 0;
      misses = 0;
      evictions = 0;
    }
  in
  { shard_arr = Array.init shards mk; capacity = max 0 capacity }

let shard_of t key = Hashtbl.hash key mod Array.length t.shard_arr

let shard t key = t.shard_arr.(shard_of t key)

(* ---- intrusive list plumbing (call with the shard lock held) ----------- *)

let unlink s n =
  (match n.prev with Some p -> p.next <- n.next | None -> s.head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> s.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front s n =
  n.next <- s.head;
  n.prev <- None;
  (match s.head with Some h -> h.prev <- Some n | None -> s.tail <- Some n);
  s.head <- Some n

let evict_over_budget s =
  while s.count > s.cap do
    match s.tail with
    | None -> s.count <- 0 (* unreachable: count > 0 implies a tail *)
    | Some victim ->
      unlink s victim;
      Hashtbl.remove s.table victim.key;
      s.count <- s.count - 1;
      s.evictions <- s.evictions + 1
  done

(* ---- public api --------------------------------------------------------- *)

let find t key =
  let s = shard t key in
  Mutex.protect s.lock (fun () ->
      match Hashtbl.find_opt s.table key with
      | Some n ->
        s.hits <- s.hits + 1;
        unlink s n;
        push_front s n;
        Some n.value
      | None ->
        s.misses <- s.misses + 1;
        None)

let add t key value =
  let s = shard t key in
  if s.cap > 0 then
    Mutex.protect s.lock (fun () ->
        (match Hashtbl.find_opt s.table key with
        | Some n ->
          n.value <- value;
          unlink s n;
          push_front s n
        | None ->
          let n = { key; value; prev = None; next = None } in
          Hashtbl.replace s.table key n;
          push_front s n;
          s.count <- s.count + 1);
        evict_over_budget s)

let clear t =
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          Hashtbl.reset s.table;
          s.head <- None;
          s.tail <- None;
          s.count <- 0))
    t.shard_arr

let stats (t : _ t) =
  Array.fold_left
    (fun acc s ->
      Mutex.protect s.lock (fun () ->
          {
            acc with
            hits = acc.hits + s.hits;
            misses = acc.misses + s.misses;
            entries = acc.entries + s.count;
            evictions = acc.evictions + s.evictions;
          }))
    {
      hits = 0;
      misses = 0;
      entries = 0;
      evictions = 0;
      capacity = t.capacity;
      shards = Array.length t.shard_arr;
    }
    t.shard_arr
