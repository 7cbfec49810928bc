(** Sharded LRU cache of normalized query → value, shared by all worker
    domains. The server stores typed per-shard partials, not bytes. Keys
    are hashed onto independently locked shards, so concurrent lookups
    of different queries rarely contend; each shard keeps exact LRU
    order with an intrusive doubly-linked list and counts its own hits,
    misses and evictions. *)

type 'v t

(** [create ?shards ~capacity ()] builds a cache holding at most
    [capacity] entries overall, split over [shards] (default 8) locks.
    [capacity <= 0] disables the cache ([find] always misses, [add] is a
    no-op — the counters still run, so metrics stay meaningful). *)
val create : ?shards:int -> capacity:int -> unit -> 'v t

(** [find t key] is the cached value, bumping it to most-recently-used
    and counting a hit; counts a miss otherwise. *)
val find : 'v t -> string -> 'v option

(** [add t key value] inserts or refreshes an entry, evicting the shard's
    least-recently-used entries while over budget. *)
val add : 'v t -> string -> 'v -> unit

val clear : _ t -> unit

(** [shard_of t key] is the shard index [key] hashes to (for tests). *)
val shard_of : _ t -> string -> int

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
  capacity : int;
  shards : int;
}

(** [stats t] aggregates over all shards (a consistent-enough snapshot:
    each shard is read under its lock). *)
val stats : _ t -> stats
