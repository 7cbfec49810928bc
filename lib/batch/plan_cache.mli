(** Bounded, sharded cache of compiled query plans.

    Keys are caller-built strings that embed the index generation id
    (and whatever else distinguishes plans — endpoint, algorithm,
    query), so an ingest publish retires every stale plan without any
    invalidation protocol: the new generation's requests simply miss
    under their new keys while the old entries age out FIFO.

    Compiles run outside the shard lock (a compile helps the domain
    pool, and the task it picks up may look up a plan in the same
    shard). Concurrent lookups of a key being compiled wait for it, so
    a herd on one query (the expensive case — rule mining) compiles
    once — except from inside an open {!Coalesce.lead} frame, which
    compiles on its own rather than risk waiting on itself. Hits,
    misses and evictions are exported to the registry as
    [xr_plan_cache_events_total{event=...}]. *)

type entry =
  | Search of Plan.search
  | Refine of Plan.refine

type t

(** [create ~capacity ()] — [capacity] is the total entry bound,
    divided evenly across [shards] (default 8, rounded to a power of
    two). *)
val create : ?shards:int -> capacity:int -> unit -> t

(** [find_or_compile t ~key f] returns the cached entry for [key],
    compiling and inserting it with [f] on a miss. An exception from
    [f] propagates and caches nothing. *)
val find_or_compile : t -> key:string -> (unit -> entry) -> entry

(** Live entries across all shards. *)
val size : t -> int

val capacity : t -> int

(** Cumulative process-wide counters (all caches). *)
val hits : unit -> int

val misses : unit -> int

val evictions : unit -> int
