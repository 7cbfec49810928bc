(** Single-flight admission: concurrent requests for the same rendered
    value coalesce onto one execution.

    The first arrival for a key becomes the *leader* and runs the
    render; every request that arrives for the same key while the
    leader is in flight becomes a *follower* and blocks until the
    leader finishes, then returns the leader's value (the server's
    typed per-shard partials). A leader exception is re-raised in every
    member. Keys are caller-built and include the generation signature
    (the server reuses its response cache key), so followers can never
    be handed a value from another generation.

    A domain never follows while it has a leader frame open ({!lead}):
    whatever it picks up by helping the pool is then nested inside a
    render others may wait for, and waiting there could wait on that
    very render. Such a nested arrival renders on its own, uncounted.

    An optional coalescing window makes the leader wait [window_ms]
    before rendering, widening the pile-up interval — a deliberate
    latency-for-throughput trade for overloaded servers; the default 0
    adds no latency and still coalesces whatever genuinely overlaps.

    Followers do not idle: while their leader renders, each follower
    drains tasks from the global domain pool ({!Xr_pool.try_help}) —
    typically the chunks of the leader's own parallel scan — so a
    coalesced pile-up turns blocked request domains into extra scan
    executors instead of sleepers.

    Counters are exported as [xr_coalesce_requests_total{role=...}],
    the members-per-flight histogram as [xr_coalesce_width], and
    tasks drained by waiting followers as
    [xr_coalesce_helped_tasks_total]. *)

type 'a t

val create : ?window_ms:float -> unit -> 'a t

val window_ms : _ t -> float

val set_window_ms : _ t -> float -> unit

(** [run t ~key f] returns [(value, follower)]: [follower] is [true]
    when the value came from another request's leader. *)
val run : 'a t -> key:string -> (unit -> 'a) -> 'a * bool

(** [lead f] runs [f] as an open leader frame on this domain: until it
    returns, this domain does not block on any flight (here or in
    {!Plan_cache}). Leaders' renders run inside one. *)
val lead : (unit -> 'a) -> 'a

(** [leading ()] is true while this domain has a leader frame open. *)
val leading : unit -> bool

(** Number of keys with a flight currently open (test hook). *)
val in_flight : _ t -> int

(** Cumulative process-wide counters. *)
val leaders : unit -> int

val followers : unit -> int

val helped : unit -> int
(** Pool tasks executed by waiting followers. *)
