(** Deterministic request schedules and open-loop timing.

    Everything here is a pure function of a {!Xr_data.Rng.t}, so a
    workload seed fixes the whole request stream. *)

(** [exponential rng ~rate] draws the gap in seconds to the next arrival
    of a Poisson process with [rate] arrivals per second. *)
val exponential : Xr_data.Rng.t -> rate:float -> float

type op = Search | Refine | Ingest

(** [draw_op rng ~write_share ~search_share]: [Ingest] with probability
    [write_share], otherwise [Search] with probability [search_share]
    and [Refine] for the rest. *)
val draw_op : Xr_data.Rng.t -> write_share:float -> search_share:float -> op

(** When a request was due, sent and answered (seconds, one clock). *)
type timing = { due : float; sent : float; done_ : float }

(** [latency t] is [done_ - due]: open-loop latency counts from the due
    time, not from the send. *)
val latency : timing -> float

(** [lateness t] is [sent - due]: how far the generator fell behind its
    own schedule. *)
val lateness : timing -> float

(** [service t] is [done_ - sent]. *)
val service : timing -> float

(** [all_distinct keys] holds when no key repeats. *)
val all_distinct : string list -> bool
