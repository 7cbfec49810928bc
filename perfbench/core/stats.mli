(** Percentiles and the sample-count rule.

    Percentiles are nearest-rank: [percentile ~pct xs] is the smallest
    sample with at least [pct]% of the samples at or below it. A run
    reports a percentile only together with its sample count, and sizes
    itself so at least {!min_beyond_p90} samples lie beyond p90. *)

(** [rank ~pct n] is the 1-based nearest-rank position of the [pct]th
    percentile among [n] sorted samples. *)
val rank : pct:int -> int -> int

(** [percentile ~pct xs] ([nan] on no samples). Does not mutate [xs]. *)
val percentile : pct:int -> float array -> float

(** [beyond ~pct n] counts the samples ranked after the [pct]th
    percentile's position. *)
val beyond : pct:int -> int -> int

(** [samples_needed ~pct ~beyond] is the smallest [n] with
    [beyond ~pct n >= beyond]. *)
val samples_needed : pct:int -> beyond:int -> int

val min_beyond_p90 : int

(** [samples_needed ~pct:90 ~beyond:min_beyond_p90]: 100. *)
val min_samples : int

val median : float array -> float

(** [ratio num den] is [num /. den], or [0.] when [den] is [0.]. *)
val ratio : float -> float -> float
