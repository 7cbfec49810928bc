(* Percentiles and the sample-count rule behind every reported
   percentile. *)

(* Nearest-rank percentile: the smallest sample with at least [pct]% of
   the samples at or below it. Integer arithmetic, so p90 of 100
   samples is exactly the 90th. *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

let percentile ~pct samples =
  match samples with
  | [||] -> nan
  | _ ->
    let s = Array.copy samples in
    Array.sort Float.compare s;
    s.(rank ~pct (Array.length s) - 1)

(* Samples strictly above the nearest-rank percentile's position. *)
let beyond ~pct n = n - rank ~pct n

(* The smallest sample count that puts [beyond] samples past the
   [pct]th percentile. *)
let samples_needed ~pct ~beyond:b =
  let rec go n = if beyond ~pct n >= b then n else go (n + 1) in
  go 1

(* Every run must place at least this many samples past p90 for every
   operation type it reports a percentile for. *)
let min_beyond_p90 = 10

let min_samples = samples_needed ~pct:90 ~beyond:min_beyond_p90

let median samples = percentile ~pct:50 samples

let ratio num den = if den = 0. then 0. else num /. den
