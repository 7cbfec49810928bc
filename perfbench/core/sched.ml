(* Deterministic request schedules. *)

module Rng = Xr_data.Rng

let exponential rng ~rate = -.Float.log (1. -. Rng.float rng) /. rate

type op = Search | Refine | Ingest

let draw_op rng ~write_share ~search_share =
  if Rng.float rng < write_share then Ingest
  else if Rng.float rng < search_share then Search
  else Refine

type timing = { due : float; sent : float; done_ : float }

(* Open-loop accounting: a request's latency and its send lateness both
   count from when it was due, so a server that falls behind is charged
   for the queueing it caused instead of hiding it (coordinated
   omission). *)
let latency t = t.done_ -. t.due

let lateness t = t.sent -. t.due

let service t = t.done_ -. t.sent

let all_distinct keys =
  let tbl = Hashtbl.create (List.length keys) in
  List.for_all
    (fun k ->
      if Hashtbl.mem tbl k then false
      else (
        Hashtbl.add tbl k ();
        true))
    keys
