(** Reading the Prometheus text exposition served at [/metrics]. *)

type sample = { name : string; labels : (string * string) list; value : float }

(** [parse text] keeps every sample line; comments, blank lines and
    exemplar suffixes are dropped. *)
val parse : string -> sample list

(** [sum ?label samples name] adds up every sample of [name], or only
    those carrying the label [label] when given. Absent families sum to
    [0.]. *)
val sum : ?label:string * string -> sample list -> string -> float

(** [delta ?label ~before ~after name] is [sum after - sum before]. *)
val delta :
  ?label:string * string -> before:sample list -> after:sample list -> string -> float
