(** Span arithmetic for the traced pass.

    Each traced request is one root span (parent [0]) with one child
    span per layer call timed from outside the program. A span's self
    time is its duration minus its direct children's; a root's coverage
    is the share of its duration its direct children account for. *)

type span = {
  id : int;  (** unique within a run, never [0] *)
  parent : int;  (** [0] for a root *)
  name : string;
  ns : float;  (** duration *)
  words : float;  (** minor-heap words allocated during the span *)
}

(** [children spans id] are the spans whose parent is [id], in order. *)
val children : span list -> int -> span list

(** [self_ns spans s] is [s.ns] minus its direct children's durations. *)
val self_ns : span list -> span -> float

(** [coverage ~root spans] looks at the roots (parent [0]) named [root]
    and returns the median over them of the share of the root's duration
    its direct children cover ([0.] with no root), and the roots' summed
    self time in ns. *)
val coverage : root:string -> span list -> float * float

(** [totals spans] maps each span name to (total ns, total words, count). *)
val totals : span list -> (string, float * float * int) Hashtbl.t
