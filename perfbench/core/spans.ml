(* Span trees of the traced pass: a parent span per request and one
   child per timed layer call. *)

type span = { id : int; parent : int; name : string; ns : float; words : float }

let children spans id = List.filter (fun s -> s.parent = id) spans

let self_ns spans s =
  s.ns -. List.fold_left (fun acc c -> acc +. c.ns) 0. (children spans s.id)

(* Over the roots named [root]: the median of each root's covered
   share, and the roots' total self time. A median, because one garbage
   collection landing in a parent or in one child would otherwise swing
   the share of the whole sample. *)
let coverage ~root spans =
  let roots = List.filter (fun s -> s.parent = 0 && s.name = root) spans in
  let share s = if s.ns <= 0. then 0. else (s.ns -. self_ns spans s) /. s.ns in
  let shares = Array.of_list (List.map share roots) in
  let self = List.fold_left (fun acc s -> acc +. self_ns spans s) 0. roots in
  ((if shares = [||] then 0. else Stats.median shares), self)

(* Total time and allocation per span name, over every span given. *)
let totals spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let ns, words, n = try Hashtbl.find tbl s.name with Not_found -> (0., 0., 0) in
      Hashtbl.replace tbl s.name (ns +. s.ns, words +. s.words, n + 1))
    spans;
  tbl
