(* A reader for the Prometheus text exposition the server serves at
   /metrics: enough to sum a family's samples and take deltas. *)

type sample = { name : string; labels : (string * string) list; value : float }

let parse_labels s =
  (* s is the text between the braces: k="v",k="v" (values never hold
     quotes or commas in this server's exposition) *)
  String.split_on_char ',' s
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | None -> None
         | Some i ->
           let k = String.trim (String.sub kv 0 i) in
           let v = String.sub kv (i + 1) (String.length kv - i - 1) in
           let v = String.trim v in
           let v =
             if String.length v >= 2 && v.[0] = '"' then
               String.sub v 1 (String.length v - 2)
             else v
           in
           Some (k, v))

let parse_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    (* drop an exemplar suffix: "... value # {trace_id=..} v" *)
    let line =
      match String.index_opt line '#' with
      | Some i -> String.trim (String.sub line 0 i)
      | None -> line
    in
    let name, labels, rest =
      match String.index_opt line '{' with
      | Some i ->
        let j = String.index_from line i '}' in
        ( String.sub line 0 i,
          parse_labels (String.sub line (i + 1) (j - i - 1)),
          String.sub line (j + 1) (String.length line - j - 1) )
      | None -> (
        match String.index_opt line ' ' with
        | Some i -> (String.sub line 0 i, [], String.sub line i (String.length line - i))
        | None -> (line, [], ""))
    in
    match float_of_string_opt (String.trim rest) with
    | Some value -> Some { name; labels; value }
    | None -> None

let parse text = List.filter_map parse_line (String.split_on_char '\n' text)

let sum ?label samples name =
  List.fold_left
    (fun acc s ->
      if s.name <> name then acc
      else
        match label with
        | Some (k, v) when List.assoc_opt k s.labels <> Some v -> acc
        | _ -> acc +. s.value)
    0. samples

let delta ?label ~before ~after name = sum ?label after name -. sum ?label before name
