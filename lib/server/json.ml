type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- encoding ---------------------------------------------------------- *)

(* Copies runs of plain characters whole: the encoder sits on every
   response, cache hits included. *)
let escape_to b s =
  Buffer.add_char b '"';
  let start = ref 0 in
  let flush i esc =
    Buffer.add_substring b s !start (i - !start);
    Buffer.add_string b esc;
    start := i + 1
  in
  String.iteri
    (fun i c ->
      match c with
      | '"' -> flush i "\\\""
      | '\\' -> flush i "\\\\"
      | '\n' -> flush i "\\n"
      | '\r' -> flush i "\\r"
      | '\t' -> flush i "\\t"
      | '\b' -> flush i "\\b"
      | '\012' -> flush i "\\f"
      | c when Char.code c < 0x20 -> flush i (Printf.sprintf "\\u%04x" (Char.code c))
      | _ -> ())
    s;
  Buffer.add_substring b s !start (String.length s - !start);
  Buffer.add_char b '"'

(* The primitive behind [Printf.sprintf "%.12g"], minus the format
   interpretation that dominated rendering a scored result list. *)
external format_float : string -> float -> string = "caml_format_float"

let float_to_string f =
  match Float.classify_float f with
  | Float.FP_nan | Float.FP_infinite -> "null"
  | _ ->
    let s = format_float "%.12g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_to_string f)
  | String s -> escape_to b s
  | List items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b v)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_to b name;
        Buffer.add_char b ':';
        to_buffer b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* ---- decoding ---------------------------------------------------------- *)

exception Parse of string

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Parse (Printf.sprintf "%s at offset %d" msg c.pos))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c ("expected " ^ word)

let utf8_of_code b code =
  (* Encode a Unicode scalar value as UTF-8 bytes. *)
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek c with
    | Some ch when ch >= '0' && ch <= '9' -> v := (!v * 16) + (Char.code ch - Char.code '0')
    | Some ch when ch >= 'a' && ch <= 'f' -> v := (!v * 16) + (Char.code ch - Char.code 'a' + 10)
    | Some ch when ch >= 'A' && ch <= 'F' -> v := (!v * 16) + (Char.code ch - Char.code 'A' + 10)
    | _ -> fail c "expected hex digit");
    advance c
  done;
  !v

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char b '"'; advance c
      | Some '\\' -> Buffer.add_char b '\\'; advance c
      | Some '/' -> Buffer.add_char b '/'; advance c
      | Some 'n' -> Buffer.add_char b '\n'; advance c
      | Some 'r' -> Buffer.add_char b '\r'; advance c
      | Some 't' -> Buffer.add_char b '\t'; advance c
      | Some 'b' -> Buffer.add_char b '\b'; advance c
      | Some 'f' -> Buffer.add_char b '\012'; advance c
      | Some 'u' ->
        advance c;
        let hi = hex4 c in
        let code =
          if hi >= 0xD800 && hi <= 0xDBFF
             && c.pos + 1 < String.length c.src
             && c.src.[c.pos] = '\\'
             && c.src.[c.pos + 1] = 'u'
          then begin
            c.pos <- c.pos + 2;
            let lo = hex4 c in
            if lo >= 0xDC00 && lo <= 0xDFFF then
              0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
            else fail c "invalid low surrogate"
          end
          else hi
        in
        utf8_of_code b code
      | _ -> fail c "bad escape");
      loop ()
    | Some ch ->
      Buffer.add_char b ch;
      advance c;
      loop ()
  in
  loop ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let fractional = ref false in
  if peek c = Some '-' then advance c;
  let rec digits () =
    match peek c with
    | Some ch when ch >= '0' && ch <= '9' ->
      advance c;
      digits ()
    | _ -> ()
  in
  digits ();
  (match peek c with
  | Some '.' ->
    fractional := true;
    advance c;
    digits ()
  | _ -> ());
  (match peek c with
  | Some ('e' | 'E') ->
    fractional := true;
    advance c;
    (match peek c with Some ('+' | '-') -> advance c | _ -> ());
    digits ()
  | _ -> ());
  let s = String.sub c.src start (c.pos - start) in
  if s = "" || s = "-" then fail c "expected number";
  if !fractional then Float (float_of_string s)
  else match int_of_string_opt s with Some i -> Int i | None -> Float (float_of_string s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [] in
      let rec loop () =
        items := parse_value c :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          loop ()
        | Some ']' -> advance c
        | _ -> fail c "expected ',' or ']'"
      in
      loop ();
      List (List.rev !items)
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec loop () =
        skip_ws c;
        let name = parse_string c in
        skip_ws c;
        expect c ':';
        fields := (name, parse_value c) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          loop ()
        | Some '}' -> advance c
        | _ -> fail c "expected ',' or '}'"
      in
      loop ();
      Obj (List.rev !fields)
    end
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

let of_string s =
  let c = { src = s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | String x, String y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Obj x, Obj y ->
    List.equal (fun (n, v) (n', v') -> String.equal n n' && equal v v') x y
  | _ -> false
