(** Hand-rolled JSON: the serving subsystem's wire format.

    The encoder is deterministic (object members keep insertion order,
    floats render canonically), so equal values encode to byte-identical
    strings — the property the result cache and the load generator's
    byte-level response checks rely on. The decoder exists for the other
    side of the wire: the load generator and the smoke tests validate
    server output with it. No dependency beyond the standard library. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string v] encodes compactly (no insignificant whitespace).
    Strings are emitted with the mandatory JSON escapes; non-finite
    floats, which JSON cannot represent, encode as [null]. *)
val to_string : t -> string

(** [to_buffer b v] appends the encoding of [v] to [b]. *)
val to_buffer : Buffer.t -> t -> unit

(** [float_to_string f] is the encoding of [Float f]: 12 significant
    digits, always with a fraction or an exponent; [null] when [f] is
    not finite. *)
val float_to_string : float -> string

(** [of_string s] parses a complete JSON text (trailing garbage is an
    error). Numbers without fraction or exponent decode to [Int] when
    they fit, [Float] otherwise. *)
val of_string : string -> (t, string) result

(** [member name v] is the value of field [name] if [v] is an object
    that has it. *)
val member : string -> t -> t option

(** [equal a b] is structural equality ([Int 1] and [Float 1.] differ). *)
val equal : t -> t -> bool
