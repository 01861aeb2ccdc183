(** Minimal JSON emission (no parsing).

    Machine-readable output for scripting (`ssdep evaluate --json`): a
    small value tree and a serializer with correct string escaping and
    float formatting. Deliberately write-only — the library consumes
    design files in its own language, never JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line serialization. Non-finite floats become [null]
    (JSON has no representation for them). *)

val to_string_pretty : t -> string
(** Two-space indented serialization. *)

val add_pretty : Buffer.t -> t -> unit
(** Appends {!to_string_pretty}'s text to a buffer, for a caller that
    frames it: the daemon's answer and its trailing newline come out of
    one buffer, with no second copy to append the newline.

    Rendering allocates the output and little else: floats go straight
    to the C formatter [Printf] reaches ([%.1f] for integral values below
    10{^15}, [%.12g] otherwise, byte for byte), strings are escaped into
    the buffer without an intermediate copy, and indentation is written
    in place. *)
