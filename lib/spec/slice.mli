(** Index ranges over a design text, shared by the parsers.

    A line, key or value is the slice [s.[i .. j-1]] of the string it
    came from: trimming, searching and case folding move the bounds, and
    only what a parser keeps is copied out. *)

val skip_space : string -> int -> int -> int
(** [skip_space s i j] is the first index in [[i, j)] that is not
    [String.trim]'s whitespace (space, tab, CR, LF, form feed), or [j]. *)

val trim_end : string -> int -> int -> int
(** [trim_end s i j] is [j] moved left past trailing whitespace, not
    below [i]. *)

val index : string -> char -> int -> int -> int
(** [index s c i j] is the first index of [c] in [[i, j)], or [j]. *)

val sub : string -> int -> int -> string
(** [s.[i .. j-1]]; [s] itself when that is all of it. *)

val lower_sub : string -> int -> int -> string
(** [s.[i .. j-1]] in lowercase ASCII, copied once. *)
