type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* The C formatter behind [Printf]'s [%g] and [%f]: the same bytes without
   interpreting a format per number. [string_of_float] is not a
   substitute: it appends a dot to integral output ("100000000000."). *)
external format_float : string -> float -> string = "caml_format_float"

let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (format_float "%.1f" f)
  else Buffer.add_string buf (format_float "%.12g" f)

let hex_digits = "0123456789abcdef"

(* Quoted and escaped; the runs between escapes are copied as slices. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      match s.[i] with
      | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring buf s start (i - start);
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digits.[Char.code c lsr 4];
          Buffer.add_char buf hex_digits.[Char.code c land 15]);
        go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0;
  Buffer.add_char buf '"'

(* Pretty mode starts each element on a new line, indented two spaces per
   level; compact mode adds nothing. *)
let break buf ~indent level =
  if indent then begin
    Buffer.add_char buf '\n';
    for _ = 1 to level do
      Buffer.add_string buf "  "
    done
  end

let rec emit buf ~indent ~level v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> add_escaped buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        break buf ~indent (level + 1);
        emit buf ~indent ~level:(level + 1) item)
      items;
    break buf ~indent level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_char buf ',';
        break buf ~indent (level + 1);
        add_escaped buf key;
        Buffer.add_string buf (if indent then ": " else ":");
        emit buf ~indent ~level:(level + 1) value)
      fields;
    break buf ~indent level;
    Buffer.add_char buf '}'

let add_pretty buf v = emit buf ~indent:true ~level:0 v

let to_string v =
  let buf = Buffer.create 256 in
  emit buf ~indent:false ~level:0 v;
  Buffer.contents buf

let to_string_pretty v =
  let buf = Buffer.create 256 in
  add_pretty buf v;
  Buffer.contents buf
