type section = {
  kind : string;
  arg : string option;
  entries : (string * string) list;
  line : int;
}

let ( let* ) = Result.bind
let err fmt = Printf.ksprintf (fun m -> Error m) fmt

(* One pass over the text, by index: each line is trimmed, split and
   cut in place, and only kinds, arguments, keys and values are copied
   out. A section's record is built once, when the next header or the
   end of the text closes it. *)
let parse text =
  let n = String.length text in
  (* Trailing comments: cut at the first " #" of a value. *)
  let rec comment i j =
    if i + 1 >= j then j
    else if text.[i] = ' ' && text.[i + 1] = '#' then i
    else comment (i + 1) j
  in
  let close current entries sections =
    match current with
    | None -> sections
    | Some (kind, arg, line) ->
      { kind; arg; entries = List.rev entries; line } :: sections
  in
  let rec lines lineno start current entries sections =
    if start > n then Ok (List.rev (close current entries sections))
    else begin
      let stop = Slice.index text '\n' start n in
      let i = Slice.skip_space text start stop in
      let j = Slice.trim_end text i stop in
      if i = j || text.[i] = '#' then
        lines (lineno + 1) (stop + 1) current entries sections
      else if text.[i] = '[' then begin
        if text.[j - 1] <> ']' then
          err "line %d: unterminated section header" lineno
        else begin
          let space = Slice.index text ' ' (i + 1) (j - 1) in
          if space = i + 1 then
            err "line %d: empty section name" lineno
          else begin
            let kind = Slice.lower_sub text (i + 1) space in
            let arg =
              if space = j - 1 then None
              else begin
                let a = Slice.skip_space text (space + 1) (j - 1) in
                Some (String.sub text a (Slice.trim_end text a (j - 1) - a))
              end
            in
            lines (lineno + 1) (stop + 1)
              (Some (kind, arg, lineno))
              [] (close current entries sections)
          end
        end
      end
      else begin
        let eq = Slice.index text '=' i j in
        if eq = j then
          err "line %d: expected \"key = value\" or a [section]" lineno
        else begin
          let key_end = Slice.trim_end text i eq in
          if key_end = i then err "line %d: empty key" lineno
          else begin
            let key = Slice.lower_sub text i key_end in
            match current with
            | None -> err "line %d: key %S outside any section" lineno key
            | Some (kind, _, _) ->
              if List.mem_assoc key entries then
                err "line %d: duplicate key %S in [%s]" lineno key kind
              else begin
                let v = Slice.skip_space text (eq + 1) j in
                let cut = comment v j in
                let v_end = if cut = j then j else Slice.trim_end text v cut in
                lines (lineno + 1) (stop + 1) current
                  ((key, String.sub text v (v_end - v)) :: entries)
                  sections
              end
          end
        end
      end
    end
  in
  let* sections = lines 1 0 None [] [] in
  (* Section identity (kind, arg) must be unique; checked once the whole
     text parses, so a bad line anywhere is reported first. *)
  let same a b =
    String.equal a.kind b.kind && Option.equal String.equal a.arg b.arg
  in
  let rec dup_check earlier = function
    | [] -> Ok sections
    | s :: rest ->
      if List.exists (same s) earlier then
        err "line %d: duplicate section [%s%s]" s.line s.kind
          (match s.arg with Some a -> " " ^ a | None -> "")
      else dup_check (s :: earlier) rest
  in
  dup_check [] sections

let find_all sections ~kind =
  List.filter (fun s -> String.equal s.kind kind) sections

let find_one sections ~kind =
  match find_all sections ~kind with
  | [ s ] -> Ok s
  | [] -> err "missing required section [%s]" kind
  | _ -> err "section [%s] appears more than once" kind

let section_label s =
  match s.arg with Some a -> Printf.sprintf "[%s %s]" s.kind a | None -> "[" ^ s.kind ^ "]"

let rec equal_from key k i =
  i = String.length k
  || (Char.lowercase_ascii key.[i] = k.[i] && equal_from key k (i + 1))

(* [key], in any case, equals the lowercase entry key [k]. *)
let key_equal key k =
  String.length key = String.length k && equal_from key k 0

let rec lookup key = function
  | [] -> None
  | (k, v) :: rest -> if key_equal key k then Some v else lookup key rest

let get s key =
  match lookup key s.entries with
  | Some v -> Ok v
  | None -> err "%s (line %d): missing key %S" (section_label s) s.line key

let get_opt s key = lookup key s.entries

let get_parsed s key parser =
  match get s key with
  | Error _ as e -> e
  | Ok raw -> (
    match parser raw with
    | Ok _ as ok -> ok
    | Error e -> err "%s: key %S: %s" (section_label s) key e)

let get_parsed_opt s key parser =
  match get_opt s key with
  | None -> Ok None
  | Some raw -> (
    match parser raw with
    | Ok v -> Ok (Some v)
    | Error e -> err "%s: key %S: %s" (section_label s) key e)

let unknown_keys s ~known =
  let rec is_known k = function
    | [] -> false
    | kn :: rest -> key_equal kn k || is_known k rest
  in
  List.filter_map
    (fun (k, _) -> if is_known k known then None else Some k)
    s.entries
