let is_space = function ' ' | '\t' | '\r' | '\012' | '\n' -> true | _ -> false

let rec skip_space s i j =
  if i < j && is_space s.[i] then skip_space s (i + 1) j else i

let rec trim_end s i j =
  if j > i && is_space s.[j - 1] then trim_end s i (j - 1) else j

let rec index s c i j = if i >= j || s.[i] = c then i else index s c (i + 1) j

let sub s i j =
  if i = 0 && j = String.length s then s else String.sub s i (j - i)

let rec has_upper s i j =
  i < j && (match s.[i] with 'A' .. 'Z' -> true | _ -> has_upper s (i + 1) j)

let lower_sub s i j =
  if has_upper s i j then
    String.init (j - i) (fun k -> Char.lowercase_ascii s.[i + k])
  else sub s i j
