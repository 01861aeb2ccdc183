open Storage_units

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

(* Each parser reads the slice [s.[i .. j-1]] in place: it copies out the
   digits it converts and the unit it matches, and builds the slice's
   text only for an error message. *)

let is_num c = (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+'

let rec number_end s i j =
  if i < j && is_num s.[i] then number_end s (i + 1) j else i

(* Split a leading number from its unit suffix: "12.5hr" -> (12.5, "hr"). *)
let number_and_unit s i j =
  let i = Slice.skip_space s i j in
  let j = Slice.trim_end s i j in
  let cut = number_end s i j in
  if cut = i then err "expected a number in %S" (Slice.sub s i j)
  else begin
    match float_of_string_opt (String.sub s i (cut - i)) with
    | None -> err "malformed number in %S" (Slice.sub s i j)
    | Some v -> Ok (v, Slice.lower_sub s (Slice.skip_space s cut j) j)
  end

let float_pos s =
  match number_and_unit s 0 (String.length s) with
  | Error _ as e -> e
  | Ok (v, unit) ->
    if unit <> "" then err "unexpected unit %S" unit
    else if v < 0. then err "expected a non-negative number, got %g" v
    else Ok v

let int_pos s =
  match float_pos s with
  | Error _ as e -> e
  | Ok v ->
    if Float.is_integer v then Ok (int_of_float v)
    else err "expected an integer, got %g" v

let duration_term s i j =
  match number_and_unit s i j with
  | Error _ as e -> e
  | Ok (v, unit) ->
    if v < 0. then err "negative duration %S" (Slice.sub s i j)
    else begin
      match unit with
      | "" when v = 0. -> Ok Duration.zero
      | "s" | "sec" | "secs" | "second" | "seconds" -> Ok (Duration.seconds v)
      | "min" | "mins" | "minute" | "minutes" -> Ok (Duration.minutes v)
      | "h" | "hr" | "hrs" | "hour" | "hours" -> Ok (Duration.hours v)
      | "d" | "day" | "days" -> Ok (Duration.days v)
      | "wk" | "wks" | "week" | "weeks" | "w" -> Ok (Duration.weeks v)
      | "yr" | "yrs" | "year" | "years" | "y" -> Ok (Duration.years v)
      | "" -> err "duration %S needs a unit (s/min/hr/d/wk/yr)" (Slice.sub s i j)
      | u -> err "unknown duration unit %S" u
    end

(* A sum of '+'-separated terms, added left to right; the first bad term
   is the error. *)
let duration s =
  let n = String.length s in
  let rec terms total i =
    let j = Slice.index s '+' i n in
    match duration_term s i j with
    | Error _ as e -> e
    | Ok t ->
      let total = Duration.add total t in
      if j = n then Ok total else terms total (j + 1)
  in
  terms Duration.zero 0

let size_slice s i j =
  match number_and_unit s i j with
  | Error _ as e -> e
  | Ok (v, unit) ->
    if v < 0. then err "negative size %S" (Slice.sub s i j)
    else begin
      match unit with
      | "b" | "byte" | "bytes" -> Ok (Size.bytes v)
      | "kib" | "kb" | "k" -> Ok (Size.kib v)
      | "mib" | "mb" | "m" -> Ok (Size.mib v)
      | "gib" | "gb" | "g" -> Ok (Size.gib v)
      | "tib" | "tb" | "t" -> Ok (Size.tib v)
      | "" when v = 0. -> Ok Size.zero
      | "" -> err "size %S needs a unit (B/KiB/MiB/GiB/TiB)" (Slice.sub s i j)
      | u -> err "unknown size unit %S" u
    end

let size s = size_slice s 0 (String.length s)

let rate s =
  let i = Slice.skip_space s 0 (String.length s) in
  let j = Slice.trim_end s i (String.length s) in
  let slash = Slice.index s '/' i j in
  let per_second =
    slash < j
    &&
    let u = Slice.skip_space s (slash + 1) j in
    j - u = 1 && Char.lowercase_ascii s.[u] = 's'
  in
  if per_second then begin
    match size_slice s i slash with
    | Error _ as e -> e
    | Ok sz -> Ok (Rate.bytes_per_sec (Size.to_bytes sz))
  end
  else begin
    match number_and_unit s i j with
    | Error _ as e -> e
    | Ok (v, unit) ->
      if v < 0. then err "negative rate %S" (Slice.sub s i j)
      else begin
        match unit with
        | "mbps" | "mbit/s" | "mb/s (decimal)" -> Ok (Rate.megabits_per_sec v)
        | "gbps" -> Ok (Rate.megabits_per_sec (1000. *. v))
        | "" when v = 0. -> Ok Rate.zero
        | u -> err "unknown rate %S (use e.g. \"25 MiB/s\" or \"155 Mbps\")" u
      end
  end

let money s =
  let i = Slice.skip_space s 0 (String.length s) in
  let j = Slice.trim_end s i (String.length s) in
  let i = if i < j && s.[i] = '$' then i + 1 else i in
  match number_and_unit s i j with
  | Error _ as e -> e
  | Ok (v, unit) ->
    if v < 0. then err "negative amount %S" (Slice.sub s i j)
    else begin
      match unit with
      | "" -> Ok (Money.usd v)
      | "k" -> Ok (Money.of_thousands v)
      | "m" -> Ok (Money.of_millions v)
      | u -> err "unknown money suffix %S" u
    end

let rec count_end s i n =
  if i >= n || s.[i] = 'x' || s.[i] = 'X' then i else count_end s (i + 1) n

let counted s =
  let n = String.length s in
  let x = count_end s 0 n in
  if x = n then err "expected \"COUNT x VALUE\" in %S" s
  else begin
    match int_pos (String.sub s 0 x) with
    | Error _ as e -> e
    | Ok count ->
      if count <= 0 then err "count must be positive in %S" s
      else begin
        let i = Slice.skip_space s (x + 1) n in
        Ok (count, Slice.sub s i (Slice.trim_end s i n))
      end
  end
