type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

type response = { status : int; content_type : string; body : string }

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 411 -> "Length Required"
  | 413 -> "Payload Too Large"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let ok_json body = { status = 200; content_type = "application/json"; body }
let ok_text body = { status = 200; content_type = "text/plain"; body }

let error status msg =
  { status; content_type = "text/plain"; body = msg ^ "\n" }

let header req name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name req.headers

let query_param req name = List.assoc_opt name req.query

(* --- query-string decoding --- *)

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let percent_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then begin
      (match s.[i] with
      | '+' ->
        Buffer.add_char b ' ';
        go (i + 1)
      | '%' when i + 2 < n -> (
        match (hex_val s.[i + 1], hex_val s.[i + 2]) with
        | Some hi, Some lo ->
          Buffer.add_char b (Char.chr ((hi * 16) + lo));
          go (i + 3)
        | _ ->
          Buffer.add_char b '%';
          go (i + 1))
      | c ->
        Buffer.add_char b c;
        go (i + 1))
    end
  in
  go 0;
  Buffer.contents b

let parse_query qs =
  if qs = "" then []
  else
    String.split_on_char '&' qs
    |> List.filter_map (fun pair ->
           if pair = "" then None
           else
             match String.index_opt pair '=' with
             | None -> Some (percent_decode pair, "")
             | Some i ->
               Some
                 ( percent_decode (String.sub pair 0 i),
                   percent_decode
                     (String.sub pair (i + 1) (String.length pair - i - 1)) ))

(* --- reading --- *)

(* Errors the reader can answer with; raised internally, never escapes
   [read_request]. *)
exception Reject of response

let reject status msg = raise (Reject (error status msg))

let read_chunk fd buf len =
  match Unix.read fd buf 0 len with
  | n -> n
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
    ->
    reject 408 "timed out reading request"
  | exception Unix.Unix_error _ -> reject 400 "connection error while reading"

(* Find "\r\n\r\n" in [buf.[0 .. len-1]], returning the index just past
   it. *)
let find_header_end buf len =
  let rec go i =
    if i + 3 >= len then None
    else if
      Bytes.get buf i = '\r'
      && Bytes.get buf (i + 1) = '\n'
      && Bytes.get buf (i + 2) = '\r'
      && Bytes.get buf (i + 3) = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go 0

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ]
    when String.length version >= 7 && String.sub version 0 7 = "HTTP/1." ->
    let path, query =
      match String.index_opt target '?' with
      | None -> (target, [])
      | Some i ->
        ( String.sub target 0 i,
          parse_query
            (String.sub target (i + 1) (String.length target - i - 1)) )
    in
    (String.uppercase_ascii meth, path, query)
  | _ -> reject 400 "malformed request line"

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> reject 400 (Printf.sprintf "malformed header line %S" line)
  | Some i ->
    ( String.lowercase_ascii (String.sub line 0 i),
      String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

(* Header-block bound; a longer block is answered 431. *)
let max_header = 16 * 1024

let read_request ~max_body fd =
  try
    (* Accumulate until the blank line that ends the header block; the
       read may run past it into the body — keep the excess. *)
    let buf = Bytes.create max_header in
    let chunk = Bytes.create 4096 in
    let filled = ref 0 in
    let header_end = ref None in
    while !header_end = None do
      (match find_header_end buf !filled with
      | Some e -> header_end := Some e
      | None ->
        if !filled >= max_header then
          reject 431 "request header block too large";
        let n = read_chunk fd chunk (min 4096 (max_header - !filled)) in
        if n = 0 then
          if !filled = 0 then reject 400 "empty request"
          else reject 400 "connection closed mid-header";
        Bytes.blit chunk 0 buf !filled n;
        filled := !filled + n)
    done;
    let header_end = Option.get !header_end in
    let head = Bytes.sub_string buf 0 (header_end - 4) in
    let meth, path, query, headers =
      match String.split_on_char '\n' head with
      | [] -> reject 400 "empty request"
      | request_line :: header_lines ->
        let strip_cr s =
          if s <> "" && s.[String.length s - 1] = '\r' then
            String.sub s 0 (String.length s - 1)
          else s
        in
        let meth, path, query = parse_request_line (strip_cr request_line) in
        let headers =
          List.filter_map
            (fun l ->
              let l = strip_cr l in
              if l = "" then None else Some (parse_header_line l))
            header_lines
        in
        (meth, path, query, headers)
    in
    (match List.assoc_opt "transfer-encoding" headers with
    | Some _ -> reject 501 "chunked transfer coding not supported"
    | None -> ());
    let content_length =
      match List.assoc_opt "content-length" headers with
      | None ->
        if meth = "POST" || meth = "PUT" then
          reject 411 "Content-Length required"
        else 0
      | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some n when n >= 0 -> n
        | Some _ | None -> reject 400 "malformed Content-Length")
    in
    if content_length > max_body then
      reject 413
        (Printf.sprintf "request body exceeds the %d-byte limit" max_body);
    let body = Buffer.create content_length in
    Buffer.add_subbytes body buf header_end (!filled - header_end);
    while Buffer.length body < content_length do
      let n =
        read_chunk fd chunk (min 4096 (content_length - Buffer.length body))
      in
      if n = 0 then reject 400 "connection closed mid-body";
      Buffer.add_subbytes body chunk 0 n
    done;
    (* Over-read past Content-Length (pipelined data) is ignored: one
       request per connection. *)
    let body = String.sub (Buffer.contents body) 0 content_length in
    Ok { meth; path; query; headers; body }
  with
  | Reject resp -> Error resp
  | (Out_of_memory | Stack_overflow | Sys.Break) as fatal ->
    (* A wedged runtime (or Ctrl-C) must not read as "bad client". *)
    raise fatal
  | _ -> Error (error 400 "malformed request")

(* --- writing --- *)

let write_response fd resp =
  let payload =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
       Connection: close\r\n\r\n%s"
      resp.status (reason resp.status) resp.content_type
      (String.length resp.body) resp.body
  in
  let bytes = Bytes.of_string payload in
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then
      match Unix.write fd bytes off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error _ -> ()
  in
  go 0
