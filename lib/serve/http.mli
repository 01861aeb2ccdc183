(** A minimal HTTP/1.1 reader and writer over [Unix] file descriptors.

    Just enough protocol for {!Server}: one request per connection
    ([Connection: close] on every response), [Content-Length] bodies
    only (no chunked transfer coding), percent-decoded query strings.
    Reading is bounded everywhere — header block, body size — so a
    malicious or broken client can cost at most the configured limits,
    and every malformed input maps to an error {e response}, never an
    exception: the daemon answers garbage with 4xx and lives on. *)

type request = {
  meth : string;  (** uppercased: ["GET"], ["POST"], ... *)
  path : string;  (** the target without its query string *)
  query : (string * string) list;
      (** decoded [k=v] pairs, in order of appearance *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

type response = { status : int; content_type : string; body : string }

val reason : int -> string
(** The standard reason phrase for a status code (["OK"],
    ["Too Many Requests"], ...); ["Unknown"] for codes we never emit. *)

val ok_json : string -> response
val ok_text : string -> response

val error : int -> string -> response
(** A plain-text error response; the message gets a trailing newline. *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val query_param : request -> string -> string option
(** First query parameter with the given name. *)

val read_request :
  max_body:int -> Unix.file_descr -> (request, response) result
(** Reads one request from the descriptor. [Error resp] is the response
    to send back for anything short of a valid request: 400 for a
    malformed request line, header or truncated body, 408 when a read
    times out (the descriptor's [SO_RCVTIMEO] fires), 411 for a missing
    [Content-Length] on a method with a body, 413 when the declared body
    exceeds [max_body], 431 when the header block exceeds 16 KiB, 501 for
    chunked transfer coding. Never raises — except the fatal runtime
    conditions ([Out_of_memory], [Stack_overflow], [Sys.Break]), which
    propagate rather than masquerade as a client error. *)

val write_response : Unix.file_descr -> response -> unit
(** Serializes the response with [Content-Length] and
    [Connection: close] headers and writes it fully. Write failures
    (client went away, [SO_SNDTIMEO] fired) are swallowed: the
    connection is about to be closed either way. *)
