(* The failure corpus: counterexamples persisted as replayable .ssdep
   files.

   An entry is the shrunk design and scenarios in the spec description
   language (so `ssdep evaluate` and `ssdep lint` can read them too),
   prefixed with `# key = value` header comments recording which oracle
   failed, under which per-case seed, and with what message. The header
   rides in comment lines, which Ini.parse ignores — a corpus file is a
   perfectly ordinary design file with provenance attached. *)

open Storage_model
module Spec = Storage_spec.Spec

type entry = {
  oracle : string;
  seed : int64;
  case_index : int;
  message : string;
  shrink_steps : int;
  design : Design.t;
  scenarios : (string * Scenario.t) list;
}

let filename e =
  Printf.sprintf "%s-case%d-0x%Lx.ssdep" e.oracle e.case_index e.seed

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let to_string e =
  match Spec.design_to_string ~scenarios:e.scenarios e.design with
  | Error err -> Error err
  | Ok body ->
    Ok
      (String.concat "\n"
         [
           "# ssdep fuzz counterexample";
           Printf.sprintf "# oracle = %s" e.oracle;
           Printf.sprintf "# seed = 0x%Lx" e.seed;
           Printf.sprintf "# case = %d" e.case_index;
           Printf.sprintf "# shrink_steps = %d" e.shrink_steps;
           Printf.sprintf "# message = %s" (one_line e.message);
           "";
           body;
         ])

(* Header comments are stripped by Ini.parse, so we scan them here. *)
let header_field text key =
  let prefix = Printf.sprintf "# %s = " key in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           Some
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix))
         else None)

let of_string text =
  let field key =
    match header_field text key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "corpus entry: missing '# %s = ...' header" key)
  in
  let int_field key of_string =
    Result.bind (field key) (fun v ->
        match of_string v with
        | n -> Ok n
        | exception Failure _ ->
          Error (Printf.sprintf "corpus entry: unreadable '# %s = %s'" key v))
  in
  Result.bind (field "oracle") @@ fun oracle ->
  Result.bind (int_field "seed" Int64.of_string) @@ fun seed ->
  Result.bind (int_field "case" int_of_string) @@ fun case_index ->
  Result.bind (int_field "shrink_steps" int_of_string) @@ fun shrink_steps ->
  Result.bind (field "message") @@ fun message ->
  (* validate:false — mutants straddling the feasibility frontier are
     exactly the designs worth keeping. *)
  Result.bind (Spec.of_string ~validate:false text)
  @@ fun (design, scenarios) ->
  Ok { oracle; seed; case_index; message; shrink_steps; design; scenarios }

let write ~dir e =
  match to_string e with
  | Error _ as err -> err
  | Ok text ->
    let path = Filename.concat dir (filename e) in
    (match
       (if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc text; output_char oc '\n'))
     with
    | () -> Ok path
    | exception Sys_error msg -> Error msg)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg

let load_dir dir =
  if not (Sys.file_exists dir) then Ok []
  else begin
    match Sys.readdir dir with
    | exception Sys_error msg -> Error msg
    | files ->
      let files =
        Array.to_list files
        |> List.filter (fun f -> Filename.check_suffix f ".ssdep")
        |> List.sort String.compare
      in
      List.fold_left
        (fun acc file ->
          Result.bind acc (fun entries ->
              let path = Filename.concat dir file in
              match load path with
              | Ok e -> Ok ((path, e) :: entries)
              | Error msg -> Error (Printf.sprintf "%s: %s" path msg)))
        (Ok []) files
      |> Result.map List.rev
  end
