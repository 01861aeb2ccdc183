(* The execution context shared by every evaluation loop.

   Concurrency notes: [pool] and [slots] are guarded by [lock]. The pool
   is created lazily ([of_cli] forces it) so that serial engines never
   spawn domains, and reused across batches so that a long what-if
   session pays the domain spawn cost once. Slots hold values behind an
   extensible-variant universal type: each [new_key] mints a fresh
   constructor, so a slot can only ever be read back at the type it was
   written with. *)

type binding = ..

type 'a key = {
  uid : int;
  inj : 'a -> binding;
  proj : binding -> 'a option;
}

(* Audited: a lock-free key-uid counter is exactly what Atomic is for;
   it carries no observable state beyond freshness. *)
let[@sslint.allow "SA010"] next_uid = Atomic.make 0

let new_key (type a) () : a key =
  let module M = struct
    type binding += K of a
  end in
  {
    uid = Atomic.fetch_and_add next_uid 1;
    inj = (fun v -> M.K v);
    proj = (function M.K v -> Some v | _ -> None);
  }

type t = {
  jobs : int;
  lock : Mutex.t;
  mutable pool : Storage_parallel.Pool.t option;
  slots : (int, binding) Hashtbl.t;
}

(* The historical Risk.monte_carlo constant. *)
let default_seed = 0xCA5CADEL

let create ?(jobs = 1) () =
  if jobs < 1 then invalid_arg "Engine.create: jobs must be >= 1";
  { jobs; lock = Mutex.create (); pool = None; slots = Hashtbl.create 8 }

(* One validation path for every spelling of a jobs count — the --jobs
   option converter in bin/ and the SSDEP_JOBS environment variable both
   call this, so they can never drift apart. *)
let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some _ | None ->
    Error
      (Printf.sprintf "invalid jobs count %S, expected a positive integer" s)

let jobs_env_var = "SSDEP_JOBS"

let jobs t = t.jobs

let locked t f = Mutex.protect t.lock f

let pool t =
  if t.jobs <= 1 then None
  else
    Some
      (locked t (fun () ->
           match t.pool with
           | Some p -> p
           | None ->
             let p = Storage_parallel.Pool.create ~jobs:t.jobs in
             t.pool <- Some p;
             p))

let of_cli ?(env = Sys.getenv_opt) ~jobs ~stats () =
  let resolved =
    match jobs with
    | Some n -> Ok (n, "--jobs ")
    | None -> (
      match env jobs_env_var with
      | None -> Ok (1, jobs_env_var ^ "=")
      | Some raw -> (
        (* A malformed SSDEP_JOBS is a configuration error the caller
           must surface, never a silent serial fallback: a sweep that
           quietly ran serial because of a typo would look like a 4x
           perf regression. *)
        match parse_jobs raw with
        | Ok n -> Ok (n, jobs_env_var ^ "=")
        | Error e -> Error (Printf.sprintf "%s: %s" jobs_env_var e)))
  in
  Result.bind resolved (fun (jobs, source) ->
      if stats then Storage_obs.enable ();
      let t = create ~jobs () in
      (* Spawn the pool now, so a count the runtime cannot run fails
         here, as a configuration error, not mid-command. *)
      match pool t with
      | _ -> Ok t
      | exception Invalid_argument _ ->
        Error
          (Printf.sprintf "%s%d: the OCaml runtime cannot run %d domains"
             source jobs jobs))

let shutdown t =
  let p = locked t (fun () ->
      let p = t.pool in
      t.pool <- None;
      p)
  in
  Option.iter Storage_parallel.Pool.shutdown p

let with_engine ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f xs =
  match pool t with
  | None -> List.map f xs
  | Some p -> Storage_parallel.Pool.map_on p f xs

let map_seq ?chunk t f xs =
  match pool t with
  | None -> Seq.map f xs
  | Some p -> Storage_parallel.Pool.map_seq ?chunk p f xs

let slot t key ~default =
  locked t (fun () ->
      match Hashtbl.find_opt t.slots key.uid with
      | Some b -> (
        match key.proj b with
        | Some v -> v
        | None ->
          (* Unreachable: [uid]s are unique, so a binding stored under
             [key.uid] was built with [key.inj]. *)
          assert false)
      | None ->
        let v = default () in
        Hashtbl.replace t.slots key.uid (key.inj v);
        v)
