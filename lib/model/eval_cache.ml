open Storage_parallel

type t = Evaluate.report Memo.t

let create () = Memo.create ()

let key design scenario =
  Design.fingerprint design ^ ":" ^ Scenario.fingerprint scenario

(* One cache slot per engine, minted once at module init: [of_engine]
   inverts the layering (the engine sits below the model yet owns the
   model's cache) via the engine's typed-slot store. *)
let engine_key : t Storage_engine.key = Storage_engine.new_key ()

let of_engine e =
  Storage_engine.slot e engine_key ~default:(fun () -> create ())

let run t design scenario =
  Memo.find_or_add t (key design scenario) (fun () ->
      Evaluate.run design scenario)

let hits t = Memo.hits t
let misses t = Memo.misses t
let evicted (_ : t) = 0
