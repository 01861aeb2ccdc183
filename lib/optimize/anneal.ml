open Storage_units
module Engine = Storage_engine
module Prng = Storage_workload.Prng

type outcome = {
  best : Objective.summary option;
  proposals : int;
  evaluations : int;
  accepted : int;
}

let chains = 4

(* Fixed temperature schedule: relative cost increases of ~8% are freely
   accepted early, and the chain is effectively greedy after ~1000 rounds.
   The schedule depends on the round index only — never on the budget —
   so a run with budget B evaluates a strict prefix of a run with budget
   B' > B (the monotone-budget law). *)
let temperature round = 0.08 *. (0.995 ** float_of_int round)

type chain = {
  prng : Prng.t;
  mutable point : Candidate.point;
  mutable energy : float;  (* +inf until a feasible summary is accepted *)
  mutable sweep : int;  (* next systematic index; -1 for annealing chains *)
}

let energy_of (s : Objective.summary) =
  if s.Objective.feasible then Money.to_usd s.Objective.worst_total_cost
  else Float.infinity

(* --- moves ------------------------------------------------------------ *)

let random_point prng space =
  Candidate.point_of_index space (Prng.int prng (Candidate.point_count space))

let random_tape prng space =
  Candidate.point_of_index space (Prng.int prng (Candidate.tape_count space))

let random_mirror prng space =
  Candidate.Mirror { links = Prng.int prng (Candidate.mirror_count space) }

let bump prng len i =
  if len <= 1 then i
  else if Prng.int prng 2 = 0 then (i + 1) mod len
  else (i + len - 1) mod len

(* Retune one frequency/retention axis by a single step (wrapping, so
   every proposal stays on the grid). *)
let step prng space (p : Candidate.point) =
  match p with
  | Candidate.Mirror { links } ->
    Candidate.Mirror { links = bump prng (Candidate.mirror_count space) links }
  | Candidate.Tape t -> (
    let nk, na, nr, nb, nv = Candidate.tape_dims space in
    match Prng.int prng 5 with
    | 0 -> Candidate.Tape { t with pit = bump prng nk t.pit }
    | 1 -> Candidate.Tape { t with pit_acc = bump prng na t.pit_acc }
    | 2 -> Candidate.Tape { t with pit_ret = bump prng nr t.pit_ret }
    | 3 -> Candidate.Tape { t with backup = bump prng nb t.backup }
    | _ -> Candidate.Tape { t with vault = bump prng nv t.vault })

(* Swap the protection technique: another PiT kind within the tape
   family, or jump across the family boundary. *)
let swap_technique prng space (p : Candidate.point) =
  match p with
  | Candidate.Tape t ->
    let nk, _, _, _, _ = Candidate.tape_dims space in
    if nk > 1 then
      Candidate.Tape { t with pit = (t.pit + 1 + Prng.int prng (nk - 1)) mod nk }
    else if Candidate.mirror_count space > 0 then random_mirror prng space
    else p
  | Candidate.Mirror _ ->
    if Candidate.tape_count space > 0 then random_tape prng space
    else step prng space p

(* Reassign the shared-resource slots: WAN link bundles for mirrors,
   retained-copy slots for PiT levels. *)
let reassign_slots prng space (p : Candidate.point) =
  match p with
  | Candidate.Mirror _ -> random_mirror prng space
  | Candidate.Tape t ->
    let _, _, nr, _, _ = Candidate.tape_dims space in
    Candidate.Tape { t with pit_ret = Prng.int prng nr }

let propose_move prng space p =
  let k = Prng.int prng 10 in
  if k < 6 then step prng space p
  else if k < 8 then swap_technique prng space p
  else if k < 9 then reassign_slots prng space p
  else random_point prng space

(* --- chain construction ----------------------------------------------- *)

(* Deterministic diverse starts: chain 0 sweeps the grid systematically
   from index 0 (with budget >= chains x point_count it alone visits
   every cell, making a full-budget run provably exhaustive); chain 1
   starts in the mirror family; chain 2 at the tape family's cost-greedy
   corner (longest windows, fewest retained copies — the cheapest
   corner under the cost model's monotonicities); chain 3 at a seeded
   random point. *)
let make_chain space prng index =
  let tapes = Candidate.tape_count space and mirrors = Candidate.mirror_count space in
  let point =
    match index with
    | 0 -> Candidate.point_of_index space 0
    | 1 when mirrors > 0 -> Candidate.Mirror { links = 0 }
    | 2 when tapes > 0 ->
      let _, na, _, nb, nv = Candidate.tape_dims space in
      Candidate.Tape
        { pit = 0; pit_acc = na - 1; pit_ret = 0; backup = nb - 1; vault = nv - 1 }
    | _ -> random_point prng space
  in
  { prng; point; energy = Float.infinity; sweep = (if index = 0 then 1 else -1) }

let propose space count c ~round =
  if round = 0 then c.point (* the starting cell is the first proposal *)
  else if c.sweep >= 0 then begin
    let i = c.sweep mod count in
    c.sweep <- c.sweep + 1;
    Candidate.point_of_index space i
  end
  else propose_move c.prng space c.point

(* --- the annealing loop ----------------------------------------------- *)

let run ~engine ~budget ~seed ~space ~axes scenarios =
  if budget < 1 then invalid_arg "Anneal.run: budget must be >= 1";
  let count = Candidate.point_count space in
  if count = 0 then invalid_arg "Anneal.run: empty candidate space";
  let master = Prng.create ~seed in
  let pool = Array.init chains (fun i -> make_chain space (Prng.split master) i) in
  let best = ref None in
  let proposals = ref 0 and evaluations = ref 0 and accepted = ref 0 in
  let consumed = ref 0 and round = ref 0 in
  while !consumed < budget do
    let width = min chains (budget - !consumed) in
    (* Each live chain contributes one proposal per round; the batch of
       decoded designs crosses the engine's pool as one [map], and every
       subsequent update folds in chain order — the report is a pure
       function of (seed, budget), independent of --jobs and --chunk. *)
    let batch =
      List.init width (fun i ->
          let p = propose space count pool.(i) ~round:!round in
          (i, p, Candidate.design_of_point axes p))
    in
    let designs = List.filter_map (fun (_, _, d) -> d) batch in
    let summaries =
      Engine.map engine (fun d -> Objective.summarize d scenarios) designs
    in
    evaluations := !evaluations + List.length designs;
    let remaining = ref summaries in
    List.iter
      (fun (i, p, d) ->
        incr proposals;
        let e =
          match d with
          | None -> Float.infinity (* off-grid / lint-rejected proposal *)
          | Some _ ->
            let s = List.hd !remaining in
            remaining := List.tl !remaining;
            (match !best with
            | Some (b : Objective.summary) when
                (not s.Objective.feasible)
                || Money.compare s.Objective.worst_total_cost
                     b.Objective.worst_total_cost >= 0 -> ()
            | _ -> if s.Objective.feasible then best := Some s);
            energy_of s
        in
        let c = pool.(i) in
        if c.sweep < 0 then begin
          let take =
            if e <= c.energy then true
            else if Float.is_finite c.energy then begin
              let rel = (e -. c.energy) /. Float.abs c.energy in
              Prng.float c.prng < Float.exp (-.rel /. temperature !round)
            end
            else true
          in
          if take then begin
            c.point <- p;
            c.energy <- e;
            if !round > 0 then incr accepted
          end
        end)
      batch;
    consumed := !consumed + width;
    incr round
  done;
  { best = !best; proposals = !proposals; evaluations = !evaluations;
    accepted = !accepted }
