open Storage_units

type t = { read_bw : Rate.t; write_bw : Rate.t; capacity : Size.t }

let zero = { read_bw = Rate.zero; write_bw = Rate.zero; capacity = Size.zero }

let make ?(read_bw = Rate.zero) ?(write_bw = Rate.zero) ?(capacity = Size.zero)
    () =
  { read_bw; write_bw; capacity }

let add a b =
  {
    read_bw = Rate.add a.read_bw b.read_bw;
    write_bw = Rate.add a.write_bw b.write_bw;
    capacity = Size.add a.capacity b.capacity;
  }

let total_bw t = Rate.add t.read_bw t.write_bw

let is_zero t =
  Rate.is_zero t.read_bw && Rate.is_zero t.write_bw && Size.is_zero t.capacity

let equal a b =
  Rate.equal a.read_bw b.read_bw
  && Rate.equal a.write_bw b.write_bw
  && Size.equal a.capacity b.capacity

let pp ppf t =
  Fmt.pf ppf "{r=%a w=%a cap=%a}" Rate.pp t.read_bw Rate.pp t.write_bw Size.pp
    t.capacity

type labeled = { technique : string; demand : t }

(* Techniques in first-appearance order, duplicate labels summed. The
   lists here are a handful of entries (one per hierarchy level landing
   on a device), so an in-order association fold beats a hash table —
   this runs once per (design, device) on the evaluation hot path. *)
let by_technique labeled =
  let rec merge acc technique demand =
    match acc with
    | [] -> [ (technique, demand) ]
    | (t, existing) :: rest when String.equal t technique ->
      (t, add existing demand) :: rest
    | pair :: rest -> pair :: merge rest technique demand
  in
  List.fold_left
    (fun acc { technique; demand } -> merge acc technique demand)
    [] labeled
