type node = { id : int; name : string; capacity : float; mutable reservation : float }
type state = Active | Done | Cancelled

(* A flow's numbers live in a float-only record, which OCaml stores flat:
   updating them on every advance and filling round allocates nothing. *)
type amounts = {
  rate_cap : float;
  mutable remaining : float;
  mutable current_rate : float;
}

type flow = {
  through : (node * int) list;
  amounts : amounts;
  mutable state : state;
  mutable frozen : bool;  (* progressive-filling scratch *)
}

type t = {
  mutable nodes : node list;
  mutable flows : flow list;  (* newest first; only active flows when clean *)
  mutable next_node : int;
  mutable dirty : bool;
  (* Indexed by node id. [transferred] accumulates; [avail] and [load] are
     progressive-filling scratch. *)
  mutable transferred : float array;
  mutable avail : float array;
  mutable load : float array;
}

let create () =
  {
    nodes = [];
    flows = [];
    next_node = 0;
    dirty = false;
    transferred = [||];
    avail = [||];
    load = [||];
  }

let extend a n = Array.append a (Array.make (n - Array.length a) 0.)

let add_node t ~name ~capacity =
  if capacity <= 0. then invalid_arg "Flow_net.add_node: non-positive capacity";
  if List.exists (fun n -> String.equal n.name name) t.nodes then
    invalid_arg "Flow_net.add_node: duplicate node name";
  let node = { id = t.next_node; name; capacity; reservation = 0. } in
  t.next_node <- t.next_node + 1;
  t.nodes <- node :: t.nodes;
  t.transferred <- extend t.transferred t.next_node;
  t.avail <- extend t.avail t.next_node;
  t.load <- extend t.load t.next_node;
  node

let set_reservation t node r =
  if r < 0. then invalid_arg "Flow_net.set_reservation: negative reservation";
  node.reservation <- Float.min r node.capacity;
  t.dirty <- true

let node_name n = n.name

let add_flow t ?(rate_cap = infinity) ~through ~bytes () =
  if bytes <= 0. then invalid_arg "Flow_net.add_flow: non-positive bytes";
  if through = [] then invalid_arg "Flow_net.add_flow: empty node list";
  List.iter
    (fun (_, m) ->
      if m <= 0 then invalid_arg "Flow_net.add_flow: non-positive multiplicity")
    through;
  let flow =
    {
      through;
      amounts = { rate_cap; remaining = bytes; current_rate = 0. };
      state = Active;
      frozen = false;
    }
  in
  t.flows <- flow :: t.flows;
  t.dirty <- true;
  flow

let cancel t flow =
  if flow.state = Active then begin
    flow.state <- Cancelled;
    flow.amounts.current_rate <- 0.;
    t.dirty <- true
  end

let remaining _ f = f.amounts.remaining

(* Every flow is copied in list order, finished and cancelled ones that
   [recompute] has not dropped yet included, so the copy repeats the
   original's floating-point operations exactly. *)
let copy t =
  let pairs =
    List.map
      (fun f ->
        let a = f.amounts in
        (f, { f with amounts = { a with remaining = a.remaining } }))
      t.flows
  in
  let copied =
    {
      t with
      flows = List.map snd pairs;
      transferred = Array.copy t.transferred;
      avail = Array.copy t.avail;
      load = Array.copy t.load;
    }
  in
  let flow_of f =
    match List.assq_opt f pairs with
    | Some f' -> f'
    | None -> invalid_arg "Flow_net.copy: flow not in the network"
  in
  (copied, flow_of)

(* The walks below are top-level recursive functions rather than closures
   over [List.iter], so the per-event path allocates nothing. Each visits
   flows in list order and each flow's nodes in [through] order, which
   fixes the order of every floating-point operation. *)

let rec all_active = function
  | [] -> true
  | f :: rest -> f.state = Active && all_active rest

let rec reset = function
  | [] -> ()
  | f :: rest ->
    f.amounts.current_rate <- 0.;
    f.frozen <- false;
    reset rest

(* Nodes with infinite capacity constrain nothing and take no part in the
   filling. *)
let constrained n = Float.is_finite n.capacity

let rec init_avail t = function
  | [] -> ()
  | n :: rest ->
    if constrained n then
      t.avail.(n.id) <- Float.max 0. (n.capacity -. n.reservation);
    init_avail t rest

let rec any_live = function
  | [] -> false
  | f :: rest -> (not f.frozen) || any_live rest

let rec add_load t m_through =
  match m_through with
  | [] -> ()
  | (n, m) :: rest ->
    if constrained n then t.load.(n.id) <- t.load.(n.id) +. float_of_int m;
    add_load t rest

let rec load_live t = function
  | [] -> ()
  | f :: rest ->
    if not f.frozen then add_load t f.through;
    load_live t rest

let node_headroom t =
  let delta = ref infinity in
  for i = 0 to t.next_node - 1 do
    let l = t.load.(i) in
    if l > 0. then delta := Float.min !delta (t.avail.(i) /. l)
  done;
  !delta

let rec cap_headroom acc = function
  | [] -> acc
  | f :: rest ->
    let acc =
      if f.frozen then acc
      else Float.min acc (f.amounts.rate_cap -. f.amounts.current_rate)
    in
    cap_headroom acc rest

let rec consume t delta = function
  | [] -> ()
  | (n, m) :: rest ->
    if constrained n then
      t.avail.(n.id) <-
        Float.max 0. (t.avail.(n.id) -. (delta *. float_of_int m));
    consume t delta rest

let rec raise_live t delta = function
  | [] -> ()
  | f :: rest ->
    if not f.frozen then begin
      f.amounts.current_rate <- f.amounts.current_rate +. delta;
      consume t delta f.through
    end;
    raise_live t delta rest

let eps = 1e-9

let rec saturated t = function
  | [] -> false
  | (n, _) :: rest ->
    (constrained n && t.avail.(n.id) <= eps) || saturated t rest

let rec freeze t progressed = function
  | [] -> progressed
  | f :: rest ->
    if (not f.frozen)
       && (f.amounts.current_rate >= f.amounts.rate_cap -. eps
          || saturated t f.through)
    then begin
      f.frozen <- true;
      freeze t true rest
    end
    else freeze t progressed rest

(* Progressive filling (max-min fairness): raise all unfrozen flow rates
   uniformly until a node saturates or a flow hits its cap; freeze and
   repeat. *)
let rec fill t =
  if any_live t.flows then begin
    Array.fill t.load 0 (Array.length t.load) 0.;
    load_live t t.flows;
    let delta =
      Float.max 0. (Float.min (node_headroom t) (cap_headroom infinity t.flows))
    in
    (* A flow constrained by nothing (infinite nodes, no cap) would get an
       infinite rate; clamp to a huge finite rate so arithmetic stays
       well-defined (it still completes effectively instantly). *)
    let delta = if Float.is_finite delta then delta else 1e18 in
    raise_live t delta t.flows;
    (* Freeze flows at saturated nodes or at their caps. If nothing froze
       (a numerical stall), stop: every live flow keeps its rate. *)
    if freeze t false t.flows then fill t
  end

let recompute t =
  if not (all_active t.flows) then
    t.flows <- List.filter (fun f -> f.state = Active) t.flows;
  reset t.flows;
  init_avail t t.nodes;
  fill t;
  t.dirty <- false

let ensure t = if t.dirty then recompute t

let rate t f =
  ensure t;
  if f.state = Active then f.amounts.current_rate else 0.

let active_count t =
  List.fold_left (fun n f -> if f.state = Active then n + 1 else n) 0 t.flows

let rec earliest best = function
  | [] -> best
  | f :: rest ->
    let a = f.amounts in
    if f.state = Active && a.current_rate > 0. then
      earliest (Float.min best (a.remaining /. a.current_rate)) rest
    else earliest best rest

let next_completion t =
  ensure t;
  earliest infinity t.flows

let rec move t dt completed = function
  | [] -> completed
  | f :: rest ->
    let a = f.amounts in
    if f.state = Active && a.current_rate > 0. then begin
      let moved = a.current_rate *. dt in
      a.remaining <- a.remaining -. moved;
      transfer t moved f.through;
      (* Sub-byte remainders are rounding noise (the ulp of a multi-TiB
         transfer exceeds 1e-4 bytes); treating them as live would make
         the next completion step smaller than the clock's resolution. *)
      if a.remaining <= 1. then begin
        a.remaining <- 0.;
        f.state <- Done;
        a.current_rate <- 0.;
        t.dirty <- true;
        move t dt (f :: completed) rest
      end
      else move t dt completed rest
    end
    else move t dt completed rest

and transfer t moved = function
  | [] -> ()
  | (n, m) :: rest ->
    t.transferred.(n.id) <- t.transferred.(n.id) +. (moved *. float_of_int m);
    transfer t moved rest

let advance t dt =
  if dt < 0. then invalid_arg "Flow_net.advance: negative dt";
  ensure t;
  List.rev (move t dt [] t.flows)

let node_bytes t n = t.transferred.(n.id)
