type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

(* Entries are immutable, so sharing them keeps the heap order and the
   tie-breaking sequence numbers. *)
let copy t = { heap = Array.copy t.heap; size = t.size; next_seq = t.next_seq }
let is_empty t = t.size = 0
let length t = t.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let dummy = t.heap.(0) in
    let heap = Array.make ncap dummy in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest =
    let s = if l < t.size && before t.heap.(l) t.heap.(i) then l else i in
    if r < t.size && before t.heap.(r) t.heap.(s) then r else s
  in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let push t ~time payload =
  if not (Float.is_finite time) then invalid_arg "Event_queue.push: non-finite time";
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.size = 0 && Array.length t.heap = 0 then t.heap <- Array.make 16 entry
  else grow t;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek_time t = if t.size = 0 then infinity else t.heap.(0).time

(* Removes and returns the root; the caller has checked [size > 0]. *)
let take_root t =
  let root = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0
  end;
  root

let pop t =
  if t.size = 0 then None
  else
    let root = take_root t in
    Some (root.time, root.payload)

type 'a batch = { mutable items : 'a array; mutable len : int }

let batch () = { items = [||]; len = 0 }
let batch_length b = b.len

let batch_get b i =
  if i < 0 || i >= b.len then
    invalid_arg "Event_queue.batch_get: index out of range";
  b.items.(i)

let batch_add b payload =
  let cap = Array.length b.items in
  if b.len = cap then begin
    let items = Array.make (max 16 (2 * cap)) payload in
    Array.blit b.items 0 items 0 b.len;
    b.items <- items
  end;
  b.items.(b.len) <- payload;
  b.len <- b.len + 1

let drain_until t bound b =
  b.len <- 0;
  while t.size > 0 && t.heap.(0).time <= bound do
    batch_add b (take_root t).payload
  done
