type policy = Fifo | Work_steal

type t = {
  pol : policy;
  n : int;
  global : int Deque.t;  (* Fifo: the single queue (top = oldest) *)
  local : int Deque.t array;  (* Work_steal: per-context deques *)
  mutable count : int;
  (* Observer fired with the item on every enqueue; the GPRS engine hangs
     its WAL [Sched_enqueue] append here so the log records queue inserts
     at their real site rather than at some engine-side approximation. *)
  mutable on_enqueue : (int -> unit) option;
}

let create pol ~n_contexts =
  {
    pol;
    n = n_contexts;
    global = Deque.create ();
    local = Array.init n_contexts (fun _ -> Deque.create ());
    count = 0;
    on_enqueue = None;
  }

let policy t = t.pol
let set_on_enqueue t f = t.on_enqueue <- f

let enqueue t ~ctx_hint x =
  (match t.on_enqueue with Some f -> f x | None -> ());
  t.count <- t.count + 1;
  match t.pol with
  | Fifo -> Deque.push_bottom t.global x
  | Work_steal -> Deque.push_bottom t.local.(ctx_hint mod t.n) x

(* Probe victims in a fixed rotation starting after the thief. *)
let rec probe t ctx i =
  if i >= t.n then None
  else
    match Deque.steal_top t.local.((ctx + i) mod t.n) with
    | Some x ->
      t.count <- t.count - 1;
      Some (x, true)
    | None -> probe t ctx (i + 1)

let take t ~ctx =
  if t.count = 0 then None
  else
    match t.pol with
    | Fifo -> (
      match Deque.steal_top t.global with
      | Some x ->
        t.count <- t.count - 1;
        Some (x, false)
      | None -> None)
    | Work_steal -> (
      match Deque.pop_bottom t.local.(ctx) with
      | Some x ->
        t.count <- t.count - 1;
        Some (x, false)
      | None -> probe t ctx 1)

let remove t x =
  let remove_from d =
    let items = Deque.to_list d in
    if List.mem x items then begin
      (* Rebuild without the first occurrence. *)
      let rec drain () =
        match Deque.steal_top d with Some _ -> drain () | None -> ()
      in
      drain ();
      let removed = ref false in
      List.iter
        (fun y ->
          if (not !removed) && y = x then removed := true
          else Deque.push_bottom d y)
        items;
      !removed
    end
    else false
  in
  let found =
    match t.pol with
    | Fifo -> remove_from t.global
    | Work_steal ->
      let rec go i = i < t.n && (remove_from t.local.(i) || go (i + 1)) in
      go 0
  in
  if found then t.count <- t.count - 1;
  found

let length t = t.count

let is_empty t = t.count = 0
