type scheme = Round_robin | Balance_aware | Weighted | Recorded

type member = { tid : int; mutable dead : bool; mutable eligible : bool }

type group = {
  weight : int;
  mutable members : member array;
  mutable count : int;
  mutable cursor : int;  (* index of the next member to consider *)
}

type t = {
  sch : scheme;
  groups : group array;
  mutable gcursor : int;
  mutable budget : int;  (* remaining turns for the cursor group *)
  index : (int, member * int) Hashtbl.t;  (* tid -> (member, group idx) *)
  mutable live : int;
  (* Memo of [holder], valid while [fresh]. Only [add_thread],
     [remove_thread], [advance] and an eligibility flip can change the
     scan's answer, and each of them clears [fresh]. Keeping the option
     itself means a repeated [holder] allocates nothing. *)
  mutable memo : int option;
  mutable fresh : bool;
}

let mk_group weight = { weight; members = [||]; count = 0; cursor = 0 }

let create sch ~group_weights =
  let groups =
    match sch with
    | Round_robin | Recorded -> [| mk_group 1 |]
    | Balance_aware -> Array.map (fun _ -> mk_group 1) group_weights
    | Weighted -> Array.map (fun w -> mk_group (Stdlib.max 1 w)) group_weights
  in
  let budget = if Array.length groups = 0 then 1 else groups.(0).weight in
  {
    sch;
    groups;
    gcursor = 0;
    budget;
    index = Hashtbl.create 64;
    live = 0;
    memo = None;
    fresh = false;
  }

let scheme t = t.sch

let group_idx t group =
  match t.sch with
  | Round_robin | Recorded -> 0
  | Balance_aware | Weighted ->
    if group < 0 || group >= Array.length t.groups then
      invalid_arg "Order.add_thread: group out of range"
    else group

let add_thread t ~tid ~group =
  if Hashtbl.mem t.index tid then invalid_arg "Order.add_thread: duplicate tid";
  let gi = group_idx t group in
  let g = t.groups.(gi) in
  let m = { tid; dead = false; eligible = true } in
  if g.count = Array.length g.members then begin
    let members' = Array.make (Stdlib.max 8 (2 * g.count)) m in
    Array.blit g.members 0 members' 0 g.count;
    g.members <- members'
  end;
  g.members.(g.count) <- m;
  g.count <- g.count + 1;
  Hashtbl.add t.index tid (m, gi);
  t.live <- t.live + 1;
  t.fresh <- false

let remove_thread t tid =
  match Hashtbl.find_opt t.index tid with
  | None -> ()
  | Some (m, _) ->
    if not m.dead then begin
      m.dead <- true;
      t.live <- t.live - 1
    end;
    Hashtbl.remove t.index tid;
    t.fresh <- false

let set_eligible t tid e =
  match Hashtbl.find_opt t.index tid with
  | None -> ()
  | Some (m, _) ->
    if m.eligible <> e then begin
      m.eligible <- e;
      t.fresh <- false
    end

let is_eligible t tid =
  match Hashtbl.find_opt t.index tid with
  | None -> false
  | Some (m, _) -> (not m.dead) && m.eligible

let mem t tid = Hashtbl.mem t.index tid

let live_count t = t.live

(* First live eligible member of [g] scanning from its cursor, wrapping. *)
let scan_group g =
  let rec go i =
    if i >= g.count then None
    else
      let m = g.members.((g.cursor + i) mod g.count) in
      if (not m.dead) && m.eligible then Some m.tid else go (i + 1)
  in
  if g.count = 0 then None else go 0

let scan t =
  if t.sch = Recorded then None
  else
  let n = Array.length t.groups in
  let rec go i =
    if i >= n then None
    else
      match scan_group t.groups.((t.gcursor + i) mod n) with
      | Some tid -> Some tid
      | None -> go (i + 1)
  in
  if n = 0 then None else go 0

let holder t =
  if not t.fresh then begin
    t.memo <- scan t;
    t.fresh <- true
  end;
  t.memo

let advance t ~granted =
  match Hashtbl.find_opt t.index granted with
  | None -> ()
  | Some (m, gi) ->
    t.fresh <- false;
    let g = t.groups.(gi) in
    (* Move the group's cursor just past the granted member. *)
    let pos = ref (-1) in
    for i = 0 to g.count - 1 do
      if g.members.(i) == m then pos := i
    done;
    (* Stored un-reduced; [scan_group] reduces modulo the current member
       count, so threads appended later slot into the rotation correctly. *)
    if !pos >= 0 then g.cursor <- !pos + 1;
    (* Group rotation: if the grant came from a group ahead of the cursor
       (the cursor group had no eligible member), adopt it first. *)
    if gi <> t.gcursor then begin
      t.gcursor <- gi;
      t.budget <- g.weight
    end;
    t.budget <- t.budget - 1;
    if t.budget <= 0 then begin
      let n = Array.length t.groups in
      t.gcursor <- (t.gcursor + 1) mod Stdlib.max 1 n;
      t.budget <- t.groups.(t.gcursor).weight
    end
