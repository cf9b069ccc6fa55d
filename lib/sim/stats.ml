(* The float fields live in an all-float record, which OCaml stores
   flat, so feeding a sample updates them in place without boxing. *)
type summary = { mutable n : int; f : floats }
and floats = { mutable sum : float; mutable min_v : float; mutable max_v : float }

type t = {
  counters : (string, int ref) Hashtbl.t;
  maxima : (string, int ref) Hashtbl.t;
  summaries : (string, summary) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    maxima = Hashtbl.create 8;
    summaries = Hashtbl.create 8;
  }

let counter t k =
  match Hashtbl.find_opt t.counters k with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters k r;
    r

let incr t k = Stdlib.incr (counter t k)
let add t k v = counter t k := !(counter t k) + v

let set_max t k v =
  match Hashtbl.find_opt t.maxima k with
  | Some r -> if v > !r then r := v
  | None -> Hashtbl.add t.maxima k (ref v)

let summary t k =
  match Hashtbl.find_opt t.summaries k with
  | Some s -> s
  | None ->
    let s =
      { n = 0; f = { sum = 0.0; min_v = infinity; max_v = neg_infinity } }
    in
    Hashtbl.add t.summaries k s;
    s

let[@inline] observe_into s v =
  s.n <- s.n + 1;
  let f = s.f in
  f.sum <- f.sum +. v;
  if v < f.min_v then f.min_v <- v;
  if v > f.max_v then f.max_v <- v

let observe t k v = observe_into (summary t k) v

let counter_cell = counter
let summary_cell = summary

module Handle = struct
  (* A handle holds its key and binds to the key's cell on first use, so
     a key that a run never touches stays absent from the bag. Until
     then the handle points at a shared sentinel that is never
     written. *)

  type nonrec counter = { c_stats : t; c_key : string; mutable cell : int ref }

  type nonrec summary = {
    s_stats : t;
    s_key : string;
    mutable target : summary;
  }

  let unbound_cell = ref 0

  let unbound_summary =
    { n = 0; f = { sum = 0.0; min_v = infinity; max_v = neg_infinity } }

  let counter t k = { c_stats = t; c_key = k; cell = unbound_cell }

  let cell h =
    if h.cell == unbound_cell then h.cell <- counter_cell h.c_stats h.c_key;
    h.cell

  let incr h = Stdlib.incr (cell h)

  let add h v =
    let r = cell h in
    r := !r + v

  let summary t k = { s_stats = t; s_key = k; target = unbound_summary }

  let sample h v =
    if h.target == unbound_summary then
      h.target <- summary_cell h.s_stats h.s_key;
    observe_into h.target (float_of_int v)
end

let get t k =
  match Hashtbl.find_opt t.counters k with
  | Some r -> !r
  | None -> (
    match Hashtbl.find_opt t.maxima k with Some r -> !r | None -> 0)

let mean t k =
  match Hashtbl.find_opt t.summaries k with
  | Some s when s.n > 0 -> s.f.sum /. float_of_int s.n
  | Some _ | None -> 0.0

let count t k =
  match Hashtbl.find_opt t.summaries k with Some s -> s.n | None -> 0

let merge_into ~dst src =
  Hashtbl.iter (fun k r -> add dst k !r) src.counters;
  Hashtbl.iter (fun k r -> set_max dst k !r) src.maxima;
  Hashtbl.iter
    (fun k s ->
      let d = summary dst k in
      d.n <- d.n + s.n;
      d.f.sum <- d.f.sum +. s.f.sum;
      if s.f.min_v < d.f.min_v then d.f.min_v <- s.f.min_v;
      if s.f.max_v > d.f.max_v then d.f.max_v <- s.f.max_v)
    src.summaries

let to_assoc t =
  let acc = ref [] in
  Hashtbl.iter (fun k r -> acc := (k, float_of_int !r) :: !acc) t.counters;
  Hashtbl.iter (fun k r -> acc := (k ^ ".max", float_of_int !r) :: !acc) t.maxima;
  Hashtbl.iter
    (fun k s ->
      if s.n > 0 then acc := (k ^ ".mean", s.f.sum /. float_of_int s.n) :: !acc)
    t.summaries;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let pp ppf t =
  let items = to_assoc t in
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%-32s %.3f@," k v) items;
  Format.fprintf ppf "@]"
