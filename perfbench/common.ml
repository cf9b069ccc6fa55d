(* Shared plumbing for the three workloads: clocks, order statistics,
   the metric sink, the reference store, and the knob guard. *)

let now = Unix.gettimeofday
let ms_since t0 = 1000. *. (now () -. t0)

(* Main-domain minor words. [Gc.minor_words] counts the calling domain
   only, so daemon pool domains never leak into a closed-loop figure. *)
let words () = Gc.minor_words ()

(* --- order statistics ----------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let pct s p =
  let n = Array.length s in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9)) - 1 in
    s.(max 0 (min (n - 1) i))

let median xs = pct (sorted xs) 50.

(* The highest rung with at least ten samples beyond it. *)
let tail_rungs = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let beyond n p =
  n - int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9))

let tail_rung n =
  match List.find_opt (fun p -> beyond n p >= 10) tail_rungs with
  | Some p -> p
  | None -> 50.

type tail = { t_pct : float; t_value : float; t_n : int }

let tail xs =
  let s = sorted xs in
  let n = Array.length s in
  let p = tail_rung n in
  { t_pct = p; t_value = pct s p; t_n = n }

(* Percentile [p] of a distribution given as (value, weight) pairs,
   smoothed: the mean of the quantile function over [p - h, p + h] with
   h = min 10 ((100 - p) / 2). Neighbouring kinds that swap places from
   run to run then move it little. *)
let band_pct items p =
  let h = Float.min 10. ((100. -. p) /. 2.) in
  let lo = p -. h and hi = p +. h in
  let items = List.sort compare items in
  let total = List.fold_left (fun a (_, w) -> a +. w) 0. items in
  let _, num, den =
    List.fold_left
      (fun (c, num, den) (v, w) ->
        let c1 = c +. (100. *. w /. total) in
        let overlap = Float.max 0. (Float.min c1 hi -. Float.max c lo) in
        (c1, num +. (v *. overlap), den +. overlap))
      (0., 0., 0.) items
  in
  if den = 0. then 0. else num /. den

(* Group (kind, value) samples by kind. *)
let by_kind samples =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    samples;
  Hashtbl.fold (fun k vs acc -> (k, vs) :: acc) tbl [] |> List.sort compare

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b

(* --- metric sink ---------------------------------------------------------- *)

(* Per-layer accumulators: summed counters and duration samples, keyed by
   the metric name they feed. *)
type acc = {
  sums : (string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
}

let acc () = { sums = Hashtbl.create 64; samples = Hashtbl.create 64 }

let add a k v =
  Hashtbl.replace a.sums k (v +. Option.value ~default:0. (Hashtbl.find_opt a.sums k))

let maxv a k v =
  match Hashtbl.find_opt a.sums k with
  | Some x when x >= v -> ()
  | _ -> Hashtbl.replace a.sums k v

let sample a k v =
  Hashtbl.replace a.samples k
    (v :: Option.value ~default:[] (Hashtbl.find_opt a.samples k))

let sum a k = Option.value ~default:0. (Hashtbl.find_opt a.sums k)
let samples a k = Option.value ~default:[] (Hashtbl.find_opt a.samples k)

(* Fold one run's statistics bag into the accumulator under [prefix]. *)
let add_stats a ~prefix (st : Sim.Stats.t) keys =
  List.iter (fun k -> add a (prefix ^ k) (float_of_int (Sim.Stats.get st k))) keys

type metric = { m_name : string; m_value : float; m_unit : string }

let m name unit value = { m_name = name; m_value = value; m_unit = unit }

(* --- outcome ledger ------------------------------------------------------- *)

(* Every operation counts once in [attempted]; a mismatch, an exception,
   an error reply or a shed counts in [failed]. A wrong digest also
   clears [correct]. *)
type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable expected_dnc : int;
  mutable notes : string list;  (* first few failure messages *)
}

let ledger () =
  { attempted = 0; failed = 0; correct = true; expected_dnc = 0; notes = [] }

let note l msg = if List.length l.notes < 8 then l.notes <- msg :: l.notes

let fail l ?(wrong = false) msg =
  l.failed <- l.failed + 1;
  if wrong then l.correct <- false;
  note l msg

(* --- reference store ------------------------------------------------------ *)

(* Simulated results recorded when the benchmark was defined. A speed-up
   must leave every one of them bit-identical: a different digest,
   simulated cycle count or completed/DNC verdict is a failed operation. *)
type reference = { r_digest : string; r_cycles : int; r_dnc : bool }

module J = Server.Json

let ref_path workload = Filename.concat "perfbench/ref" (workload ^ ".json")

let load_refs workload =
  let path = ref_path workload in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let tbl = Hashtbl.create 256 in
  (match J.of_string text with
  | Ok (J.Obj entries) ->
    List.iter
      (fun (k, v) ->
        match (J.str "digest" v, J.int "cycles" v, J.bool "dnc" v) with
        | Ok d, Ok c, Ok dnc ->
          Hashtbl.replace tbl k { r_digest = d; r_cycles = c; r_dnc = dnc }
        | _ -> failwith (Printf.sprintf "%s: malformed entry %S" path k))
      entries
  | Ok _ | Error _ -> failwith (path ^ ": not a JSON object"));
  tbl

let save_refs workload entries =
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (k, r) ->
      Buffer.add_string buf
        (Printf.sprintf "%s  %s: {\"digest\": %s, \"cycles\": %d, \"dnc\": %b}"
           (if i = 0 then "" else ",\n")
           (J.to_string (J.Str k)) (J.to_string (J.Str r.r_digest)) r.r_cycles
           r.r_dnc))
    entries;
  Buffer.add_string buf "\n}\n";
  Out_channel.with_open_bin (ref_path workload) (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf))

(* Check one result against its recorded reference and its oracle digest
   (the fault-free pilot or the schedule-independent Pthreads digest). An
   expected DNC is recorded as such and is not a failure; its digest is
   not compared. *)
let check l refs ~key ~oracle ~digest ~cycles ~dnc =
  match Hashtbl.find_opt refs key with
  | None -> fail l (key ^ ": no recorded reference")
  | Some r ->
    if dnc <> r.r_dnc then
      fail l
        (Printf.sprintf "%s: %s, recorded %s" key
           (if dnc then "DNC" else "completed")
           (if r.r_dnc then "DNC" else "completed"))
    else if cycles <> r.r_cycles then
      fail l (Printf.sprintf "%s: %d cycles, recorded %d" key cycles r.r_cycles)
    else if dnc then l.expected_dnc <- l.expected_dnc + 1
    else if digest <> r.r_digest || digest <> oracle then
      fail l ~wrong:true
        (Printf.sprintf "%s: digest %s, oracle %s, recorded %s" key digest
           oracle r.r_digest)

(* --- knob guard ----------------------------------------------------------- *)

(* The numbers must measure the default program: no armed fault point,
   no dispatch profiling, no GPRS_* runtime knob in the environment. *)
let gprs_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> String.length kv > 5 && String.sub kv 0 5 = "GPRS_")

let knob_state () =
  [
    ("fault_points_armed", J.Int (Faults.Points.armed_count ()));
    ("block_profiling", J.Bool !Vm.Block.profiling);
    ("fusing", J.Bool (Vm.Block.fusing ()));
    ("compiling", J.Bool (Vm.Block.compiling ()));
    ("par_jobs", J.Int (Exec.Par.jobs ()));
    ("gprs_env", J.List (List.map (fun s -> J.Str s) (gprs_env ())));
  ]

let refusal () =
  if Faults.Points.armed_count () > 0 then
    Some (Printf.sprintf "%d fault point(s) armed" (Faults.Points.armed_count ()))
  else if !Vm.Block.profiling then Some "Vm.Block profiling is on"
  else
    match gprs_env () with
    | [] -> None
    | vs -> Some ("runtime knobs set: " ^ String.concat " " vs)

(* --- seeded helpers ------------------------------------------------------- *)

let shuffle prng l =
  let a = Array.of_list l in
  Sim.Prng.shuffle prng a;
  Array.to_list a

let grain_tag = function Workloads.Workload.Fine -> "f" | Workloads.Workload.Default -> "d"

let cps = Vm.Costs.default.Vm.Costs.cycles_per_second
let seconds_of_cycles c = float_of_int c /. float_of_int cps
