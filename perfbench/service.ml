(* service-open: an in-process daemon with one pool worker on a Unix
   socket, driven from this process over one connection. A closed-loop
   phase (one caller) gives the per-run numbers; open-loop phases at a
   light and a heavy fixed rate, then a rate ladder, give the service
   latencies and the highest rate that meets the latency limit. Latency
   runs from the scheduled send time, so a stalled generator or server is
   charged to the requests behind it. *)

open Common
module Scn = Server.Scenario

(* The working set: small programs whose per-request engine work is warm
   and short. Requests against them carry distinct seeds. *)
let working_set =
  [ ("wordcount", 0.5); ("histogram", 0.5); ("blackscholes", 1.0); ("swaptions", 0.5);
    ("pbzip2", 0.25); ("barnes-hut", 0.25) ]

(* Program keys outside the working set: more than the daemon's 32 cache
   entries, so the LRU misses and evicts on every one of them. The scales
   differ by a tenth of a percent, so the keys of one workload cost the
   same. *)
let cold_keys =
  List.concat_map
    (fun wl -> List.init 10 (fun i -> (wl, 0.30 +. (0.001 *. float_of_int i))))
    [ "wordcount"; "histogram"; "blackscholes"; "swaptions" ]

let contexts = 8
let warm_seeds = 16
let cold_seeds = 4

(* Shares of a request stream, in percent: cold keys, then exact
   duplicates (sent as a pair at one instant, so the second coalesces);
   the rest are warm. *)
let cold_pct = 12
let dup_pct = 8

(* The latency limit on the tail, and the fixed rates (requests/s). *)
let limit_ms = 50.
let light_rps = 60.
let heavy_rps = 110.
let ladder = [ 80.; 100.; 120.; 140.; 160.; 180.; 200.; 240. ]

type req = { wl : string; scale : float; seed : int }

let scenario ~id r =
  {
    Scn.id;
    workload = r.wl;
    engine = "gprs";
    ordering = "balance-aware";
    contexts;
    scale = r.scale;
    grain = "default";
    seed = r.seed;
    rate = 0.;
    interval = 0.05;
    want_stats = false;
  }

let prog_key r = Printf.sprintf "%s/n%d/s%g" r.wl contexts r.scale
let key r = Printf.sprintf "%s/gprs/seed%d" (prog_key r) r.seed

(* A seeded generator of work items; a [`Dup] is one request sent twice.
   Cold keys come round in a seeded order. *)
let generator prng =
  let cold = Array.of_list cold_keys and warm_set = Array.of_list working_set in
  Sim.Prng.shuffle prng cold;
  let next_cold = ref 0 in
  let warm () =
    let wl, scale = Sim.Prng.choose prng warm_set in
    { wl; scale; seed = 1 + Sim.Prng.int prng warm_seeds }
  in
  fun () ->
    let roll = Sim.Prng.int prng 100 in
    if roll < cold_pct then begin
      let wl, scale = cold.(!next_cold mod Array.length cold) in
      incr next_cold;
      `One { wl; scale; seed = 1 + Sim.Prng.int prng cold_seeds }
    end
    else if roll < cold_pct + dup_pct then `Dup (warm ())
    else `One (warm ())

(* --- a client that keeps every event's arrival time ------------------------ *)

module J = Server.Json

type track = {
  r : req;
  sched : float;
  mutable sent : float;
  mutable queued : float;
  mutable start : float;
  mutable final : float;
  mutable reply : J.t;
}

type client = {
  fd : Unix.file_descr;
  oc : out_channel;
  mu : Mutex.t;
  cond : Condition.t;
  tracks : (string, track) Hashtbl.t;
  anon : J.t Queue.t;
  mutable open_ : bool;
  mutable reader : Thread.t option;
}

let reader c ic () =
  let rec loop () =
    match input_line ic with
    | line ->
      let at = now () in
      (match J.of_string line with
      | Ok j ->
        let ev = Result.value ~default:"" (J.str ~default:"" "event" j) in
        let id = Result.value ~default:"" (J.str ~default:"" "id" j) in
        Mutex.lock c.mu;
        (match Hashtbl.find_opt c.tracks id with
        | Some t when id <> "" -> (
          match ev with
          | "queued" -> t.queued <- at
          | "start" -> t.start <- at
          | _ ->
            t.final <- at;
            t.reply <- j)
        | _ -> Queue.push j c.anon);
        Condition.broadcast c.cond;
        Mutex.unlock c.mu
      | Error _ -> ());
      loop ()
    | exception _ ->
      Mutex.lock c.mu;
      c.open_ <- false;
      Condition.broadcast c.cond;
      Mutex.unlock c.mu
  in
  loop ()

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let c =
    {
      fd;
      oc = Unix.out_channel_of_descr fd;
      mu = Mutex.create ();
      cond = Condition.create ();
      tracks = Hashtbl.create 4096;
      anon = Queue.create ();
      open_ = true;
      reader = None;
    }
  in
  c.reader <- Some (Thread.create (reader c (Unix.in_channel_of_descr fd)) ());
  c

let send_line c j =
  output_string c.oc (J.to_string j);
  output_char c.oc '\n';
  flush c.oc

let new_track c id r sched =
  let t =
    { r; sched; sent = nan; queued = nan; start = nan; final = nan; reply = J.Null }
  in
  Mutex.lock c.mu;
  Hashtbl.replace c.tracks id t;
  Mutex.unlock c.mu;
  t

let send c id t =
  t.sent <- now ();
  send_line c (Scn.to_json (scenario ~id t.r))

(* Block until every track in [ts] has its final reply. *)
let await c ts =
  Mutex.lock c.mu;
  let rec go () =
    if List.exists (fun t -> Float.is_nan t.final) ts && c.open_ then begin
      Condition.wait c.cond c.mu;
      go ()
    end
  in
  go ();
  Mutex.unlock c.mu;
  if List.exists (fun t -> Float.is_nan t.final) ts then failwith "daemon connection closed"

let stats_op c =
  send_line c (J.Obj [ ("op", J.Str "stats") ]);
  Mutex.lock c.mu;
  while Queue.is_empty c.anon && c.open_ do
    Condition.wait c.cond c.mu
  done;
  let j = if Queue.is_empty c.anon then J.Null else Queue.pop c.anon in
  Mutex.unlock c.mu;
  j

let close c =
  (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ());
  Option.iter Thread.join c.reader;
  try Unix.close c.fd with _ -> ()

(* --- state ------------------------------------------------------------------- *)

type state = {
  daemon : Server.Daemon.t;
  client : client;
  next : unit -> [ `One of req | `Dup of req ];
  pilots : (string, string) Hashtbl.t;  (* prog key -> Pthreads digest *)
  refs : (string, reference) Hashtbl.t;
  mutable next_id : int;
}

let sock_dir = ".perfbench"

let sock_path () =
  Filename.concat sock_dir (Printf.sprintf "svc-%d.sock" (Unix.getpid ()))

let all_programs () =
  List.sort_uniq compare (working_set @ cold_keys)

let pilot (wl, scale) =
  let spec = Workloads.Suite.find wl in
  let program =
    spec.Workloads.Workload.build ~n_contexts:contexts ~grain:Workloads.Workload.Default
      ~scale
  in
  let r =
    Exec.Baseline.run { Exec.Baseline.default_config with n_contexts = contexts } program
  in
  spec.Workloads.Workload.digest r

let stop st =
  close st.client;
  Server.Daemon.stop st.daemon

let fresh_id st =
  st.next_id <- st.next_id + 1;
  Printf.sprintf "r%d" st.next_id

(* Set-up: reference digests, daemon start, and one warm request per
   working-set program so the cache holds them. *)
let setup ~seed =
  let pilots = Hashtbl.create 64 in
  List.iter
    (fun (wl, scale) -> Hashtbl.replace pilots (prog_key { wl; scale; seed = 0 }) (pilot (wl, scale)))
    (all_programs ());
  (try Unix.mkdir sock_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = sock_path () in
  let daemon =
    Server.Daemon.start { Server.Daemon.default_config with addr = Server.Daemon.Unix_sock path }
  in
  let client = connect path in
  let st =
    { daemon; client; next = generator (Sim.Prng.create seed); pilots; refs = load_refs "service-open"; next_id = 0 }
  in
  let warm =
    List.map
      (fun (wl, scale) ->
        let id = fresh_id st in
        let t = new_track client id { wl; scale; seed = 1 } (now ()) in
        send client id t;
        t)
      working_set
  in
  await client warm;
  st

(* Check a final reply against the recorded reference and the Pthreads
   digest; error replies (sheds included) are failures. *)
let check_reply st l t =
  l.attempted <- l.attempted + 1;
  match Result.value ~default:"" (J.str ~default:"" "event" t.reply) with
  | "done" -> (
    match (J.str "digest" t.reply, J.int "sim_cycles" t.reply, J.bool "dnc" t.reply) with
    | Ok digest, Ok cycles, Ok dnc ->
      let oracle = Hashtbl.find st.pilots (prog_key t.r) in
      check l st.refs ~key:(key t.r) ~oracle ~digest ~cycles ~dnc
    | _ -> fail l (key t.r ^ ": malformed done reply"))
  | _ -> fail l (key t.r ^ ": " ^ J.to_string t.reply)

let lat t = 1000. *. (t.final -. t.sched)

(* Closed loop, one caller: the next item goes out when the previous one's
   replies are in (a duplicate pair goes out together), with a calibration
   sample between items, for [seconds] or [Ops.max_ops] items. Returns
   each item's kind and round-trip ms. *)
let closed st l calib ~seconds =
  let c = st.client in
  let t_end = now () +. seconds in
  let out = ref [] and n = ref 0 in
  while now () < t_end && !n < Ops.max_ops do
    incr n;
    let kind, reqs =
      match st.next () with
      | `One r when List.mem (r.wl, r.scale) working_set -> ("warm:" ^ r.wl, [ r ])
      | `One r -> ("cold:" ^ r.wl, [ r ])
      | `Dup r -> ("dup:" ^ r.wl, [ r; r ])
    in
    let t0 = now () in
    let ts =
      List.map
        (fun r ->
          let id = fresh_id st in
          let t = new_track c id r t0 in
          send c id t;
          t)
        reqs
    in
    await c ts;
    out := (kind, ms_since t0) :: !out;
    List.iter (check_reply st l) ts;
    Calib.sample calib
  done;
  !out

(* The share of each item kind in the stream, and its requests. *)
let kind_weight kind =
  let n_warm = float_of_int (List.length working_set) in
  match String.split_on_char ':' kind with
  | [ "warm"; _ ] -> (float_of_int (100 - cold_pct - dup_pct) /. n_warm, 1.)
  | [ "dup"; _ ] -> (float_of_int dup_pct /. n_warm, 2.)
  | _ -> (float_of_int cold_pct /. 4., 1.)

(* Open loop: [n] items at [rps], sent on schedule from a generator
   thread whatever the replies; returns every request's track. *)
let open_loop st ~rps ~n =
  let c = st.client in
  let items = List.init n (fun _ -> st.next ()) in
  let t0 = now () +. 0.005 in
  let plan =
    List.mapi
      (fun i item ->
        let sched = t0 +. (float_of_int i /. rps) in
        let reqs = match item with `One r -> [ r ] | `Dup r -> [ r; r ] in
        (sched, List.map (fun r -> let id = fresh_id st in (id, new_track c id r sched)) reqs))
      items
  in
  let gen () =
    List.iter
      (fun (sched, ts) ->
        let d = sched -. now () in
        if d > 0. then Thread.delay d;
        List.iter (fun (id, t) -> send c id t) ts)
      plan
  in
  Thread.join (Thread.create gen ());
  let ts = List.concat_map (fun (_, ts) -> List.map snd ts) plan in
  await c ts;
  ts

let gen_late ts = List.fold_left (fun a t -> Float.max a (1000. *. (t.sent -. t.sched))) 0. ts

let phase st l ts =
  List.iter (check_reply st l) ts;
  let ok = List.filter (fun t -> J.str ~default:"" "event" t.reply = Ok "done") ts in
  (List.map lat ok, List.length ok = List.length ts)

(* A rung passes when its tail meets the limit, nothing failed, and the
   last quarter's median does too (no growing backlog). *)
let rung_ok lats all_ok =
  let n = List.length lats in
  let last = List.filteri (fun i _ -> i >= 3 * n / 4) lats in
  all_ok && (tail lats).t_value <= limit_ms && median last <= limit_ms

let measure st ~seconds l =
  let c = st.client in
  (* closed loop, light and heavy rates, then ladder rungs of 1/30 each *)
  let span = seconds /. 6. in
  let calib = Calib.create () in
  let items = closed st l calib ~seconds:(0.25 *. seconds) in
  let rt = List.map snd items in
  let f = Calib.factor calib in
  let costs =
    List.map
      (fun (kind, vs) ->
        let w, reqs = kind_weight kind in
        (f *. pct (sorted vs) 25., w, reqs))
      (by_kind items)
  in
  let weighted = List.map (fun (t, w, _) -> (t, w)) costs in
  let runs_per_s =
    1000.
    *. List.fold_left (fun a (_, w, r) -> a +. (w *. r)) 0. costs
    /. List.fold_left (fun a (t, w, _) -> a +. (t *. w)) 0. costs
  in
  let stats0 = stats_op c and analyses0 = Vm.Block.analyses () in
  let w0 = words () in
  let light = open_loop st ~rps:light_rps ~n:(int_of_float (light_rps *. span)) in
  let heavy = open_loop st ~rps:heavy_rps ~n:(int_of_float (heavy_rps *. span)) in
  let pass_words = words () -. w0 in
  let light_lat, _ = phase st l light and heavy_lat, _ = phase st l heavy in
  (* the ladder: fixed rungs, up to the first failure *)
  let rec climb best late = function
    | [] -> (best, late)
    | rps :: rest ->
      let ts = open_loop st ~rps ~n:(int_of_float (rps *. seconds /. 30.)) in
      let lats, all_ok = phase st l ts in
      let late = Float.max late (gen_late ts) in
      if rung_ok lats all_ok then climb rps late rest else (best, late)
  in
  let max_rps, ladder_late = climb 0. 0. ladder in
  let stats1 = stats_op c in
  let analyses = Vm.Block.analyses () - analyses0 in
  let get j path =
    let rec go j = function
      | [] -> ( match j with J.Int i -> float_of_int i | _ -> 0.)
      | k :: ks -> ( match J.member k j with Some v -> go v ks | None -> 0.)
    in
    go j path
  in
  let delta path = get stats1 path -. get stats0 path in
  let hits = delta [ "cache"; "hits" ] and misses = delta [ "cache"; "misses" ] in
  if float_of_int analyses <> misses then
    fail l (Printf.sprintf "%d analyses against %.0f cache misses" analyses misses);
  let all = light @ heavy in
  let gaps f = median (List.filter_map f all) in
  let gap a b = if Float.is_nan a || Float.is_nan b then None else Some (1000. *. (b -. a)) in
  if !Span.on then
    List.iteri
      (fun i t ->
        if not (Float.is_nan t.queued || Float.is_nan t.start) then begin
          let root = Span.add ~id:i "server.request" t.sched t.final in
          ignore (Span.add ~parent:root ~id:i "server.queued" t.sched t.queued);
          ignore (Span.add ~parent:root ~id:i "server.start" t.queued t.start);
          ignore (Span.add ~parent:root ~id:i "server.exec" t.start t.final)
        end)
      all;
  let rt_tail = tail rt and light_tail = tail light_lat in
  let late = Float.max ladder_late (gen_late all) in
  let svc =
    [
      m "svc_lat_ms.p50.light" "ms" (median light_lat);
      m "svc_lat_ms.tail.light" "ms" light_tail.t_value;
      m "svc_lat_ms.p50.heavy" "ms" (median heavy_lat);
      m "svc_max_rps" "1/s" max_rps;
      m "server.gen_late_ms.max" "ms" late;
    ]
  in
  let e2e =
    [
      m "runs_per_s" "1/s" runs_per_s;
      m "run_ms.p50" "ms" (band_pct weighted 50.);
      m "run_ms.tail" "ms" (band_pct weighted rt_tail.t_pct);
      m "minor_mwords" "Mwords" (pass_words /. 1e6);
      m "top_heap_mb" "MB" (Ops.top_heap_mb ());
    ]
  in
  let layers =
    svc
    @ [
        m "server.queued_ms" "ms" (gaps (fun t -> gap t.sched t.queued));
        m "server.start_ms" "ms" (gaps (fun t -> gap t.queued t.start));
        m "server.exec_ms" "ms" (gaps (fun t -> gap t.start t.final));
        m "server.cache_lookups" "count" (hits +. misses);
        m "server.cache_hit_ratio" "ratio" (ratio hits (hits +. misses));
        m "server.evictions" "count" (delta [ "cache"; "evictions" ]);
        m "server.coalesced" "count" (delta [ "coalesced" ]);
        m "server.shed" "count" (delta [ "shed" ]);
        m "server.analyses" "count" (float_of_int analyses);
      ]
  in
  let info =
    [
      ("run_ms.tail_pct", J.Float rt_tail.t_pct);
      ("run_ms.samples", J.Int rt_tail.t_n);
      ("kernel_ms", J.Float (Calib.kernel_ms calib));
      ("raw.runs_per_s", J.Float (1000. *. float_of_int (List.length rt) /. List.fold_left ( +. ) 0. rt));
      ("raw.run_ms.p50", J.Float (median rt));
      ("raw.run_ms.tail", J.Float rt_tail.t_value);
      ("svc_lat_ms.tail_pct.light", J.Float light_tail.t_pct);
      ("latency_limit_ms", J.Float limit_ms);
      ("light_rps", J.Float light_rps);
      ("heavy_rps", J.Float heavy_rps);
    ]
    @ List.map (fun x -> (x.m_name, J.Float x.m_value)) svc
  in
  (e2e, layers, info, mean rt)

(* References: each request kind run directly through Scenario.run, which
   the daemon's replies are bit-identical to. *)
let record () =
  List.concat_map
    (fun (wl, scale) ->
      let seeds = if List.mem (wl, scale) working_set then warm_seeds else cold_seeds in
      let spec, program = Scn.build_program (scenario ~id:"" { wl; scale; seed = 1 }) in
      List.init seeds (fun i ->
          let r = { wl; scale; seed = i + 1 } in
          let o = Scn.run ~spec ~program (scenario ~id:"" r) in
          (key r, { r_digest = o.Scn.digest; r_cycles = o.Scn.sim_cycles; r_dnc = o.Scn.dnc })))
    (all_programs ())
