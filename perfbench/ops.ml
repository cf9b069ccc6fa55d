(* Calls into the program's layers, the way `gprs_run run` performs them,
   each wrapped in a span and folded into the per-layer accumulator. *)

open Common

type engine = Gprs of Gprs.Engine.recovery | Pthreads | Cpr

let engine_name = function
  | Gprs Gprs.Engine.Selective -> "gprs"
  | Gprs Gprs.Engine.Basic -> "gprs-basic"
  | Pthreads -> "pthreads"
  | Cpr -> "cpr"

type prog = {
  wl : string;
  n : int;
  grain : Workloads.Workload.grain;
  scale : float;
}

let prog_key p = Printf.sprintf "%s/n%d/%s/s%g" p.wl p.n (grain_tag p.grain) p.scale
let spec p = Workloads.Suite.find p.wl

let build acc p =
  let spec = spec p in
  Span.timed acc "workloads.build" (fun () ->
      spec.Workloads.Workload.build ~n_contexts:p.n ~grain:p.grain ~scale:p.scale)

let digest p r =
  Span.with_ "workloads.digest" (fun () -> (spec p).Workloads.Workload.digest r)

(* P-CPR's checkpoint interval, as the paper experiments set it: a
   twenty-fifth of the Pthreads run. *)
let cpr_interval ~base = seconds_of_cycles (max 1 (base / 25))

(* Counters each engine's run statistics already carry. *)
let gprs_counts =
  [
    "gprs.subthreads"; "gprs.retired"; "gprs.tokens"; "gprs.sync_parks";
    "gprs.steals"; "gprs.squashed_subs"; "gprs.restart_subs"; "gprs.wal_undone";
    "gprs.exceptions"; "gprs.runtime_exceptions";
  ]

let profile_counts =
  [
    "fuse.hops"; "compile.entries"; "compile.steps"; "compile.deopt.guard";
    "compile.deopt.horizon"; "pool.sub.hits"; "pool.sub.misses";
    "pool.evq.cells_alloc"; "pool.evq.cells_recycled";
  ]

(* Fold a finished run's counters into the accumulator (traced run only). *)
let note_run acc engine (r : Exec.State.run_result) =
  if !Span.on then begin
    let st = r.Exec.State.run_stats in
    (match engine with
    | Gprs _ ->
      add acc "gprs.runs" 1.;
      add_stats acc ~prefix:"" st gprs_counts;
      add acc "gprs.instrs" (float_of_int (Sim.Stats.get st "instrs"));
      maxv acc "gprs.rol_depth.max" (float_of_int (Sim.Stats.get st "gprs.rol_depth"));
      maxv acc "wal.high_water.max" (float_of_int (Sim.Stats.get st "wal.high_water"))
    | Pthreads ->
      add acc "exec.runs" 1.;
      add_stats acc ~prefix:"exec." st [ "ctx_switches" ]
    | Cpr ->
      add acc "cpr.runs" 1.;
      add_stats acc ~prefix:"" st [ "cpr.checkpoints"; "cpr.rollbacks"; "cpr.lost_cycles" ];
      (* a rollback winds the clock back, so the cycles simulated in all
         are the final clock plus the lost ones *)
      add acc "cpr.cycles"
        (float_of_int (r.Exec.State.sim_cycles + Sim.Stats.get st "cpr.lost_cycles")));
    if !Vm.Block.profiling then begin
      add acc "profile.runs" 1.;
      add_stats acc ~prefix:"" st profile_counts;
      List.iter
        (fun (k, v) ->
          if String.length k > 9 && String.sub k 0 9 = "dispatch." then
            add acc "dispatch.total" v)
        (Sim.Stats.to_assoc st)
    end
  end

let span_of = function
  | Gprs _ -> "gprs.run"
  | Pthreads -> "exec.run"
  | Cpr -> "cpr.run"

(* One engine call under a simulated-cycle budget. *)
let run acc ~engine ~blocks ~n ~seed ?(rate = 0.) ?(interval = 1.0) ~budget
    program =
  let injector = Faults.Injector.config ~seed rate in
  let r =
    Span.timed acc (span_of engine) (fun () ->
        match engine with
        | Gprs recovery ->
          Gprs.Engine.run ~lint:`Off ~blocks
            {
              Gprs.Engine.default_config with
              n_contexts = n;
              seed;
              recovery;
              injector;
              max_cycles = Some budget;
            }
            program
        | Pthreads ->
          Exec.Baseline.run ~blocks
            {
              Exec.Baseline.default_config with
              n_contexts = n;
              seed;
              max_cycles = Some budget;
            }
            program
        | Cpr ->
          Cpr.run ~blocks
            {
              Cpr.default_config with
              n_contexts = n;
              seed;
              checkpoint_interval = interval;
              injector;
              max_cycles = Some budget;
            }
            program)
  in
  note_run acc engine r;
  r

(* Fault-free Pthreads pilot: the schedule-independent oracle digest and
   the base cycle count budgets and rates derive from. *)
let pilot acc p program blocks =
  let r =
    run acc ~engine:Pthreads ~blocks ~n:p.n ~seed:1 ~budget:max_int program
  in
  ((spec p).Workloads.Workload.digest r, r.Exec.State.sim_cycles)

(* The fault-free budget faultsweep uses for hang detection. *)
let budget_of pilot_cycles = (4 * pilot_cycles) + 10_000

(* Closed loop with one caller: whole passes of the seeded sequence until
   the next pass would overrun [seconds] or bring the run to [max_ops]
   operations (at least one pass). Whole passes keep the per-pass
   operation mix, and so every percentile's position in it, the same from
   run to run; the cap keeps a faster host on the same tail percentile.
   [pass calib] returns each op's kind and host ms, and takes a
   calibration sample after each op. *)
type loop = {
  ops : (string * float) list;
  passes : int;
  wall_s : float;
  words_per_pass : float;
  calib : Calib.t;
}

(* Between two operations: collect the heap, as a fresh `gprs_run`
   process would start from an empty one, then take a calibration sample
   on the clean heap. Neither is part of any operation's time. *)
let between calib =
  Gc.full_major ();
  Calib.sample calib

(* Below 1000 samples the tail is p95 from 200 on (see [Common.tail_rung]). *)
let max_ops = 999

let closed_loop ~seconds pass =
  let calib = Calib.create () in
  let w0 = words () in
  let wall = ref 0. and last = ref 0. and passes = ref 0 and ops = ref [] in
  let per_pass = ref 0 in
  while
    !passes = 0
    || (!wall +. !last <= seconds && (!passes + 1) * !per_pass <= max_ops)
  do
    let t0 = now () in
    let done_ = pass calib in
    per_pass := List.length done_;
    ops := done_ @ !ops;
    last := now () -. t0;
    wall := !wall +. !last;
    incr passes
  done;
  {
    ops = !ops;
    passes = !passes;
    wall_s = !wall;
    words_per_pass = (words () -. w0 -. calib.Calib.words) /. float_of_int !passes;
    calib;
  }

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Each kind of operation costs the lower quartile of its host times in
   the run, at nominal host speed; a pass is the weighted sum of its
   kinds. The quartile drops the operations a busy host slowed down, and
   the calibration takes out the drift of the host's own speed. *)
let kind_costs ~factor ~per samples =
  List.map
    (fun (_, vs) ->
      (factor *. pct (sorted vs) 25., float_of_int (List.length vs) /. per))
    (by_kind samples)

(* The end-to-end metrics of a closed loop (set-up time is added by the
   benchmark's main), with the raw host figures beside them. *)
let loop_metrics l =
  let n = List.length l.ops in
  let items =
    kind_costs ~factor:(Calib.factor l.calib) ~per:(float_of_int l.passes) l.ops
  in
  let pass_ms = List.fold_left (fun a (t, w) -> a +. (t *. w)) 0. items in
  let per_pass = float_of_int n /. float_of_int l.passes in
  let rung = tail_rung n in
  let raw = List.map snd l.ops in
  ( [
      m "runs_per_s" "1/s" (1000. *. per_pass /. pass_ms);
      m "run_ms.p50" "ms" (band_pct items 50.);
      m "run_ms.tail" "ms" (band_pct items rung);
      m "minor_mwords" "Mwords" (l.words_per_pass /. 1e6);
      m "top_heap_mb" "MB" (top_heap_mb ());
    ],
    [
      ("run_ms.tail_pct", J.Float rung);
      ("run_ms.samples", J.Int n);
      ("passes", J.Int l.passes);
      ("kernel_ms", J.Float (Calib.kernel_ms l.calib));
      ("raw.runs_per_s", J.Float (float_of_int n /. l.wall_s));
      ("raw.run_ms.p50", J.Float (median raw));
      ("raw.run_ms.tail", J.Float (tail raw).t_value);
    ] )

(* Per-layer metrics every engine-driving workload reports, from the
   traced run's accumulator. *)
let layer_metrics acc =
  let ms k = mean (samples acc (k ^ ".ms")) in
  let calls k = float_of_int (List.length (samples acc (k ^ ".ms"))) in
  let per_call k w = ratio (sum acc (w ^ ".words")) (calls k) /. 1e6 in
  let runs k = sum acc k in
  let per k ~runs:r = ratio (sum acc k) (runs r) in
  let gprs_total_ms = List.fold_left ( +. ) 0. (samples acc "gprs.run.ms") in
  let subs = sum acc "gprs.subthreads" in
  let prof k = per k ~runs:"profile.runs" in
  [
    m "workloads.build_ms" "ms" (ms "workloads.build");
    m "workloads.build_mwords" "Mwords" (per_call "workloads.build" "workloads.build");
    m "vm.analyze_ms" "ms" (ms "vm.analyze");
    m "lint.check_ms" "ms" (ms "lint.check");
    m "lint.race_ms" "ms" (ms "lint.race");
    m "gprs.run_ms" "ms" (ms "gprs.run");
    m "gprs.mwords" "Mwords" (per_call "gprs.run" "gprs.run");
    m "gprs.ns_per_subthread" "ns" (ratio (1e6 *. gprs_total_ms) subs);
    m "gprs.words_per_subthread" "words" (ratio (sum acc "gprs.run.words") subs);
    m "gprs.ns_per_instr" "ns" (ratio (1e6 *. gprs_total_ms) (sum acc "gprs.instrs"));
    m "gprs.subthreads" "count" (per "gprs.subthreads" ~runs:"gprs.runs");
    m "gprs.retired" "count" (per "gprs.retired" ~runs:"gprs.runs");
    m "gprs.useful_ratio" "ratio" (ratio (sum acc "gprs.retired") subs);
    m "gprs.tokens" "count" (per "gprs.tokens" ~runs:"gprs.runs");
    m "gprs.sync_parks" "count" (per "gprs.sync_parks" ~runs:"gprs.runs");
    m "gprs.steals" "count" (per "gprs.steals" ~runs:"gprs.runs");
    m "gprs.rol_depth.max" "count" (sum acc "gprs.rol_depth.max");
    m "gprs.squashed_subs" "count" (per "gprs.squashed_subs" ~runs:"gprs.runs");
    m "gprs.restart_subs" "count" (per "gprs.restart_subs" ~runs:"gprs.runs");
    m "gprs.wal_undone" "count" (per "gprs.wal_undone" ~runs:"gprs.runs");
    m "faults.exceptions" "count" (per "gprs.exceptions" ~runs:"gprs.runs");
    m "faults.runtime_exceptions" "count"
      (per "gprs.runtime_exceptions" ~runs:"gprs.runs");
    m "exec.run_ms" "ms" (ms "exec.run");
    m "exec.ctx_switches" "count" (per "exec.ctx_switches" ~runs:"exec.runs");
    m "cpr.run_ms" "ms" (ms "cpr.run");
    m "cpr.checkpoints" "count" (per "cpr.checkpoints" ~runs:"cpr.runs");
    m "cpr.rollbacks" "count" (per "cpr.rollbacks" ~runs:"cpr.runs");
    m "cpr.cycles" "count" (per "cpr.cycles" ~runs:"cpr.runs");
    m "cpr.lost_ratio" "ratio" (ratio (sum acc "cpr.lost_cycles") (sum acc "cpr.cycles"));
    m "wal.high_water.max" "count" (sum acc "wal.high_water.max");
    m "dispatch.total" "count" (prof "dispatch.total");
    m "fuse.hops" "count" (prof "fuse.hops");
    m "compile.entries" "count" (prof "compile.entries");
    m "compile.steps" "count" (prof "compile.steps");
    m "compile.deopt.guard" "count" (prof "compile.deopt.guard");
    m "compile.deopt.horizon" "count" (prof "compile.deopt.horizon");
    m "pool.sub.hits" "count" (prof "pool.sub.hits");
    m "pool.sub.lookups" "count" (prof "pool.sub.hits" +. prof "pool.sub.misses");
    m "pool.sub.hit_ratio" "ratio"
      (ratio (sum acc "pool.sub.hits") (sum acc "pool.sub.hits" +. sum acc "pool.sub.misses"));
    m "pool.evq.cells_alloc" "count" (prof "pool.evq.cells_alloc");
    m "pool.evq.cells_recycled" "count" (prof "pool.evq.cells_recycled");
  ]
