(* Benchmark harness.

   Two parts:

   1. Regenerates every table and figure of the paper's evaluation at
      bench scale (reduced inputs/contexts so the whole harness finishes
      in minutes; `dune exec bin/paper.exe` runs the full-scale version)
      — these are the rows/series the paper reports. Each experiment's
      wall-clock is recorded.

   2. One Bechamel micro-benchmark per table/figure, timing the
      simulator codepath that experiment exercises.

   `--json FILE` writes the wall-clock and ns/run numbers as JSON — the
   committed BENCH_BASELINE.json is one such run, and bench/compare.py
   gates CI against it. `--quick` shrinks part 1's inputs and part 2's
   quota for smoke runs; quick and full runs record different
   (name, contexts, scale) keys, so the comparator never conflates
   them. *)

open Bechamel
open Toolkit

let ppf = Format.std_formatter

type exp_entry = {
  e_name : string;
  e_contexts : int;
  e_scale : float;
  e_wall_s : float;
}

type micro_entry = { m_name : string; m_ns_per_run : float }
type prof_entry = { p_engine : string; p_key : string; p_value : float }

type alloc_entry = {
  a_name : string;
  a_contexts : int;
  a_scale : float;
  a_minor_words : float;
  a_promoted_words : float;
}

type lint_entry = {
  l_name : string;
  l_contexts : int;
  l_scale : float;
  l_wall_ms : float;
}

type service_entry = {
  s_name : string;
  s_contexts : int;
  s_scale : float;
  s_cold_ms : float;  (* median request latency, cache cleared each time *)
  s_warm_ms : float;  (* median request latency, cache primed *)
  s_warm_speedup : float;
  s_warm_recompiles : int;  (* Vm.Block analyses during the warm leg *)
  s_rps : float;
  s_p50_ms : float;
  s_p99_ms : float;
}

type recovery_entry = {
  r_leg : string;
  r_contexts : int;
  r_scale : float;
  r_points : int;
  r_mean_recovery_s : float;
  r_max_recovery_s : float;
  r_replayed_lsns : int;
  r_redone_ops : int;
  r_squashed_subs : int;
}

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's rows/series at bench scale                      *)
(* ------------------------------------------------------------------ *)

let bench_cfg ~jobs ~quick =
  {
    Analysis.Experiments.default_cfg with
    Analysis.Experiments.n_contexts = 8;
    scale = (if quick then 0.05 else 0.1);
    dnc_factor = 20;
    jobs;
  }

let print_experiments ~jobs ~quick =
  let cfg = bench_cfg ~jobs ~quick in
  let entries = ref [] in
  let timed name ~contexts ~scale f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let wall = Unix.gettimeofday () -. t0 in
    entries :=
      { e_name = name; e_contexts = contexts; e_scale = scale; e_wall_s = wall }
      :: !entries;
    r
  in
  let timed_cfg name c f =
    timed name ~contexts:c.Analysis.Experiments.n_contexts
      ~scale:c.Analysis.Experiments.scale (fun () -> f c)
  in
  Format.fprintf ppf
    "=== GPRS paper evaluation (bench scale: %d contexts, scale %.2f) ===@.@."
    cfg.Analysis.Experiments.n_contexts cfg.Analysis.Experiments.scale;
  Analysis.Report.render_table ppf ~title:"Table 1 — Related work (qualitative)"
    ~header:
      [ "Proposal"; "Recovery"; "Design"; "Chkpt."; "Rec."; "Scalable"; "Det."; "Det. cost" ]
    (Analysis.Experiments.table1 ());
  Format.fprintf ppf "@.";
  Analysis.Report.render_table ppf
    ~title:"Table 2 — Programs and their relative characteristics"
    ~header:[ "Program"; "Comp."; "Sync."; "Crit."; "Exec(s)"; "Sub-size"; "#Subs" ]
    (timed_cfg "table2" cfg Analysis.Experiments.table2);
  Format.fprintf ppf "@.";
  Analysis.Report.render_figure ppf (timed_cfg "fig8a" cfg Analysis.Experiments.fig8a);
  Format.fprintf ppf "@.";
  Analysis.Report.render_figure ppf (timed_cfg "fig8b" cfg Analysis.Experiments.fig8b);
  Format.fprintf ppf "@.";
  Analysis.Report.render_figure ppf (timed_cfg "fig9" cfg Analysis.Experiments.fig9);
  Format.fprintf ppf "@.";
  Analysis.Report.render_figure ppf (timed_cfg "fig10" cfg Analysis.Experiments.fig10);
  Format.fprintf ppf "@.";
  let fig11_cfg =
    { cfg with Analysis.Experiments.scale = (if quick then 0.04 else 0.08) }
  in
  let fig11_contexts = if quick then [ 1; 4 ] else [ 1; 4; 8 ] in
  Analysis.Experiments.render_fig11 ppf
    (timed_cfg "fig11" fig11_cfg
       (Analysis.Experiments.fig11 ~contexts:fig11_contexts));
  Format.fprintf ppf "@.";
  List.rev !entries

(* ------------------------------------------------------------------ *)
(* Allocation profile: Gc words per experiment run                     *)
(* ------------------------------------------------------------------ *)

(* Gc counters are per-domain, so these are dedicated single runs in the
   main domain — independent of the [-j] experiment pool. One warm-up run
   first: lazy program/table initialization would otherwise be charged to
   the first measurement. The simulator is deterministic, so minor_words
   is too (promoted_words can wobble a little with minor-heap phase).
   Minor words come from [Gc.minor_words], which reads the allocation
   pointer: OCaml 5.1's [quick_stat] only advances its count at minor
   collections, so a run smaller than the minor heap would read 0. *)
let alloc_profile ~quick =
  let cfg = bench_cfg ~jobs:1 ~quick in
  let contexts = cfg.Analysis.Experiments.n_contexts in
  let scale = cfg.Analysis.Experiments.scale in
  let entries = ref [] in
  let measure name ~scale f =
    ignore (f ());
    let s0 = Gc.quick_stat () in
    let w0 = Gc.minor_words () in
    ignore (f ());
    let w1 = Gc.minor_words () in
    let s1 = Gc.quick_stat () in
    entries :=
      {
        a_name = name;
        a_contexts = contexts;
        a_scale = scale;
        a_minor_words = w1 -. w0;
        a_promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      }
      :: !entries
  in
  let c = { cfg with Analysis.Experiments.scale } in
  let fig11_scale = if quick then 0.04 else 0.08 in
  let c11 = { cfg with Analysis.Experiments.scale = fig11_scale } in
  measure "alloc:fig8a:gprs(wordcount)" ~scale (fun () ->
      Analysis.Experiments.run_gprs c (Workloads.Suite.find "wordcount")
        ~grain:Workloads.Workload.Default);
  measure "alloc:fig8b:gprs(canneal,fine)" ~scale (fun () ->
      Analysis.Experiments.run_gprs c (Workloads.Suite.find "canneal")
        ~grain:Workloads.Workload.Fine);
  measure "alloc:fig11:gprs(pbzip2,faults)" ~scale:fig11_scale (fun () ->
      Analysis.Experiments.run_gprs ~rate:60.0 c11 (Workloads.Suite.find "pbzip2")
        ~grain:Workloads.Workload.Default);
  measure "alloc:cpr(re,faults)" ~scale (fun () ->
      Analysis.Experiments.run_cpr ~rate:40.0 c (Workloads.Suite.find "re")
        ~grain:Workloads.Workload.Default);
  measure "alloc:pthreads(wordcount)" ~scale (fun () ->
      Analysis.Experiments.run_pthreads c (Workloads.Suite.find "wordcount")
        ~grain:Workloads.Workload.Default);
  let entries = List.rev !entries in
  Format.fprintf ppf "=== Allocation per run (main domain, Gc words) ===@.";
  List.iter
    (fun a ->
      Format.fprintf ppf "%-36s %14.0f minor  %12.0f promoted@." a.a_name
        a.a_minor_words a.a_promoted_words)
    entries;
  Format.fprintf ppf "@.";
  entries

(* ------------------------------------------------------------------ *)
(* Cold-recovery profile: crashsweep legs, host seconds per recovery   *)
(* ------------------------------------------------------------------ *)

(* The crashsweep's per-leg report already aggregates what we want to
   track over time: mean/max host wall-clock per cold recovery, redo-scan
   length, and redone-vs-squashed counts. Quick and full runs use
   different scales, so the comparator never conflates them; the full
   run samples its larger log to bound wall time. A failing leg aborts
   the bench — recording timings for a broken recovery would poison the
   baseline. *)
let recovery_profile ~quick =
  let contexts = 4 in
  let entries = ref [] in
  let leg name ~scale ?sample () =
    let spec = Workloads.Suite.find name in
    let program =
      spec.Workloads.Workload.build ~n_contexts:contexts
        ~grain:Workloads.Workload.Default ~scale
    in
    let cfg =
      {
        Gprs.Engine.default_config with
        n_contexts = contexts;
        seed = 3;
        ordering = Gprs.Order.Balance_aware;
      }
    in
    let r =
      Recovery.sweep_gprs ?sample ~sample_seed:3 ~leg:name ~cfg
        ~digest:spec.Workloads.Workload.digest program
    in
    if not (Recovery.leg_ok r) then
      failwith (Format.asprintf "recovery leg failed: %a" Recovery.pp_report r);
    entries :=
      {
        r_leg = name;
        r_contexts = contexts;
        r_scale = scale;
        r_points = r.Recovery.points_run;
        r_mean_recovery_s = r.Recovery.mean_recovery_s;
        r_max_recovery_s = r.Recovery.max_recovery_s;
        r_replayed_lsns = r.Recovery.replayed_lsns;
        r_redone_ops = r.Recovery.redone_ops;
        r_squashed_subs = r.Recovery.squashed_subs;
      }
      :: !entries
  in
  if quick then begin
    leg "histogram" ~scale:0.05 ();
    leg "pbzip2" ~scale:0.02 ()
  end
  else begin
    leg "histogram" ~scale:0.1 ();
    leg "pbzip2" ~scale:0.05 ~sample:60 ()
  end;
  let entries = List.rev !entries in
  Format.fprintf ppf
    "=== Cold recovery per crash point (exhaustive/sampled sweep) ===@.";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-12s %4d pts  mean %8.1f us  max %8.1f us  %6d replayed  %4d \
         redone  %5d squashed@."
        r.r_leg r.r_points
        (1e6 *. r.r_mean_recovery_s)
        (1e6 *. r.r_max_recovery_s)
        r.r_replayed_lsns r.r_redone_ops r.r_squashed_subs)
    entries;
  Format.fprintf ppf "@.";
  entries

(* ------------------------------------------------------------------ *)
(* Static-analysis profile: full lint + race pass per workload         *)
(* ------------------------------------------------------------------ *)

(* The race pass dual-probes every Work body inside the abstract
   interpreter's sandbox, so its cost scales with probe fuel burned, not
   program text; this keeps the lockset analysis cheap enough to stay a
   pre-run default. One warm-up pass (lazy workload tables), then the
   median of three timed passes — host wall-clock is the thing being
   gated, and a median shrugs off one scheduler hiccup. *)
let lint_profile ~quick =
  let contexts = 8 in
  let scale = if quick then 0.05 else 0.1 in
  let entries =
    List.map
      (fun spec ->
        let program =
          spec.Workloads.Workload.build ~n_contexts:contexts
            ~grain:Workloads.Workload.Default ~scale
        in
        ignore (Lint.Race.program program);
        let sample () =
          let t0 = Unix.gettimeofday () in
          ignore (Lint.Race.program program);
          1000.0 *. (Unix.gettimeofday () -. t0)
        in
        let ms =
          match List.sort compare [ sample (); sample (); sample () ] with
          | [ _; med; _ ] -> med
          | _ -> assert false
        in
        {
          l_name = "lint:" ^ spec.Workloads.Workload.name;
          l_contexts = contexts;
          l_scale = scale;
          l_wall_ms = ms;
        })
      Workloads.Suite.all
  in
  Format.fprintf ppf "=== Static race/lint pass per workload (wall ms) ===@.";
  List.iter
    (fun l -> Format.fprintf ppf "%-36s %10.2f ms@." l.l_name l.l_wall_ms)
    entries;
  Format.fprintf ppf "@.";
  entries

(* ------------------------------------------------------------------ *)
(* Service mode: daemon round-trips, warm vs cold cache, open loop     *)
(* ------------------------------------------------------------------ *)

(* An in-process daemon on a temp Unix socket, driven through the same
   Server.Client module as `gprs_run client`, at the fig11 micro point
   (pbzip2, 4 contexts, scale 0.03, 60 faults/s). Three measurements:

   - cold: cache_clear before every request, so each pays decode +
     superblock compilation + lint admission (median of N round-trips);
   - warm: cache primed, so dispatch goes straight to execution — the
     leg runs with Vm.Block's process-wide analysis counter watched,
     and any recompile, or a warm median worse than half the cold one,
     aborts the bench (recording a broken cache would poison the
     baseline);
   - open-loop arrivals at a fixed rate against the warm cache, each
     with a distinct seed (distinct work units — coalescing cannot
     shortcut the measurement): sustained req/s and p50/p99 latency
     against scheduled arrival times.

   The daemon runs one pool job and no idle quiescing: latencies on the
   single shared worker are what a saturated single-core service shows,
   and a mid-leg teardown would charge respawn cost to one unlucky
   request. *)
let service_profile ~quick =
  let contexts = 4 and scale = 0.03 and rate = 60.0 in
  let n_cold = if quick then 5 else 10 in
  let n_warm = if quick then 20 else 50 in
  let n_open = if quick then 30 else 100 in
  let open_rps = 100.0 in
  let sock = Filename.temp_file "gprs-bench-" ".sock" in
  Sys.remove sock;
  let d =
    Server.Daemon.start
      {
        Server.Daemon.default_config with
        addr = Server.Daemon.Unix_sock sock;
        jobs = 1;
        idle_quiesce_ms = 0;
      }
  in
  Fun.protect ~finally:(fun () -> Server.Daemon.stop d) @@ fun () ->
  let c = Server.Client.connect (Server.Daemon.Unix_sock sock) in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
  let base =
    {
      Server.Scenario.id = "bench";
      workload = "pbzip2";
      engine = "gprs";
      ordering = "balance-aware";
      contexts;
      scale;
      grain = "default";
      seed = 1;
      rate;
      interval = 0.05;
      want_stats = false;
    }
  in
  let request tag i =
    let scn =
      {
        base with
        Server.Scenario.id = Printf.sprintf "%s%d" tag i;
        seed = 1 + i;
      }
    in
    let j, ms = Server.Client.timed_run c scn in
    (match Server.Json.str ~default:"" "event" j with
    | Ok "done" -> ()
    | _ ->
      failwith
        (Printf.sprintf "service bench: %s request failed: %s" tag
           (Server.Json.to_string j)));
    ms
  in
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let cold =
    Array.init n_cold (fun i ->
        Server.Client.cache_clear c;
        request "cold" i)
  in
  ignore (request "prime" 0);
  let analyses0 = Vm.Block.analyses () in
  let warm = Array.init n_warm (fun i -> request "warm" i) in
  let recompiles = Vm.Block.analyses () - analyses0 in
  let cold_ms = median cold and warm_ms = median warm in
  let speedup = if warm_ms > 0.0 then cold_ms /. warm_ms else 0.0 in
  if recompiles <> 0 then
    failwith
      (Printf.sprintf
         "service bench: %d superblock recompiles on the warm path \
          (cache must make dispatch skip decode+compile)"
         recompiles);
  if speedup < 2.0 then
    failwith
      (Printf.sprintf
         "service bench: warm/cold speedup %.2fx < 2x (warm %.2f ms, \
          cold %.2f ms)"
         speedup warm_ms cold_ms);
  let load =
    Server.Client.open_loop c
      ~base:{ base with Server.Scenario.seed = 10_000 }
      ~n:n_open ~rps:open_rps
  in
  if load.Server.Client.failed > 0 then
    failwith
      (Printf.sprintf "service bench: %d open-loop request(s) failed"
         load.Server.Client.failed);
  Format.fprintf ppf
    "=== Service mode (daemon, pbzip2 fig11 micro: %d contexts, scale %.2f) ===@."
    contexts scale;
  Format.fprintf ppf
    "cold %8.2f ms/req (cache cleared)   warm %8.2f ms/req   speedup \
     %.2fx   recompiles %d@."
    cold_ms warm_ms speedup recompiles;
  Format.fprintf ppf
    "open-loop %4.0f rps offered: %7.1f rps served  p50 %7.2f ms  p99 \
     %7.2f ms  (%d sent, %d failed)@.@."
    open_rps load.Server.Client.rps load.Server.Client.p50_ms
    load.Server.Client.p99_ms load.Server.Client.sent
    load.Server.Client.failed;
  [
    {
      s_name = "service:fig11-micro(pbzip2)";
      s_contexts = contexts;
      s_scale = scale;
      s_cold_ms = cold_ms;
      s_warm_ms = warm_ms;
      s_warm_speedup = speedup;
      s_warm_recompiles = recompiles;
      s_rps = load.Server.Client.rps;
      s_p50_ms = load.Server.Client.p50_ms;
      s_p99_ms = load.Server.Client.p99_ms;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Dispatch-mix profile (--profile)                                    *)
(* ------------------------------------------------------------------ *)

let prefixed ~prefix k =
  String.length k >= String.length prefix
  && String.sub k 0 (String.length prefix) = prefix

(* One representative workload per engine with {!Vm.Block} profiling on:
   per-instruction-kind dispatch counts plus the fused-hop-length
   histogram. Not timed — profiling counters perturb the dispatch loop. *)
let profile_mix ~quick =
  let n_contexts = 8 in
  let scale = if quick then 0.05 else 0.1 in
  let spec = Workloads.Suite.find "wordcount" in
  let build () =
    spec.Workloads.Workload.build ~n_contexts
      ~grain:Workloads.Workload.Default ~scale
  in
  Vm.Block.set_profiling true;
  let runs =
    [
      ( "pthreads",
        Exec.Baseline.run
          { Exec.Baseline.default_config with n_contexts }
          (build ()) );
      ( "cpr",
        Cpr.run
          { Cpr.default_config with n_contexts; checkpoint_interval = 0.005 }
          (build ()) );
      ("gprs", Gprs.Engine.run { Gprs.Engine.default_config with n_contexts } (build ()));
    ]
  in
  Vm.Block.set_profiling false;
  Format.fprintf ppf
    "=== Dispatch mix (wordcount, %d contexts, scale %.2f) ===@.@." n_contexts
    scale;
  List.concat_map
    (fun (engine, (r : Exec.State.run_result)) ->
      let assoc = Sim.Stats.to_assoc r.Exec.State.run_stats in
      let entries =
        List.filter
          (fun (k, _) ->
            prefixed ~prefix:"dispatch." k
            || prefixed ~prefix:"fuse." k
            || prefixed ~prefix:"pool." k
            || prefixed ~prefix:"compile." k)
          assoc
      in
      let dispatch = List.filter (fun (k, _) -> prefixed ~prefix:"dispatch." k) entries in
      let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 dispatch in
      let hops = try List.assoc "fuse.hops" entries with Not_found -> 0.0 in
      let instrs = float_of_int (Sim.Stats.get r.Exec.State.run_stats "instrs") in
      Format.fprintf ppf "%s (%.0f dispatches, %.0f hops, %.2f instrs/hop):@."
        engine total hops
        (if hops > 0.0 then instrs /. hops else 0.0);
      List.iter
        (fun (k, v) ->
          Format.fprintf ppf "  %-24s %12.0f  %5.1f%%@." k v
            (if total > 0.0 then 100.0 *. v /. total else 0.0))
        (List.sort (fun (_, a) (_, b) -> compare b a) dispatch);
      List.iter
        (fun (k, v) ->
          if
            prefixed ~prefix:"fuse.len." k
            || prefixed ~prefix:"pool." k
            || prefixed ~prefix:"compile." k
          then Format.fprintf ppf "  %-24s %12.0f@." k v)
        entries;
      Format.fprintf ppf "@.";
      List.map (fun (k, v) -> { p_engine = engine; p_key = k; p_value = v }) entries)
    runs

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks, one per table/figure             *)
(* ------------------------------------------------------------------ *)

let micro_cfg =
  {
    Analysis.Experiments.default_cfg with
    Analysis.Experiments.n_contexts = 4;
    scale = 0.03;
    dnc_factor = 25;
  }

let spec name = Workloads.Suite.find name

let t_table1 =
  Test.make ~name:"table1:analytic-model"
    (Staged.stage (fun () ->
         ignore (Analysis.Model.gprs_max_rate ~n:24 ~tr:0.5);
         ignore
           (Analysis.Model.cpr_checkpoint_penalty ~t:1.0 ~n:24 ~tc:0.001 ~ts:0.002)))

let t_table2 =
  Test.make ~name:"table2:gprs-run(re)"
    (Staged.stage (fun () ->
         ignore
           (Analysis.Experiments.run_gprs micro_cfg (spec "re")
              ~grain:Workloads.Workload.Default)))

let t_fig8a =
  Test.make ~name:"fig8a:overheads(wordcount)"
    (Staged.stage (fun () ->
         ignore
           (Analysis.Experiments.run_gprs micro_cfg (spec "wordcount")
              ~grain:Workloads.Workload.Default);
         ignore
           (Analysis.Experiments.run_cpr micro_cfg (spec "wordcount")
              ~grain:Workloads.Workload.Default)))

let t_fig8b =
  Test.make ~name:"fig8b:fine-grain(canneal)"
    (Staged.stage (fun () ->
         ignore
           (Analysis.Experiments.run_gprs micro_cfg (spec "canneal")
              ~grain:Workloads.Workload.Fine)))

let t_fig9 =
  Test.make ~name:"fig9:oversubscription(swaptions)"
    (Staged.stage (fun () ->
         ignore
           (Analysis.Experiments.run_pthreads micro_cfg (spec "swaptions")
              ~grain:Workloads.Workload.Fine);
         ignore
           (Analysis.Experiments.run_gprs micro_cfg (spec "swaptions")
              ~grain:Workloads.Workload.Fine)))

let t_fig10 =
  Test.make ~name:"fig10:recovery(histogram,faults)"
    (Staged.stage (fun () ->
         ignore
           (Analysis.Experiments.run_gprs ~rate:100.0 micro_cfg (spec "histogram")
              ~grain:Workloads.Workload.Default)))

let t_fig11 =
  Test.make ~name:"fig11:tipping(pbzip2,faults)"
    (Staged.stage (fun () ->
         ignore
           (Analysis.Experiments.run_gprs ~rate:60.0 micro_cfg (spec "pbzip2")
              ~grain:Workloads.Workload.Default)))

let t_cpr_snapshot =
  Test.make ~name:"cpr:dirty-page-ckpt(re,faults)"
    (Staged.stage (fun () ->
         ignore
           (Analysis.Experiments.run_cpr ~rate:40.0 micro_cfg (spec "re")
              ~grain:Workloads.Workload.Default)))

let tests =
  [
    t_table1; t_table2; t_fig8a; t_fig8b; t_fig9; t_fig10; t_fig11;
    t_cpr_snapshot;
  ]

let run_micro ~quick =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if quick then Benchmark.cfg ~limit:20 ~quota:(Time.second 0.5) ~stabilize:true ()
    else Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~stabilize:true ()
  in
  Format.fprintf ppf "=== Bechamel micro-benchmarks (one per table/figure) ===@.";
  let entries = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols (List.hd instances) results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Format.fprintf ppf "%-36s %12.0f ns/run@." name est;
            entries := { m_name = name; m_ns_per_run = est } :: !entries
          | Some _ | None -> Format.fprintf ppf "%-36s (no estimate)@." name)
        analyzed)
    tests;
  Format.fprintf ppf "@.";
  List.rev !entries

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path ~quick ~jobs ~experiments ~alloc ~recovery ~lints ~micro
    ~service ~profile =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": 1,\n";
  p "  \"quick\": %b,\n" quick;
  p "  \"jobs\": %d,\n" jobs;
  p "  \"fault_points_armed\": %d,\n" (Faults.Points.armed_count ());
  p "  \"experiments\": [\n";
  List.iteri
    (fun i e ->
      p "    {\"name\": \"%s\", \"contexts\": %d, \"scale\": %.4f, \"wall_s\": %.6f}%s\n"
        (json_escape e.e_name) e.e_contexts e.e_scale e.e_wall_s
        (if i = List.length experiments - 1 then "" else ","))
    experiments;
  p "  ],\n";
  p "  \"alloc\": [\n";
  List.iteri
    (fun i a ->
      p
        "    {\"name\": \"%s\", \"contexts\": %d, \"scale\": %.4f, \
         \"minor_words\": %.0f, \"promoted_words\": %.0f}%s\n"
        (json_escape a.a_name) a.a_contexts a.a_scale a.a_minor_words
        a.a_promoted_words
        (if i = List.length alloc - 1 then "" else ","))
    alloc;
  p "  ],\n";
  p "  \"recovery\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"leg\": \"%s\", \"contexts\": %d, \"scale\": %.4f, \
         \"points\": %d, \"mean_recovery_s\": %.9f, \"max_recovery_s\": \
         %.9f, \"replayed_lsns\": %d, \"redone_ops\": %d, \
         \"squashed_subs\": %d}%s\n"
        (json_escape r.r_leg) r.r_contexts r.r_scale r.r_points
        r.r_mean_recovery_s r.r_max_recovery_s r.r_replayed_lsns
        r.r_redone_ops r.r_squashed_subs
        (if i = List.length recovery - 1 then "" else ","))
    recovery;
  p "  ],\n";
  p "  \"lint\": [\n";
  List.iteri
    (fun i l ->
      p "    {\"name\": \"%s\", \"contexts\": %d, \"scale\": %.4f, \"wall_ms\": %.3f}%s\n"
        (json_escape l.l_name) l.l_contexts l.l_scale l.l_wall_ms
        (if i = List.length lints - 1 then "" else ","))
    lints;
  p "  ],\n";
  p "  \"service\": [\n";
  List.iteri
    (fun i (s : service_entry) ->
      p
        "    {\"name\": \"%s\", \"contexts\": %d, \"scale\": %.4f, \
         \"cold_ms\": %.3f, \"warm_ms\": %.3f, \"warm_speedup\": %.3f, \
         \"warm_recompiles\": %d, \"rps\": %.2f, \"p50_ms\": %.3f, \
         \"p99_ms\": %.3f}%s\n"
        (json_escape s.s_name) s.s_contexts s.s_scale s.s_cold_ms s.s_warm_ms
        s.s_warm_speedup s.s_warm_recompiles s.s_rps s.s_p50_ms s.s_p99_ms
        (if i = List.length service - 1 then "" else ","))
    service;
  p "  ],\n";
  p "  \"micro\": [\n";
  List.iteri
    (fun i m ->
      p "    {\"name\": \"%s\", \"ns_per_run\": %.1f}%s\n" (json_escape m.m_name)
        m.m_ns_per_run
        (if i = List.length micro - 1 then "" else ","))
    micro;
  p "  ],\n";
  p "  \"profile\": [\n";
  List.iteri
    (fun i e ->
      p "    {\"engine\": \"%s\", \"key\": \"%s\", \"value\": %.1f}%s\n"
        (json_escape e.p_engine) (json_escape e.p_key) e.p_value
        (if i = List.length profile - 1 then "" else ","))
    profile;
  p "  ]\n";
  p "}\n";
  close_out oc;
  Format.fprintf ppf "wrote %s@." path

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

let main json jobs quick profile service_only =
  (* Benchmarks gate regressions; an armed fault point (GPRS_FAULT_POINTS
     leaks here too) perturbs every number, so refuse to measure rather
     than commit a poisoned baseline. The armed count is also written to
     the JSON for compare.py to re-assert. *)
  if Faults.Points.armed_count () > 0 then begin
    Format.eprintf
      "bench: %d fault point(s) armed (GPRS_FAULT_POINTS?); refusing to \
       measure a perturbed run@."
      (Faults.Points.armed_count ());
    Stdlib.exit 2
  end;
  let jobs =
    if jobs = 0 then Analysis.Pool.available_jobs () else Stdlib.max 1 jobs
  in
  if service_only then begin
    let service = service_profile ~quick in
    match json with
    | Some path ->
      write_json path ~quick ~jobs ~experiments:[] ~alloc:[] ~recovery:[]
        ~lints:[] ~micro:[] ~service ~profile:[]
    | None -> ()
  end
  else begin
    let experiments = print_experiments ~jobs ~quick in
    let alloc = alloc_profile ~quick in
    let recovery = recovery_profile ~quick in
    let lints = lint_profile ~quick in
    let service = service_profile ~quick in
    let prof = if profile then profile_mix ~quick else [] in
    let micro = run_micro ~quick in
    match json with
    | Some path ->
      write_json path ~quick ~jobs ~experiments ~alloc ~recovery ~lints ~micro
        ~service ~profile:prof
    | None -> ()
  end

open Cmdliner

let json =
  let doc = "Write per-experiment wall-clock and micro ns/run numbers to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let jobs =
  let doc =
    "Worker domains for the part-1 experiment drivers; 0 means one per \
     recommended core. Experiment rows are bit-identical for any value."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc)

let quick =
  let doc =
    "Micro-scale smoke run: smaller part-1 inputs, shorter part-2 quota. \
     Used by the CI bench job."
  in
  Arg.(value & flag & info [ "quick" ] ~doc)

let profile =
  let doc =
    "Also run the dispatch-mix profiler: per-instruction-kind dispatch \
     counts and the fused-hop-length histogram, per engine (included in \
     the $(b,--json) output's \"profile\" section)."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let service_only =
  let doc =
    "Run only the service-mode section (daemon warm/cold round-trips and \
     open-loop load); the CI service-smoke job's fast gate."
  in
  Arg.(value & flag & info [ "service-only" ] ~doc)

let cmd =
  let doc = "GPRS benchmark harness (paper evaluation + micro-benchmarks)" in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const main $ json $ jobs $ quick $ profile $ service_only)

let () = Stdlib.exit (Cmd.eval cmd)
