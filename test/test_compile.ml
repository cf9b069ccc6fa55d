(* Trace compilation must be a pure performance transformation: every
   observable of a run — output digest, simulated cycles, DNC flag, and
   every statistic except the profiling counters themselves — must be
   bit-identical with compilation on and off, for all three engines,
   under faults, checkpoints, recovery, whole-runtime crashes and
   restart. Directed tests additionally pin down the two deopt paths
   (mispredicted guard, horizon inside a trace) actually firing. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let n_contexts = 4
let scale = 0.08

let build (spec : Workloads.Workload.spec) =
  spec.Workloads.Workload.build ~n_contexts ~grain:Workloads.Workload.Default
    ~scale

(* Everything observable about a run. Profiling keys ("dispatch.*",
   "fuse.*", "compile.*") are the one legitimate difference between the
   legs. *)
type obs = {
  o_digest : string;
  o_cycles : int;
  o_dnc : bool;
  o_stats : (string * float) list;
}

let prefixed ~prefix k =
  String.length k >= String.length prefix
  && String.sub k 0 (String.length prefix) = prefix

let observe digest (r : Exec.State.run_result) =
  {
    o_digest = digest r;
    o_cycles = r.Exec.State.sim_cycles;
    o_dnc = r.Exec.State.dnc;
    o_stats =
      List.filter
        (fun (k, _) ->
          (not (prefixed ~prefix:"fuse." k))
          && (not (prefixed ~prefix:"dispatch." k))
          && not (prefixed ~prefix:"compile." k))
        (Sim.Stats.to_assoc r.Exec.State.run_stats);
  }

let with_compiling b f =
  let saved = Vm.Block.compiling () in
  Vm.Block.set_compiling b;
  Fun.protect ~finally:(fun () -> Vm.Block.set_compiling saved) f

let with_profiling f =
  Vm.Block.set_profiling true;
  Fun.protect ~finally:(fun () -> Vm.Block.set_profiling false) f

(* The directed deopt tests assert that traces are entered, which needs
   fused dispatch on (compilation rides on it) even when the suite runs
   under GPRS_NO_FUSE=1. *)
let with_fusing_on f =
  let saved = Vm.Block.fusing () in
  Vm.Block.set_fusing true;
  Fun.protect ~finally:(fun () -> Vm.Block.set_fusing saved) f

(* Run [f] once per leg (fusion stays on in both — compilation rides on
   top of the fused dispatch); [f] must build its own program so each
   leg gets fresh mutable memory. *)
let both_legs f = (with_compiling true f, with_compiling false f)

let explain_stats_diff a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) b.o_stats;
  let diffs =
    List.filter_map
      (fun (k, v) ->
        match Hashtbl.find_opt tbl k with
        | Some v' when v = v' -> None
        | Some v' -> Some (Printf.sprintf "%s: compiled=%g interp=%g" k v v')
        | None -> Some (Printf.sprintf "%s: compiled=%g interp=absent" k v))
      a.o_stats
  in
  let missing =
    List.filter_map
      (fun (k, v) ->
        if List.mem_assoc k a.o_stats then None
        else Some (Printf.sprintf "%s: compiled=absent interp=%g" k v))
      b.o_stats
  in
  String.concat "; " (diffs @ missing)

let check_identical name (compiled, interp) =
  checks (name ^ ": digest") interp.o_digest compiled.o_digest;
  Alcotest.(check int) (name ^ ": sim_cycles") interp.o_cycles compiled.o_cycles;
  checkb (name ^ ": dnc") interp.o_dnc compiled.o_dnc;
  if compiled.o_stats <> interp.o_stats then
    Alcotest.failf "%s: stats differ — %s" name
      (explain_stats_diff compiled interp)

(* Same fault-tolerance tuning as test_integration / test_fusion. *)
let gprs_k = function
  | "blackscholes" | "swaptions" | "barnes-hut" -> 1.2
  | "canneal" -> 3.0
  | _ -> 6.0

let rate_for ?cap ~k ~base () =
  let base_s =
    Sim.Time.to_seconds
      ~cycles_per_second:Vm.Costs.default.Vm.Costs.cycles_per_second base
  in
  let r = k /. base_s in
  match cap with Some c -> Float.min c r | None -> r

let baseline_cycles spec =
  (Exec.Baseline.run
     { Exec.Baseline.default_config with n_contexts }
     (build spec))
    .Exec.State.sim_cycles

(* A compute-bound program whose hot path compiles into a looping
   superblock: workers run [iters] outer iterations of an [inner]-long
   loop of two fused steps, then publish their private count through an
   atomic. The inner loop is one closure cycle; its exit branch
   mispredicts once per outer iteration. *)
let compute_loop ?(cost = 400) ~workers ~iters ~inner () =
  let open Vm.Builder in
  let worker = proc "worker" in
  for_up worker ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      for_up worker ~reg:2 ~from:(fun _ -> 0) ~until:(fun _ -> inner) (fun () ->
          work_const worker cost (fun env ->
              Vm.Env.set env 3 (Vm.Env.get env 3 + 1));
          compute worker (cost / 2)));
  atomic worker ~var:(fun _ -> 0) ~dst:4 (fun ~old r -> old + r.(3));
  exit_ worker;
  let main = proc "main" in
  for i = 0 to workers - 1 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [||])
  done;
  for i = 0 to workers - 1 do
    join_reg main (10 + i)
  done;
  atomic main ~var:(fun _ -> 0) ~dst:3 (fun ~old _ -> old);
  work_const main 1 (fun env -> env.Vm.Env.write 0 (Vm.Env.get env 3));
  exit_ main;
  program ~mem_words:64 ~n_atomics:1 ~n_groups:2 ~entry:"main"
    [ finish main; finish worker ]

let mem_digest (r : Exec.State.run_result) =
  string_of_int (Vm.Mem.read r.Exec.State.final_mem 0)

(* --- all workloads, all three engines -------------------------------- *)

let test_baseline_all_workloads () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let digest = spec.Workloads.Workload.digest in
      let legs =
        both_legs (fun () ->
            observe digest
              (Exec.Baseline.run
                 { Exec.Baseline.default_config with n_contexts }
                 (build spec)))
      in
      check_identical ("baseline/" ^ spec.Workloads.Workload.name) legs)
    Workloads.Suite.all

let test_gprs_all_workloads_with_faults () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let name = spec.Workloads.Workload.name in
      let base = baseline_cycles spec in
      let legs =
        both_legs (fun () ->
            observe spec.Workloads.Workload.digest
              (Gprs.Engine.run
                 {
                   Gprs.Engine.default_config with
                   n_contexts;
                   injector =
                     Faults.Injector.config (rate_for ~k:(gprs_k name) ~base ());
                   max_cycles = Some (300 * base);
                 }
                 (build spec)))
      in
      check_identical ("gprs/" ^ name) legs)
    Workloads.Suite.all

let test_cpr_all_workloads_with_faults () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let name = spec.Workloads.Workload.name in
      let base = baseline_cycles spec in
      let legs =
        both_legs (fun () ->
            observe spec.Workloads.Workload.digest
              (Cpr.run
                 {
                   Cpr.default_config with
                   n_contexts;
                   checkpoint_interval = 0.002;
                   injector =
                     Faults.Injector.config (rate_for ~cap:25.0 ~k:2.0 ~base ());
                   max_cycles = Some (300 * base);
                 }
                 (build spec)))
      in
      check_identical ("cpr/" ^ name) legs)
    Workloads.Suite.all

(* --- crash-restart: cold recovery under both legs --------------------- *)

(* The WAL crash sweep replays every crash point and compares each
   recovered digest against the fault-free run; compiled and interpreted
   legs must both pass it and enumerate the same crash points (the WAL
   itself is an observable). *)
let test_crash_sweep_both_legs () =
  let spec = Workloads.Suite.find "histogram" in
  let program =
    spec.Workloads.Workload.build ~n_contexts ~grain:Workloads.Workload.Default
      ~scale:0.05
  in
  let sweep leg =
    Recovery.sweep_gprs ~leg
      ~cfg:{ Gprs.Engine.default_config with n_contexts; seed = 3 }
      ~digest:spec.Workloads.Workload.digest program
  in
  let compiled = with_compiling true (fun () -> sweep "compiled") in
  let interp = with_compiling false (fun () -> sweep "interp") in
  checkb
    (Format.asprintf "%a" Recovery.pp_report compiled)
    true (Recovery.leg_ok compiled);
  checkb
    (Format.asprintf "%a" Recovery.pp_report interp)
    true (Recovery.leg_ok interp);
  Alcotest.(check int)
    "same crash points" interp.Recovery.points_total
    compiled.Recovery.points_total;
  checkb "points enumerated" true (compiled.Recovery.points_total > 0)

(* --- directed: a mispredicted branch guard must deopt ------------------ *)

let test_guard_deopt () =
  let run () =
    Exec.Baseline.run
      { Exec.Baseline.default_config with n_contexts }
      (compute_loop ~workers:2 ~iters:6 ~inner:40 ())
  in
  with_fusing_on @@ fun () ->
  with_profiling (fun () ->
      let compiled_raw = with_compiling true run in
      let compiled = observe mem_digest compiled_raw in
      let interp = observe mem_digest (with_compiling false run) in
      checks "counter value" "480" compiled.o_digest;
      let stat k = Sim.Stats.get compiled_raw.Exec.State.run_stats k in
      checkb "traces were entered" true (stat "compile.entries" > 0);
      checkb "loop exits mispredicted" true (stat "compile.deopt.guard" > 0);
      check_identical "guard deopt" (compiled, interp))

(* --- directed: a horizon landing mid-trace must deopt ------------------ *)

(* Under CPR the hop horizon includes the checkpoint alarm; an interval
   far shorter than the workers' compiled loops forces the alarm to land
   strictly inside traces, so the hoisted per-hop bound (not a lucky
   trace end) is what keeps the legs identical. *)
let test_horizon_deopt () =
  let run () =
    Cpr.run
      { Cpr.default_config with n_contexts; checkpoint_interval = 0.0005 }
      (compute_loop ~cost:2_000 ~workers:2 ~iters:4 ~inner:300 ())
  in
  with_fusing_on @@ fun () ->
  with_profiling (fun () ->
      let compiled_raw = with_compiling true run in
      let compiled = observe mem_digest compiled_raw in
      let interp = observe mem_digest (with_compiling false run) in
      checks "counter value" "2400" compiled.o_digest;
      let stat k = Sim.Stats.get compiled_raw.Exec.State.run_stats k in
      checkb "traces were entered" true (stat "compile.entries" > 0);
      checkb "horizon landed mid-trace" true
        (stat "compile.deopt.horizon" > 0);
      checkb "checkpoints actually fired" true
        (stat "cpr.checkpoints" > 0);
      check_identical "horizon deopt" (compiled, interp))

(* --- property: random compiled loops under faults ---------------------- *)

let qcase ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let obs_equal a b =
  a.o_digest = b.o_digest && a.o_cycles = b.o_cycles && a.o_dnc = b.o_dnc
  && a.o_stats = b.o_stats

let prop_compile_invisible =
  qcase "gprs: compiled ≡ interpreted on random compute loops"
    QCheck2.Gen.(
      quad (int_range 2 4) (int_range 2 8) (int_range 5 60)
        (int_range 1 10_000))
    (fun (workers, iters, inner, seed) ->
      let run () =
        observe mem_digest
          (Gprs.Engine.run
             {
               Gprs.Engine.default_config with
               n_contexts;
               seed;
               injector =
                 Faults.Injector.config ~seed ~process:Faults.Injector.Poisson
                   300.0;
               max_cycles = Some 2_000_000_000;
             }
             (compute_loop ~workers ~iters ~inner ()))
      in
      let compiled, interp = both_legs run in
      obs_equal compiled interp)

let suite =
  [
    Alcotest.test_case "baseline: all workloads bit-identical" `Slow
      test_baseline_all_workloads;
    Alcotest.test_case "gprs: all workloads + faults bit-identical" `Slow
      test_gprs_all_workloads_with_faults;
    Alcotest.test_case "cpr: all workloads + faults bit-identical" `Slow
      test_cpr_all_workloads_with_faults;
    Alcotest.test_case "gprs: crash sweep bit-identical" `Slow
      test_crash_sweep_both_legs;
    Alcotest.test_case "guard deopt: mispredicted loop exit" `Quick
      test_guard_deopt;
    Alcotest.test_case "horizon deopt: checkpoint alarm mid-trace" `Quick
      test_horizon_deopt;
    prop_compile_invisible;
  ]
