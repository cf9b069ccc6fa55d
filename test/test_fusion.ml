(* Fused dispatch must be a pure performance transformation: every
   observable of a run — output digest, simulated cycles, DNC flag, and
   every statistic except the profiling counters themselves — must be
   bit-identical with fusion on and off, for all three engines, under
   faults, checkpoints, recovery, and restart. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let n_contexts = 4
let scale = 0.08

let build (spec : Workloads.Workload.spec) =
  spec.Workloads.Workload.build ~n_contexts ~grain:Workloads.Workload.Default
    ~scale

(* Everything observable about a run. Profiling keys ("dispatch.*",
   "fuse.*") are the one legitimate difference between the legs. *)
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
          && not (prefixed ~prefix:"dispatch." k))
        (Sim.Stats.to_assoc r.Exec.State.run_stats);
  }

let with_fusing b f =
  let saved = Vm.Block.fusing () in
  Vm.Block.set_fusing b;
  Fun.protect ~finally:(fun () -> Vm.Block.set_fusing saved) f

(* Run [f] once per leg; [f] must build its own program (fused-block
   analysis is done at State.create, but more importantly each leg needs
   fresh mutable memory). *)
let both_legs f =
  (with_fusing true f, with_fusing false f)

let explain_stats_diff a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) b.o_stats;
  let diffs =
    List.filter_map
      (fun (k, v) ->
        match Hashtbl.find_opt tbl k with
        | Some v' when v = v' -> None
        | Some v' -> Some (Printf.sprintf "%s: fused=%g unfused=%g" k v v')
        | None -> Some (Printf.sprintf "%s: fused=%g unfused=absent" k v))
      a.o_stats
  in
  let missing =
    List.filter_map
      (fun (k, v) ->
        if List.mem_assoc k a.o_stats then None
        else Some (Printf.sprintf "%s: fused=absent unfused=%g" k v))
      b.o_stats
  in
  String.concat "; " (diffs @ missing)

let check_identical name (fused, unfused) =
  checks (name ^ ": digest") unfused.o_digest fused.o_digest;
  Alcotest.(check int) (name ^ ": sim_cycles") unfused.o_cycles fused.o_cycles;
  checkb (name ^ ": dnc") unfused.o_dnc fused.o_dnc;
  if fused.o_stats <> unfused.o_stats then
    Alcotest.failf "%s: stats differ — %s" name
      (explain_stats_diff fused unfused)

(* Same fault-tolerance tuning as test_integration. *)
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

(* --- directed: a fault report landing mid-chain must deopt ------------ *)

(* Long straight-line Work runs under a tiny detection latency: report
   times land strictly inside would-be fused chains, so the horizon check
   (not a lucky boundary) is what keeps the legs identical. The fused leg
   must still actually fuse (hops < instrs). *)
let test_gprs_mid_block_fault_deopt () =
  let mem_digest (r : Exec.State.run_result) =
    string_of_int (Vm.Mem.read r.Exec.State.final_mem 0)
  in
  let run () =
    Gprs.Engine.run
      {
        Gprs.Engine.default_config with
        n_contexts;
        injector =
          Faults.Injector.config ~detection_latency:1_500
            ~process:Faults.Injector.Poisson 2_000.0;
        max_cycles = Some 2_000_000_000;
      }
      (Tprog.locked_counter ~work:800 ~workers:4 ~iters:30 ())
  in
  let fused_raw = with_fusing true run in
  let fused = observe mem_digest fused_raw in
  let unfused = observe mem_digest (with_fusing false run) in
  checkb "run completed" false fused.o_dnc;
  checks "counter value" "120" fused.o_digest;
  checkb "faults were injected" true
    (Sim.Stats.get fused_raw.Exec.State.run_stats "gprs.exceptions" > 0);
  checkb "fused leg actually fused" true
    (Sim.Stats.get fused_raw.Exec.State.run_stats "fuse.hops"
    < Sim.Stats.get fused_raw.Exec.State.run_stats "instrs");
  check_identical "gprs mid-block fault" (fused, unfused)

(* --- directed: CPR restart must resume execution mid-block ------------ *)

(* After a rollback every thread restarts from its snapshot pc, which is
   usually in the middle of a static block; the restarted run then fuses
   again from that interior pc. Rollbacks are forced by a fault rate the
   checkpoint interval comfortably outpaces. *)
let test_cpr_restart_resumes_into_block () =
  let mem_digest (r : Exec.State.run_result) =
    string_of_int (Vm.Mem.read r.Exec.State.final_mem 0)
  in
  let run () =
    Cpr.run
      {
        Cpr.default_config with
        n_contexts;
        seed = 7;
        checkpoint_interval = 0.005;
        injector = Faults.Injector.config ~seed:7 25.0;
        max_cycles = Some 2_000_000_000;
      }
      (Tprog.locked_counter ~work:20_000 ~workers:3 ~iters:8 ())
  in
  let fused_raw = with_fusing true run in
  let fused = observe mem_digest fused_raw in
  let unfused = observe mem_digest (with_fusing false run) in
  checkb "run completed" false fused.o_dnc;
  checks "counter value" "24" fused.o_digest;
  checkb "rollbacks happened" true
    (Sim.Stats.get fused_raw.Exec.State.run_stats "cpr.rollbacks" > 0);
  check_identical "cpr restart-resume" (fused, unfused)

let test_gprs_basic_recovery () =
  let spec = Workloads.Suite.find "histogram" in
  let base = baseline_cycles spec in
  let legs =
    both_legs (fun () ->
        observe spec.Workloads.Workload.digest
          (Gprs.Engine.run
             {
               Gprs.Engine.default_config with
               n_contexts;
               recovery = Gprs.Engine.Basic;
               injector = Faults.Injector.config (rate_for ~k:5.0 ~base ());
               max_cycles = Some (300 * base);
             }
             (build spec)))
  in
  check_identical "gprs basic recovery" legs

(* --- property: random programs, random rates, both recovery engines --- *)

let qcase ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let obs_equal a b =
  a.o_digest = b.o_digest && a.o_cycles = b.o_cycles && a.o_dnc = b.o_dnc
  && a.o_stats = b.o_stats

let prop_gprs_fusion_invisible =
  qcase "gprs: fused ≡ unfused on random locked counters"
    QCheck2.Gen.(
      quad (int_range 2 5) (int_range 4 14) (int_range 1 10_000)
        (int_range 1 6))
    (fun (workers, iters, seed, rate10) ->
      let run () =
        observe
          (fun r -> string_of_int (Vm.Mem.read r.Exec.State.final_mem 0))
          (Gprs.Engine.run
             {
               Gprs.Engine.default_config with
               n_contexts;
               seed;
               injector =
                 Faults.Injector.config ~seed ~process:Faults.Injector.Poisson
                   (float_of_int rate10 *. 10.0);
               max_cycles = Some 2_000_000_000;
             }
             (Tprog.locked_counter ~work:20_000 ~workers ~iters ()))
      in
      let fused, unfused = both_legs run in
      obs_equal fused unfused)

let prop_cpr_fusion_invisible =
  qcase ~count:10 "cpr: fused ≡ unfused on random locked counters"
    QCheck2.Gen.(triple (int_range 2 4) (int_range 4 10) (int_range 1 10_000))
    (fun (workers, iters, seed) ->
      let run () =
        observe
          (fun r -> string_of_int (Vm.Mem.read r.Exec.State.final_mem 0))
          (Cpr.run
             {
               Cpr.default_config with
               n_contexts;
               seed;
               checkpoint_interval = 0.01;
               injector = Faults.Injector.config ~seed 15.0;
               max_cycles = Some 2_000_000_000;
             }
             (Tprog.locked_counter ~work:20_000 ~workers ~iters ()))
      in
      let fused, unfused = both_legs run in
      obs_equal fused unfused)

let suite =
  [
    Alcotest.test_case "baseline: all workloads bit-identical" `Slow
      test_baseline_all_workloads;
    Alcotest.test_case "gprs: all workloads + faults bit-identical" `Slow
      test_gprs_all_workloads_with_faults;
    Alcotest.test_case "cpr: all workloads + faults bit-identical" `Slow
      test_cpr_all_workloads_with_faults;
    Alcotest.test_case "gprs: mid-block fault report deopts" `Quick
      test_gprs_mid_block_fault_deopt;
    Alcotest.test_case "cpr: restart resumes into a block" `Quick
      test_cpr_restart_resumes_into_block;
    Alcotest.test_case "gprs: basic recovery bit-identical" `Slow
      test_gprs_basic_recovery;
    prop_gprs_fusion_invisible;
    prop_cpr_fusion_invisible;
  ]
