(* End-to-end integration: the central oracle of the reproduction.

   For every workload, the digest of a GPRS execution under injected
   global exceptions must equal the digest of an exception-free Pthreads
   execution — globally precise restart means the program behaves "as if
   an exception never occurred" (paper §1). The same holds for CPR at
   rates it survives. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let n_contexts = 4
let scale = 0.08

let build (spec : Workloads.Workload.spec) =
  spec.Workloads.Workload.build ~n_contexts ~grain:Workloads.Workload.Default ~scale

let reference spec =
  let r = Exec.Baseline.run { Exec.Baseline.default_config with n_contexts } (build spec) in
  (spec.Workloads.Workload.digest r, r.Exec.State.sim_cycles)

(* Expected exceptions per fault-free run length. Chunky fork/join
   workloads (whole-run sub-threads at default grain) only tolerate ~1-2
   strikes per run — the paper's own tipping analysis (e <= n/tr);
   fine-grained ones absorb several. *)
let gprs_k name =
  match name with
  | "blackscholes" | "swaptions" | "barnes-hut" -> 1.2
  | "canneal" -> 3.0
  | _ -> 6.0

let cpr_k _ = 2.0

let rate_for ?cap ~k ~base () =
  let base_s =
    Sim.Time.to_seconds
      ~cycles_per_second:Vm.Costs.default.Vm.Costs.cycles_per_second base
  in
  let r = k /. base_s in
  match cap with Some c -> Float.min c r | None -> r

let test_gprs_all_workloads_with_faults () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let name = spec.Workloads.Workload.name in
      let d_ref, base = reference spec in
      let r =
        Gprs.Engine.run
          {
            Gprs.Engine.default_config with
            n_contexts;
            injector = Faults.Injector.config (rate_for ~k:(gprs_k name) ~base ());
            max_cycles = Some (300 * base);
          }
          (build spec)
      in
      checkb (name ^ " completed") false r.Exec.State.dnc;
      checks (name ^ " digest") d_ref (spec.Workloads.Workload.digest r))
    Workloads.Suite.all

let test_cpr_all_workloads_with_faults () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let name = spec.Workloads.Workload.name in
      let d_ref, base = reference spec in
      let r =
        Cpr.run
          {
            Cpr.default_config with
            n_contexts;
            checkpoint_interval = 0.002;
            injector = Faults.Injector.config (rate_for ~cap:25.0 ~k:(cpr_k name) ~base ());
            max_cycles = Some (300 * base);
          }
          (build spec)
      in
      checkb (name ^ " completed") false r.Exec.State.dnc;
      checks (name ^ " digest") d_ref (spec.Workloads.Workload.digest r))
    Workloads.Suite.all

let test_gprs_poisson_and_seeds () =
  (* Exception timing must not matter: several seeds, Poisson arrivals. *)
  let spec = Workloads.Suite.find "pbzip2" in
  let d_ref, base = reference spec in
  List.iter
    (fun seed ->
      let r =
        Gprs.Engine.run
          {
            Gprs.Engine.default_config with
            n_contexts;
            seed;
            injector =
              Faults.Injector.config ~seed ~process:Faults.Injector.Poisson
                (rate_for ~k:4.0 ~base ());
            max_cycles = Some (300 * base);
          }
          (build spec)
      in
      checkb (Printf.sprintf "seed %d completed" seed) false r.Exec.State.dnc;
      checks
        (Printf.sprintf "seed %d digest" seed)
        d_ref
        (spec.Workloads.Workload.digest r))
    [ 2; 17; 4711 ]

let test_gprs_orderings_with_faults () =
  let spec = Workloads.Suite.find "dedup" in
  let d_ref, base = reference spec in
  List.iter
    (fun ordering ->
      let r =
        Gprs.Engine.run
          {
            Gprs.Engine.default_config with
            n_contexts;
            ordering;
            injector = Faults.Injector.config (rate_for ~k:4.0 ~base ());
            max_cycles = Some (300 * base);
          }
          (build spec)
      in
      checkb "completed" false r.Exec.State.dnc;
      checks "digest" d_ref (spec.Workloads.Workload.digest r))
    [ Gprs.Order.Round_robin; Gprs.Order.Balance_aware; Gprs.Order.Weighted ]

let test_balance_aware_beats_round_robin_on_pipelines () =
  (* The paper's §3.2 claim, on our Pbzip2. *)
  let spec = Workloads.Suite.find "pbzip2" in
  let t ordering =
    (Gprs.Engine.run
       { Gprs.Engine.default_config with n_contexts = 8; ordering }
       (spec.Workloads.Workload.build ~n_contexts:8
          ~grain:Workloads.Workload.Default ~scale:0.2))
      .Exec.State.sim_cycles
  in
  let rr = t Gprs.Order.Round_robin and ba = t Gprs.Order.Balance_aware in
  checkb (Printf.sprintf "ba faster than rr (%d vs %d)" ba rr) true (ba < rr)

let test_basic_recovery_workload () =
  let spec = Workloads.Suite.find "histogram" in
  let d_ref, base = reference spec in
  let r =
    Gprs.Engine.run
      {
        Gprs.Engine.default_config with
        n_contexts;
        recovery = Gprs.Engine.Basic;
        injector = Faults.Injector.config (rate_for ~k:5.0 ~base ());
        max_cycles = Some (300 * base);
      }
      (build spec)
  in
  checkb "completed" false r.Exec.State.dnc;
  checks "digest" d_ref (spec.Workloads.Workload.digest r)

(* --- simulated-results golden ------------------------------------------ *)

(* Digest, simulated cycles and the full stats bag of every workload under
   every engine, fault-free and at 60 exceptions/s, at 8 contexts and
   scale 0.2 — configured exactly as [gprs_run run -n 8 --scale 0.2
   --rate R --stats] configures it. Every simulated result of the
   reproduction is pinned here: a change that is meant to alter one must
   regenerate the fixture deliberately. *)
let sim_golden_lines () =
  let n_contexts = 8 and seed = 1 in
  let run engine rate program =
    match engine with
    | "pthreads" ->
      Exec.Baseline.run
        { Exec.Baseline.default_config with n_contexts; seed }
        program
    | "cpr" ->
      Cpr.run
        {
          Cpr.default_config with
          n_contexts;
          seed;
          checkpoint_interval = 0.05;
          injector = Faults.Injector.config ~seed rate;
        }
        program
    | _ ->
      Gprs.Engine.run ~lint:`Off
        {
          Gprs.Engine.default_config with
          n_contexts;
          seed;
          injector = Faults.Injector.config ~seed rate;
        }
        program
  in
  List.concat_map
    (fun (spec : Workloads.Workload.spec) ->
      let program =
        spec.Workloads.Workload.build ~n_contexts
          ~grain:Workloads.Workload.Default ~scale:0.2
      in
      List.concat_map
        (fun engine ->
          List.concat_map
            (fun rate ->
              let r = run engine rate program in
              Printf.sprintf "== %s %s rate=%g" spec.Workloads.Workload.name
                engine rate
              :: Printf.sprintf "completed %b, %d cycles, digest %s"
                   (not r.Exec.State.dnc) r.Exec.State.sim_cycles
                   (spec.Workloads.Workload.digest r)
              :: List.map
                   (fun (k, v) -> Printf.sprintf "  %s %.3f" k v)
                   (Sim.Stats.to_assoc r.Exec.State.run_stats))
            [ 0.0; 60.0 ])
        [ "pthreads"; "cpr"; "gprs" ])
    Workloads.Suite.all

let sim_golden_file = "fixtures/sim_golden.txt"

(* The fixture is the default configuration's output, so fusion is pinned
   on: under [GPRS_NO_FUSE=1] dedup's gprs run reports a [wal.high_water]
   one lower (3709 against 3710) with the same digest and cycles. The other
   knobs ([GPRS_NO_COMPILE], [GPRS_TSAN], an armed delay point) leave every
   line as it is, so their CI legs check the fixture too. *)
let sim_golden () =
  let saved = Vm.Block.fusing () in
  Vm.Block.set_fusing true;
  Fun.protect
    ~finally:(fun () -> Vm.Block.set_fusing saved)
    sim_golden_lines
  |> Tprog.check_golden ~file:sim_golden_file ~out:"sim_golden.actual"

let suite =
  [
    Alcotest.test_case "simulated results golden" `Quick sim_golden;
    Alcotest.test_case "gprs: all workloads, faults, exact digests" `Slow
      test_gprs_all_workloads_with_faults;
    Alcotest.test_case "cpr: all workloads, faults, exact digests" `Slow
      test_cpr_all_workloads_with_faults;
    Alcotest.test_case "gprs: poisson arrivals, several seeds" `Slow
      test_gprs_poisson_and_seeds;
    Alcotest.test_case "gprs: all orderings with faults" `Slow
      test_gprs_orderings_with_faults;
    Alcotest.test_case "balance-aware beats round-robin" `Slow
      test_balance_aware_beats_round_robin_on_pipelines;
    Alcotest.test_case "basic recovery on a workload" `Slow
      test_basic_recovery_workload;
  ]
