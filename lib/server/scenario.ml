(* A scenario request: one (workload, engine, ordering, fault schedule,
   seed, knobs) point, exactly the parameter space of `gprs_run run`.
   [run] mirrors the CLI's engine dispatch line for line so a daemon
   result is bit-identical to the one-shot invocation — that equivalence
   is what the service test sweep pins. *)

type t = {
  id : string;  (* request correlation id, echoed in every reply *)
  workload : string;
  engine : string;  (* "pthreads" | "cpr" | "gprs" *)
  ordering : string;  (* gprs only *)
  contexts : int;
  scale : float;
  grain : string;  (* "default" | "fine" *)
  seed : int;
  rate : float;  (* exceptions per simulated second; cpr/gprs only *)
  interval : float;  (* cpr checkpoint interval, seconds *)
  want_stats : bool;  (* include run stats in the done event *)
}

let of_json j =
  let ( let* ) = Result.bind in
  let* id = Json.str ~default:"" "id" j in
  let* workload = Json.str "workload" j in
  let* engine = Json.str ~default:"gprs" "engine" j in
  let* ordering = Json.str ~default:"balance-aware" "ordering" j in
  let* contexts = Json.int ~default:24 "contexts" j in
  let* scale = Json.float ~default:1.0 "scale" j in
  let* grain = Json.str ~default:"default" "grain" j in
  let* seed = Json.int ~default:1 "seed" j in
  let* rate = Json.float ~default:0.0 "rate" j in
  let* interval = Json.float ~default:0.05 "interval" j in
  let* want_stats = Json.bool ~default:false "stats" j in
  match engine with
  | "pthreads" | "cpr" | "gprs" -> (
    (* Nested rather than a tuple match: every request decodes here, and
       the tuple would be allocated. *)
    match Workloads.Workload.check_contexts contexts with
    | Error m -> Error ("bad contexts: " ^ m)
    | Ok () -> (
      match Workloads.Workload.check_scale scale with
      | Error m -> Error ("bad scale: " ^ m)
      | Ok () ->
        Ok
          {
            id;
            workload;
            engine;
            ordering;
            contexts;
            scale;
            grain;
            seed;
            rate;
            interval;
            want_stats;
          }))
  | other -> Error (Printf.sprintf "unknown engine %S" other)

let to_json s =
  Json.Obj
    [
      ("op", Json.Str "run");
      ("id", Json.Str s.id);
      ("workload", Json.Str s.workload);
      ("engine", Json.Str s.engine);
      ("ordering", Json.Str s.ordering);
      ("contexts", Json.Int s.contexts);
      ("scale", Json.Float s.scale);
      ("grain", Json.Str s.grain);
      ("seed", Json.Int s.seed);
      ("rate", Json.Float s.rate);
      ("interval", Json.Float s.interval);
      ("stats", Json.Bool s.want_stats);
    ]

(* Program-cache key: exactly the inputs of decode + superblock
   compilation + lint admission — workload identity and build knobs plus
   the server's leg — and nothing of the run (seed, rate, ordering,
   engine), so one cached program serves every run against it. *)
let program_key ~leg s =
  Printf.sprintf "%s/n%d/s%.17g/%s/%s" s.workload s.contexts s.scale s.grain
    (Leg.key leg)

(* Coalescing key: the full run identity minus the correlation id. Two
   requests with equal keys are the same deterministic computation, so
   the admission queue runs one and fans the result out. *)
let coalesce_key s =
  Printf.sprintf "%s/%s/%s/n%d/s%.17g/%s/seed%d/r%.17g/i%.17g/st%d"
    s.workload s.engine s.ordering s.contexts s.scale s.grain s.seed s.rate
    s.interval
    (Bool.to_int s.want_stats)

type outcome = {
  digest : string;
  sim_cycles : int;
  sim_seconds : float;
  dnc : bool;
  races : int;
  stats : (string * float) list;  (* empty unless [want_stats] *)
}

let outcome_to_json o =
  Json.Obj
    [
      ("digest", Json.Str o.digest);
      ("sim_cycles", Json.Int o.sim_cycles);
      ("sim_seconds", Json.Float o.sim_seconds);
      ("dnc", Json.Bool o.dnc);
      ("races", Json.Int o.races);
      ("stats", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) o.stats));
    ]

let build_program s =
  let spec = Workloads.Suite.find s.workload in
  let grain =
    match s.grain with
    | "fine" -> Workloads.Workload.Fine
    | _ -> Workloads.Workload.Default
  in
  ( spec,
    spec.Workloads.Workload.build ~n_contexts:s.contexts ~grain ~scale:s.scale
  )

(* Engine dispatch, a transliteration of gprs_run's: the pthreads
   baseline takes no injector (rate is ignored there, as in the CLI),
   cpr takes the checkpoint interval, gprs the ordering scheme; both
   fault-injecting engines derive the injector stream from the scenario
   seed. GPRS's own lint hook stays off — admission linting happened
   once at cache fill. *)
let run ~spec ~program ?blocks s =
  let result =
    match s.engine with
    | "pthreads" ->
      Exec.Baseline.run ?blocks
        { Exec.Baseline.default_config with n_contexts = s.contexts;
          seed = s.seed }
        program
    | "cpr" ->
      Cpr.run ?blocks
        {
          Cpr.default_config with
          n_contexts = s.contexts;
          seed = s.seed;
          checkpoint_interval = s.interval;
          injector = Faults.Injector.config ~seed:s.seed s.rate;
        }
        program
    | "gprs" ->
      let ordering =
        match s.ordering with
        | "round-robin" -> Gprs.Order.Round_robin
        | "weighted" -> Gprs.Order.Weighted
        | "recorded" -> Gprs.Order.Recorded
        | _ -> Gprs.Order.Balance_aware
      in
      Gprs.Engine.run ~lint:`Off ?blocks
        {
          Gprs.Engine.default_config with
          n_contexts = s.contexts;
          seed = s.seed;
          ordering;
          injector = Faults.Injector.config ~seed:s.seed s.rate;
        }
        program
    | other -> failwith (Printf.sprintf "unknown engine %S" other)
  in
  {
    digest = spec.Workloads.Workload.digest result;
    sim_cycles = result.Exec.State.sim_cycles;
    sim_seconds = result.Exec.State.sim_seconds;
    dnc = result.Exec.State.dnc;
    races = List.length result.Exec.State.races;
    stats =
      (if s.want_stats then Sim.Stats.to_assoc result.Exec.State.run_stats
       else []);
  }
