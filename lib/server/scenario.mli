(** One scenario request: the parameter space of [gprs_run run].

    {!run} transliterates the CLI's engine dispatch, so a daemon-served
    result is bit-identical — digest, cycles, non-profiling stats — to
    the equivalent one-shot invocation; the service test sweep pins
    that equivalence for every workload × engine × fault leg. *)

type t = {
  id : string;  (** request correlation id, echoed in every reply *)
  workload : string;
  engine : string;  (** "pthreads" | "cpr" | "gprs" *)
  ordering : string;  (** gprs ordering scheme name *)
  contexts : int;
  scale : float;
  grain : string;  (** "default" | "fine" *)
  seed : int;
  rate : float;  (** exceptions per simulated second (cpr/gprs) *)
  interval : float;  (** cpr checkpoint interval in seconds *)
  want_stats : bool;  (** include run stats in the done event *)
}

val of_json : Json.t -> (t, string) result
(** Decode a run request; every field except [workload] has the CLI's
    default. Rejects unknown engines, and [contexts]/[scale] outside the
    workload builders' bounds ({!Workloads.Workload.check_contexts},
    {!Workloads.Workload.check_scale}) with an error naming the field. *)

val to_json : t -> Json.t
(** Encode as a run request (includes ["op":"run"]). *)

val program_key : leg:Leg.t -> t -> string
(** Program-cache key: workload identity + build knobs + the server's
    leg — the inputs of decode, superblock compilation and lint
    admission, and nothing of the run (seed/rate/engine/ordering), so
    one cached program serves every run against it. *)

val coalesce_key : t -> string
(** Full run identity minus [id]: requests with equal keys are the same
    deterministic computation and the admission queue coalesces them. *)

type outcome = {
  digest : string;
  sim_cycles : int;
  sim_seconds : float;
  dnc : bool;
  races : int;  (** sanitizer reports (0 unless the leg arms TSAN) *)
  stats : (string * float) list;  (** empty unless [want_stats] *)
}

val outcome_to_json : outcome -> Json.t

val build_program :
  t -> Workloads.Workload.spec * Vm.Isa.program
(** Decode the workload at the scenario's build knobs (the cache-miss
    path). Raises [Invalid_argument] for an unknown workload. *)

val run :
  spec:Workloads.Workload.spec ->
  program:Vm.Isa.program ->
  ?blocks:Vm.Block.t ->
  t ->
  outcome
(** Execute the scenario. [blocks] is the cached pre-decode (warm path);
    omitted, the engine analyzes the program itself (cold path). *)
