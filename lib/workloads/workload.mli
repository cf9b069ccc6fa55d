(** Common interface of the benchmark programs.

    Each workload reconstructs the structure of one program from the
    paper's Table 2 — its parallelism pattern (fork/join, pipeline,
    mixed), computation granularity, synchronization frequency and
    critical-section size — as a virtual-ISA program. Inputs are
    synthetic but deterministic, and every workload exposes a
    schedule-independent {!digest} of its architectural result so that
    runs under different engines (and under exception injection) can be
    checked against the same oracle. *)

type grain =
  | Default  (** the program's natural thread granularity (Fig. 8a) *)
  | Fine  (** finer-grained computations (Fig. 8b / Fig. 9) *)

type spec = {
  name : string;
  comp_size : string;  (** Table 2 col 2: relative computation size *)
  sync_freq : string;  (** Table 2 col 3: synchronization frequency *)
  crit_size : string;  (** Table 2 col 4: critical-section size *)
  pattern : string;  (** parallelism pattern summary *)
  weights : int array option;
      (** per-group weights for the weighted schedule, when the paper
          reports one (Pbzip2's 4:4:1) *)
  build : n_contexts:int -> grain:grain -> scale:float -> Vm.Isa.program;
      (** [scale] multiplies the input size; 1.0 is the "large input". *)
  digest : Exec.State.run_result -> string;
}

val check_contexts : int -> (unit, string) result
(** The bound every [build] needs on its context count: at least 1.
    [Error] names the bad value, e.g. ["0: need at least 1 context"].
    Front ends (the CLI converters, the daemon's request decoder) call
    this and {!check_scale} so out-of-range input is refused at the
    boundary rather than raising inside a builder. *)

val check_scale : float -> (unit, string) result
(** The bound on [build]'s input scale: finite and greater than 0. *)

val digest_cells : Vm.Mem.t -> lo:int -> n:int -> string
(** Helper: FNV-1a hash of [n] memory words starting at [lo]. *)

val digest_outputs : Exec.State.run_result -> string
(** Helper: hash of all declared output files. *)

val chunk_bounds : total:int -> parts:int -> int -> int * int
(** [chunk_bounds ~total ~parts i] is the [(lo, hi)] half-open range of
    the [i]-th of [parts] contiguous chunks. *)

val mix : int -> int
(** Deterministic 63-bit mixing function for synthetic per-element
    "randomness" inside [Work] closures (no PRNG state needed, so
    re-execution after a squash reproduces the value). *)

val spawn_workers :
  Vm.Builder.proc_builder ->
  group:int ->
  proc:string ->
  n:int ->
  tids_at:int ->
  ?extra_args:(int -> Vm.Isa.regs -> int list) ->
  unit ->
  unit
(** Emit a fork loop into a main procedure: forks [n] instances of
    [proc], passing each its index as register 0 (plus [extra_args]), and
    stores the child tids into memory at [tids_at..tids_at+n-1] — in
    memory, not registers, so recovery-revived thread ids stay joinable.
    Uses registers 0 (index) and 1 (tid scratch). *)

val join_workers : Vm.Builder.proc_builder -> n:int -> tids_at:int -> unit
(** Emit the matching join loop (registers 0 and 1). *)
