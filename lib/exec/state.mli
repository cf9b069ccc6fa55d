(** Shared executor state and instruction-semantics helpers.

    All three engines (Pthreads baseline, coordinated CPR, GPRS) run
    programs against one machine state type so their cost accounting and
    architectural behaviour agree; the engines differ only in scheduling,
    ordering, checkpointing and recovery, which is exactly the paper's
    experimental control. The state is parameterized by the engine's
    event-payload type.

    The [current_undo] slot is the hook through which tracked writes
    capture pre-images: the CPR engine points it at the epoch log, the
    GPRS engine repoints it at each sub-thread's log, and the baseline
    leaves it empty. *)

type 'ev t = {
  program : Vm.Isa.program;
  costs : Vm.Costs.t;
  n_contexts : int;
  mem : Vm.Mem.t;
  io : Vm.Io.t;
  atomics : int array;
  mutexes : mutex array;
  conds : cond array;
  barriers : barrier array;
  mutable threads : Vm.Tcb.t array;  (** index = tid; grows *)
  mutable n_threads : int;
  mutable live_threads : int;
  evq : 'ev Sim.Event_queue.t;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  prng : Sim.Prng.t;
  mutable current_undo : Undo_log.t option;
  cow_words : Sim.Stats.Handle.counter;
      (** ["ckpt.cow_words"]: first writes noted into [current_undo] *)
  mutable acc_cost : int;  (** cycles accrued by tracked accesses *)
  output_handles : (string * Vm.Io.file) list;
  blocks : Vm.Block.t;  (** fused-block pre-decode of [program] *)
  mutable on_io_grow : (Vm.Io.file -> int -> unit) option;
      (** Fired when a tracked write grows a file ([file], words grown) —
          the file-metadata change [Wal.Io_op] records. The GPRS engine
          appends to its WAL here; other engines leave it [None]. *)
  tsan : Tsan.t option;
      (** Race sanitizer, created per run when {!Tsan.enabled} at
          {!create} time; [None] costs nothing on any path. *)
  mutable envs : Vm.Env.t option array;
      (** per-tid memoized tracked envs (see {!env_of}); grows *)
  mutable cursor : Vm.Block.cursor option;
      (** lazily created trace-compiler cursor (see {!cursor}) *)
  mutable last_decode : (Vm.Isa.proc * Vm.Block.proc_blocks) option;
      (** one-entry per-proc decode memo (see {!decode_of}) *)
}

and mutex = { mutable holder : int option; mutable mwaiters : Fifo.t }
and cond = { mutable sleepers : Fifo.t }
and barrier = { parties : int; mutable arrived : int list }

val trace_names : Sim.Trace.names
(** Decoders for the instruction and wait codes the engines record in
    [trace]; every state's trace renders with them. *)

val create :
  ?trace_capacity:int ->
  ?blocks:Vm.Block.t ->
  program:Vm.Isa.program ->
  costs:Vm.Costs.t ->
  n_contexts:int ->
  seed:int ->
  unit ->
  'ev t
(** Builds the machine, loads input files, creates the main thread
    (tid 0, group 0, [Runnable]). [blocks], when given, must be
    [Vm.Block.analyze program]'s result — the service-mode program cache
    passes it so repeated runs pay decode + superblock compilation once
    per program, not per run. *)

val thread : 'ev t -> int -> Vm.Tcb.t
val main_tid : int

val spawn :
  'ev t -> group:int -> proc:string -> args:int array -> Vm.Tcb.t
(** Allocate a tid and TCB for a forked thread (caller decides when it
    becomes runnable). *)

val set_holder : 'ev t -> int -> int option -> unit
(** Transition mutex [m]'s holder, keeping each TCB's incremental
    {!Vm.Tcb.held_mutexes} set in sync. All executor and recovery paths
    that change a holder must go through this (or rebuild the held sets
    wholesale, as the CPR snapshot restore does). *)

val env_of : 'ev t -> Vm.Tcb.t -> Vm.Env.t
(** Tracked environment for the thread: reads/writes charge
    {!Vm.Costs.t.mem_access} into [acc_cost] and route pre-images into
    [current_undo]. Memoized per tid (all hooks read mutable machine
    state at call time, so caching is semantics-preserving). *)

val cursor : 'ev t -> Vm.Tcb.t -> Vm.Block.cursor
(** The state's trace-compiler cursor, retargeted at [tcb] (TCB + cached
    env installed; the caller seeds clock, horizon and accumulators).
    Allocated once per state. *)

val decode_of : 'ev t -> Vm.Isa.proc -> Vm.Block.proc_blocks
(** {!Vm.Block.proc_info} with a one-entry physical-equality memo. *)

val take_acc_cost : 'ev t -> int
(** Drain the accrued tracked-access cost (reset to 0). *)

val read_atomic : 'ev t -> int -> int

val write_atomic : 'ev t -> int -> int -> unit
(** Tracked like memory: notes the pre-image into [current_undo]. *)

val now : 'ev t -> Sim.Time.cycles

val all_exited : 'ev t -> bool

val seconds : 'ev t -> Sim.Time.cycles -> float
(** Convert cycles to simulated wall-clock seconds. *)

(** {1 Run results} *)

type run_result = {
  sim_cycles : Sim.Time.cycles;
  sim_seconds : float;
  dnc : bool;  (** did not complete within the cycle budget *)
  run_stats : Sim.Stats.t;
  outputs : (string * int array) list;  (** declared output files *)
  final_mem : Vm.Mem.t;
  races : Tsan.report list;  (** empty unless the sanitizer was enabled *)
}

val mk_result : 'ev t -> dnc:bool -> run_result

exception Deadlock of string
(** Raised when the event queue drains with live threads remaining. *)
