(** Named fault points with trigger counts, in the postgres-faultinjector
    mold: code seams call {!sample} (or the raising wrapper {!strike}),
    tests and the scenario driver arm a point with an action and a
    trigger window, and {!wait_until_triggered} lets a test block until a
    point has actually fired — turning racy sleeps into directed
    schedules.

    The registry is process-global (the daemon arms points for requests
    executing on other domains) and guarded by one mutex; the hot path is
    a single {!Atomic.get} of the armed-point count, so an unarmed build
    pays one load per seam and never takes the lock. *)

type point =
  | Wal_append  (** every WAL record append (engine-side hook) *)
  | Wal_fsync  (** durability barrier after a retirement checkpoint *)
  | Checkpoint_begin  (** before the B record of a retirement checkpoint *)
  | Checkpoint_end  (** between the B and E records *)
  | Lock_handoff  (** unlock that may hand the mutex to a waiter *)
  | Barrier_release  (** barrier arrival that releases the episode *)
  | Alloc_grant  (** allocator grant (Alloc instruction) *)
  | Recovery_analysis  (** ARIES analysis pass over the stable image *)
  | Recovery_redo  (** redo application during cold restart *)
  | Recovery_undo  (** loser-op undo during cold restart *)
  | Cold_restart  (** entry to cold restart from a crash dump *)
  | Pool_submit  (** task submission to the shared analysis pool *)
  | Cache_insert  (** compiled-program insertion into the service cache *)
  | Admission_enqueue  (** service admission of a run request *)

type action =
  | Skip  (** suppress the seam's effect (only where that is sound) *)
  | Error  (** raise {!Fault_error} at the seam *)
  | Crash  (** whole-runtime crash (engine seams only) *)
  | Delay  (** host-side sleep; never touches simulated state *)
  | Torn_write  (** tear the stable WAL mid-record, then crash *)

(** What a seam must do itself when a point fires. [Delay] and [Error]
    are handled inside {!sample} (sleep / raise), so they never reach the
    caller. *)
type fire = Skip_fire | Crash_fire | Torn_fire

exception Fault_error of string
(** Raised by an armed [Error] action: injected I/O error, allocator
    failure, lock-acquisition timeout, … depending on the seam. *)

val all : point list
val to_name : point -> string
val of_name : string -> point option
val action_name : action -> string
val action_of_name : string -> action option

val supported : point -> action list
(** Actions that are sound at this point. {!arm} refuses the rest — e.g.
    [Skip] at [Wal_append] would silently lose a logged effect and turn
    recovery into wrong-answer territory, so it is not offered. *)

val arm :
  ?start_hit:int ->
  ?end_hit:int ->
  ?delay_us:int ->
  point ->
  action ->
  (unit, string) result
(** Arm [point] with [action]. The point fires on hits numbered
    [start_hit..end_hit] (1-based, defaults [1..max_int]); hits are
    counted only while armed. [delay_us] (default 50) is the sleep for
    [Delay]. Re-arming replaces the previous arming and zeroes the
    counters. *)

val disarm : point -> unit
(** Disarm without clearing counters (status stays inspectable). *)

val disarm_if : (point -> action -> bool) -> unit
(** Disarm every armed point for which the predicate holds. *)

val reset : point -> unit
(** Disarm and zero the counters. *)

val reset_all : unit -> unit

type status = {
  s_point : point;
  s_action : action option;  (** [None] when not armed *)
  s_start : int;
  s_end : int;
  s_delay_us : int;
  s_hits : int;  (** times the seam was reached while armed *)
  s_fires : int;  (** times the action was actually taken *)
}

val status : point -> status
val status_all : unit -> status list
(** Status rows for points that are armed or have non-zero counters. *)

val armed_count : unit -> int

val sample : point -> fire option
(** The seam call. Unarmed (globally or for this point): [None] at the
    cost of one atomic load. Armed: counts a hit, and if the hit falls in
    the trigger window performs the action — [Delay] sleeps and returns
    [None], [Error] raises {!Fault_error}, the rest return [Some fire]
    for the seam to enact. *)

val strike : point -> unit
(** {!sample} for seams with no skip/crash/torn behavior of their own:
    delay and error act as usual, any other fire is ignored. *)

val wait_until_triggered : ?timeout_s:float -> point -> int -> bool
(** Block until [point] has fired at least [n] times (immediately true
    for [n <= 0], armed or not). Returns [false] on timeout (default
    10s). *)

val arm_from_env : unit -> (unit, string) result
(** Arm points from [GPRS_FAULT_POINTS], a comma-separated list of
    [point=action[:delay_us][\@start[-end]]] clauses, e.g.
    [lock_handoff=delay:0] or [wal_append=crash\@5]. Also runs at module
    initialization so every binary honors the variable. *)
