(** Bounded domain pool for fanning out independent simulation runs.

    The experiment drivers are embarrassingly parallel: each run is a
    sealed, deterministic, single-threaded simulation. [map] distributes
    the items over at most [jobs] OCaml 5 domains (including the calling
    one) and reassembles results in input order, so parallel output is
    bit-identical to sequential output. *)

val available_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the natural [-j] default. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] is [List.map f items], computed by up to [jobs]
    domains. [jobs <= 1] runs sequentially in the calling domain with no
    domain spawned. [f] must not touch shared mutable state (the drivers'
    baseline cache is internally locked). If any application raises, the
    first (lowest-index) exception is re-raised after all workers
    drain. *)

(** {1 Shared long-lived pool}

    Unlike {!map}, which spawns and joins domains per call, a [shared]
    pool keeps up to [jobs] worker domains alive across submissions —
    the substrate the service daemon multiplexes request execution onto,
    so worker spawn cost is paid per burst, not per request. Workers are
    spawned lazily as tasks arrive and park on a condition variable
    between tasks. *)

type shared

val shared_create : jobs:int -> shared
(** No domains are spawned until the first {!shared_submit}. [jobs] is
    clamped to >= 1. *)

val shared_submit : shared -> (unit -> unit) -> unit
(** Enqueue a task (FIFO) and return immediately; an idle worker picks
    it up, or a new one is spawned while fewer than [jobs] exist. A task
    that raises is dropped silently — submitters that need the error
    must catch it inside the thunk. Admission control (bounding this
    queue) is the caller's job: the daemon sheds before submitting. *)

val shared_pending : shared -> int
(** Tasks queued plus tasks executing right now. *)

val shared_workers : shared -> int
(** Worker domains currently alive (idle or running). *)

val shared_wait : shared -> unit
(** Block until the pool is drained ([shared_pending] = 0). *)

val shared_quiesce : shared -> unit
(** Drain, then join all worker domains — the daemon's idle
    housekeeping: even a parked domain participates in every
    stop-the-world collection, taxing every single-domain phase in the
    process. The pool remains usable; the next submission
    respawns workers. Safe to call concurrently with {!shared_submit}
    and with other [shared_quiesce] calls: a task submitted mid-quiesce
    is drained by a not-yet-exited worker or served by workers the
    quiescer respawns after the join, never stranded; a concurrent
    quiesce waits for the one in flight before running itself. *)
