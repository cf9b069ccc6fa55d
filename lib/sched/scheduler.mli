(** Run-queue policies for mapping ready work onto hardware contexts.

    Two policies:

    - [Fifo]: a single global FIFO run queue, modelling the OS scheduler
      that time-slices Pthreads across contexts (the paper's baseline).
    - [Work_steal]: per-context deques with deterministic round-robin
      stealing, modelling GPRS's load-balancing sub-thread scheduler
      (§3.3), which "actively seeks work, minimizing the idle time".

    Work items are integers (thread or sub-thread ids). Determinism: steal
    victims are probed in a fixed rotation starting after the thief, so a
    given simulation state always yields the same assignment. *)

type policy = Fifo | Work_steal

type t

val create : policy -> n_contexts:int -> t

val policy : t -> policy

val enqueue : t -> ctx_hint:int -> int -> unit
(** Make a work item ready. [ctx_hint] is the context whose local deque
    receives it under [Work_steal] (the context that created or woke the
    item); ignored under [Fifo]. *)

val set_on_enqueue : t -> (int -> unit) option -> unit
(** Observer fired with the item at the start of every {!enqueue} — the
    GPRS engine logs [Wal.Sched_enqueue] here, so the work queues are
    reconstructible from the log as §3.2 requires. [None] (the default)
    disables it. *)

val take : t -> ctx:int -> (int * bool) option
(** Next item for an idle context. The boolean is [true] when the item was
    stolen from another context's deque (the caller charges the steal
    cost). O(1) and allocation-free when nothing is queued. *)

val remove : t -> int -> bool
(** Remove a specific item wherever it is queued; [true] if found. Used
    when recovery squashes a queued sub-thread. *)

val length : t -> int

val is_empty : t -> bool
