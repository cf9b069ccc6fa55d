(** Write-ahead log for the GPRS runtime's own state.

    GPRS cannot protect its internal structures (work queues, allocator
    lists, the reorder list) with the same checkpoints it keeps for user
    state — applying CPR to the runtime "will lead to the same problem
    that it is attempting to solve" (§3.2 of the paper). Instead, each
    runtime operation is performed on behalf of some sub-thread and is
    logged, tagged with that sub-thread's order, to stable storage before
    it executes (write-ahead, in the style of ARIES). Recovery walks the
    log backwards and undoes the operations belonging to squashed
    sub-threads; retirement prunes the prefix belonging to retired ones.

    The log stores the {e descriptions} of operations; the engine owns the
    inverse actions (e.g. {!Vm.Mem.undo_alloc}).

    When created with [~stable:true] the log additionally serializes every
    record into an in-memory "stable storage" image: one checksummed text
    line per op record, prune marker, or checkpoint begin/end pair, in LSN
    order. Cold recovery ({!Recovery}) parses that image back with
    {!parse_image} and performs ARIES analysis / redo / undo against it —
    the live [t] is gone with the crashed engine. A volatile log builds
    no text at all: its appends and prunes only update the live list. *)

type op =
  | Alloc of { addr : int; size : int }  (** runtime allocator gave out a block *)
  | Free of { addr : int; size : int }  (** runtime allocator reclaimed a block *)
  | Thread_create of { tid : int }  (** TCB and stack were materialized *)
  | Rol_insert of { sub : int }  (** a reorder-list entry was added *)
  | Sched_enqueue of { sub : int }  (** a sub-thread entered a work queue *)
  | Io_op of { file : int; words : int }  (** a file operation's metadata *)

type entry = { lsn : int; order : int; op : op }

type t

val create : ?stable:bool -> unit -> t
(** [~stable:true] keeps a serialized image of every record ([default:
    false], volatile only — the pre-crash-harness behavior). *)

val stable_armed : t -> bool

val append : t -> ?at:int -> order:int -> op -> int
(** Logs the operation on behalf of the sub-thread with the given order;
    returns the LSN. LSNs are strictly increasing and dense. [at] is the
    simulated cycle of the append, recorded in the stable image so the
    crash sweep can replay the same schedule against P-CPR. *)

val set_on_append : t -> (int -> unit) option -> unit
(** Hook fired with the LSN after each op record reaches the log — the
    crash injector's trigger point ("crash at every WAL-record
    boundary"). *)

val appended : t -> int
(** Total op records ever appended (= next LSN). *)

val size : t -> int
(** Live (unpruned) entries — the bounded quantity the paper keeps in
    check by pruning at retirement. *)

val high_water : t -> int
(** Maximum live size ever observed. *)

val entries_for : t -> orders:(int -> bool) -> entry list
(** Entries whose sub-thread order satisfies the predicate, newest first —
    the order in which recovery must undo them. *)

val drop_for : t -> orders:(int -> bool) -> int
(** Remove those entries (they were undone); returns how many. Writes a
    drop marker naming the squashed orders to the stable image so cold
    recovery does not undo them a second time. *)

val prune_below : t -> order:int -> int
(** Retirement: drop all entries with [order < order]; returns how many.
    Writes a prune marker to the stable image. *)

val log_checkpoint :
  t ->
  min_retired:int ->
  active:int list ->
  brk:int ->
  free:(int * int) list ->
  used:(int * int) list ->
  unit
(** Write an ARIES checkpoint (begin/end pair) to the stable image: the
    retired-order horizon, the active-order table, and the allocator
    snapshot (break, free list, allocated blocks). The end record carries
    the redo-scan start LSN — the oldest LSN still held by a live entry —
    so recovery does not rescan the full log. No-op on volatile logs. *)

val log_checkpoint_begin : t -> unit
(** The B record alone; with {!log_checkpoint_end} this is
    {!log_checkpoint} split at the fault seam between the two records. *)

val log_checkpoint_end :
  t ->
  min_retired:int ->
  active:int list ->
  brk:int ->
  free:(int * int) list ->
  used:(int * int) list ->
  unit
(** The E record alone. *)

val tear_stable : t -> unit
(** Fault injection: truncate the stable image mid-way through its final
    record — a torn write. Keeps at least one byte of the final line so
    the damage never coincides with a record boundary; {!parse_image}
    over the result raises {!Corrupt}. No-op on volatile logs. *)

val stable_image : t -> string option
(** The serialized log so far; [None] if not created [~stable:true]. *)

(** {2 Stable-image records} *)

exception Corrupt of string
(** Raised by {!parse_image} on checksum mismatch or malformed records —
    recovery must refuse corrupted stable storage, never guess. *)

type srec =
  | S_op of { at : int; e : entry }
  | S_prune of { lsn : int; upto : int }
  | S_drop of { lsn : int; orders : int list }
      (** a live recovery squashed (and already undid) these orders *)
  | S_ckpt_begin of { lsn : int }
  | S_ckpt_end of {
      lsn : int;
      min_retired : int;  (** orders below this had retired *)
      redo_start : int;  (** oldest LSN a redo scan must revisit *)
      active : int list;  (** live sub-thread orders at checkpoint time *)
      brk : int;  (** allocator static break *)
      free : (int * int) list;  (** allocator free blocks, address-sorted *)
      used : (int * int) list;  (** allocated blocks, address-sorted *)
    }

val parse_image : string -> srec list
(** Parse a stable image back into records, LSN order. @raise Corrupt *)

val all : t -> entry list
(** Oldest first; for tests. *)

val pp_op : Format.formatter -> op -> unit
