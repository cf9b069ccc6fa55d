(** Copy-on-write undo log over the simulated architectural state.

    One log captures the pre-images of everything written during a
    recovery epoch — a GPRS sub-thread, or a CPR inter-checkpoint
    interval. The first write to each location records its old value
    (copy-on-write, the paper's alternative to compiler-derived mod-sets,
    §3.2); replaying the log in reverse restores the state exactly as it
    was when the log was opened.

    Locations span all architectural state a squashed computation may have
    touched: shared-memory words, atomic variables, simulated file words
    and file lengths.

    Internally a location is one int (kind in the low 2 bits), entries
    live in parallel int arrays and first writes are found through an
    open-addressing set, so noting a location allocates nothing once the
    log has grown to hold it, and {!reset} keeps that capacity. *)

type key =
  | K_mem of int  (** shared-memory address *)
  | K_atomic of int  (** atomic variable *)
  | K_file of int * int
      (** (file, offset); the file id must be in [0, 65535] and the
          offset in [0, 2{^44} - 1], else {!note} raises
          [Invalid_argument] *)
  | K_file_len of int  (** file length *)

type t

val create : ?paged:Vm.Mem.t -> unit -> t
(** A fresh log. With [?paged], memory first-writes are detected through
    [mem]'s per-word dirty epoch ({!Vm.Mem.touch}) and only {e counted} —
    no pre-image entries are kept for them, because the owner restores
    data words page-wise via {!Vm.Mem.restore_image}. Non-memory keys
    (atomics, files) always keep full pre-image entries. The paged
    variant requires log intervals to stay in lockstep with the memory's
    dirty epochs: open a fresh log exactly when an epoch is advanced by
    {!Vm.Mem.capture}/{!Vm.Mem.restore_image}. *)

val reset : t -> unit
(** Drop every recorded pre-image, leaving the log as fresh as
    {!create} while keeping its internal capacity. Used when a pooled
    sub-thread recycles its log: a recycled log must carry nothing from
    its previous life. *)

val note : t -> key -> old:int -> bool
(** Record the pre-image of [key] unless this log already holds one.
    Returns [true] when the entry was recorded (a "first write"), which is
    when the executor charges the copy-on-write cost. *)

val note_mem : t -> int -> old:int -> bool
(** [note t (K_mem a) ~old] without building the key. *)

val note_atomic : t -> int -> old:int -> bool
(** [note t (K_atomic v) ~old] without building the key. *)

val note_file : t -> int -> off:int -> old:int -> bool
(** [note t (K_file (f, off)) ~old] without building the key. *)

val note_file_len : t -> int -> old:int -> bool
(** [note t (K_file_len f) ~old] without building the key. *)

val size : t -> int
(** Number of recorded pre-images (words of checkpoint state). *)

val is_empty : t -> bool

val replay :
  mem:Vm.Mem.t -> atomics:int array -> io:Vm.Io.t -> t -> int
(** Undo all recorded writes, newest first; returns the number of words
    restored (for paged logs this includes the counted memory touches,
    whose data the caller restores via {!Vm.Mem.restore_image}). The log
    is left empty and reusable. *)

val keys : t -> key list
(** Recorded locations, newest first; for tests. *)

val merge_newer : older:t -> t -> unit
(** Fold a newer epoch's pre-images into an older log: entries for
    locations the older log already tracks are dropped (the older
    pre-image wins). Used when CPR commits a checkpoint that later gets
    aborted, and when GPRS subsumes nested recovery scopes. Raises
    [Invalid_argument] on paged logs. *)
