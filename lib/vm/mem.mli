(** Simulated shared memory with a deterministic word allocator.

    Memory is a flat array of integer words. Workloads obtain regions
    through {!alloc}/{!free} — the simulated runtime allocator whose
    operations GPRS logs in its write-ahead log — or through static
    reservations made by the program builder.

    The memory itself performs no undo tracking: executors capture old
    values through their tracked {!Env.t} write hooks. What memory does
    provide is the allocator's inverse operations ({!undo_alloc},
    {!undo_free}) required for WAL-driven recovery, plus two snapshot
    mechanisms: page-granular dirty-tracked {!image}s ({!capture} /
    {!restore_image}) used by the coordinated-CPR engine, and deep
    {!snapshot}/{!restore} full copies used by tests and as the
    reference the incremental path is checked against. *)

type addr = int

type t

val create : words:int -> t
(** Fresh zeroed memory of [words] words, all managed by the allocator. *)

val words : t -> int

val read : t -> addr -> int
val write : t -> addr -> int -> unit

val reserve : t -> int -> addr
(** Static carve-out used by program setup (inputs, result areas); never
    freed, not WAL-relevant. *)

val alloc : t -> int -> addr
(** First-fit allocation from the free list; deterministic. Raises
    [Failure] when out of memory (simulated OOM is an executor-visible
    exception in tests). *)

val free : t -> addr -> unit
(** Returns a block to the free list. Raises [Invalid_argument] on a
    non-allocated address — workloads are expected to be correct. *)

val block_size : t -> addr -> int option
(** Size of a live allocated block, if [addr] is one. *)

val undo_alloc : t -> addr -> unit
(** Inverse of {!alloc} for WAL recovery: the block returns to the free
    list exactly as [free] would place it. *)

val undo_free : t -> addr -> size:int -> unit
(** Inverse of {!free} for WAL recovery: re-registers the block as
    allocated, carving it back out even if {!free} coalesced it into a
    larger free block. *)

val touch : t -> addr -> bool
(** First-touch test for checkpoint-interval write accounting: [true]
    exactly once per word per dirty-tracking epoch (epochs advance at
    {!capture}/{!restore_image}). Lets undo logs count unique dirtied
    words without materializing per-word entries. *)

type image
(** A page-granular snapshot of the data words, dirty-tracked: after the
    first (full) sync, re-syncing through {!capture} copies only pages
    written since. Syncs walk a dirty-page journal (one entry per page
    per epoch, recorded at write time) rather than scanning the page
    table, so a checkpoint costs O(pages written this interval), not
    O(total pages); the page-table scan remains as the fallback once the
    journal resets (it is dropped when it outgrows the page table).
    Copied-word counts are identical either way. Allocator metadata is
    not included — pair with {!save_alloc}. *)

val alloc_image : t -> image
(** A fresh, never-synced image: the next {!capture} into it copies every
    page (the full-copy fallback lives behind the same interface). *)

val capture : t -> image -> int
(** Sync [image] to the current memory contents and advance the dirty
    epoch. Returns the number of words copied. Images may be reused
    across checkpoints; a dropped snapshot's image can be recycled with
    the dirty tracking doing the right thing. *)

val restore_image : t -> image -> int
(** Overwrite memory with the image's contents: copies back exactly the
    pages written since the image was synced, re-stamps them dirty (so
    other retained images stay coherent), and advances the epoch.
    Returns the number of words copied. *)

val live_blocks : t -> (addr * int) list
(** Allocated blocks, sorted by address; used by tests and by CPR
    snapshots. *)

val redo_alloc : t -> addr -> size:int -> unit
(** ARIES conditional redo of a logged [Alloc]: carve exactly
    [addr, addr+size) back out of the free list and mark it live; no-op
    if the block is already allocated (its effect is in the checkpoint
    the redo scan started from). *)

val alloc_parts : t -> int * (addr * int) list * (addr * int) list
(** [(static_brk, free_list, allocated)] — the concrete allocator
    metadata, both lists address-sorted. Serialized into WAL checkpoint
    records so cold recovery can rebuild the allocator without replaying
    the whole log. *)

val restore_alloc_parts :
  t -> brk:int -> free:(addr * int) list -> used:(addr * int) list -> unit
(** Inverse of {!alloc_parts}: install a checkpointed allocator state. *)

type alloc_state
(** Opaque copy of the allocator metadata (free list + live blocks),
    excluding data words. CPR snapshots this cheaply at every checkpoint;
    data words are restored through undo logs instead. *)

val save_alloc : t -> alloc_state

val restore_alloc : t -> alloc_state -> unit

val snapshot : t -> t
(** Deep copy (data + allocator state). *)

val restore : t -> from:t -> unit
(** Overwrite [t] in place with the contents of a snapshot. *)
