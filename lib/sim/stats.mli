(** Run statistics.

    Lightweight counters and summaries accumulated by the executors and
    reported by the experiment drivers. A {!t} is a string-keyed bag so
    subsystems can record their own measures (e.g. ["rol.max_depth"],
    ["cpr.checkpoints"], ["wal.appends"]) without a central registry. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** Add 1 to a counter, creating it at 0 first if needed. *)

val counter : t -> string -> int ref
(** The counter cell itself (created at 0 if absent). Dispatch loops
    cache this to keep per-instruction accounting off the hashtable. *)

val add : t -> string -> int -> unit
(** Add an arbitrary amount to a counter. *)

val set_max : t -> string -> int -> unit
(** Keep the running maximum of the values fed in. *)

val observe : t -> string -> float -> unit
(** Feed a sample into a summary (count / sum / min / max). *)

val get : t -> string -> int
(** Counter value; 0 when never touched. *)

val mean : t -> string -> float
(** Mean of observed samples; 0 when never observed. *)

val count : t -> string -> int
(** Number of samples fed into [observe]. *)

val merge_into : dst:t -> t -> unit
(** Fold counters and summaries of the source into [dst]. *)

val to_assoc : t -> (string * float) list
(** Flat snapshot, counters as floats, summaries as their means; sorted by
    key for stable output. *)

val pp : Format.formatter -> t -> unit

(** Pre-bound handles for hot counters and summaries.

    A handle names one key of one bag and binds to that key's cell on its
    first bump; after that a bump is a pointer check and an in-place add,
    with no string hashing and no allocation. A handle that is never
    bumped registers nothing, so {!to_assoc} reads exactly as if the
    plain string-keyed calls had been used. A handle and the plain calls
    on the same key share one cell. *)
module Handle : sig
  type stats := t

  type counter

  type summary

  val counter : stats -> string -> counter

  val incr : counter -> unit

  val add : counter -> int -> unit

  val summary : stats -> string -> summary

  val sample : summary -> int -> unit
  (** [observe] of an integer sample, without boxing it. *)
end
