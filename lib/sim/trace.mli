(** Bounded execution trace for debugging and tests.

    A fixed-capacity ring of typed events: a simulated time, an event
    kind and a few int fields, stored in one int array of [capacity]
    slots. The array is allocated by the first record, so a trace that
    is never written costs nothing; after that, recording writes those
    ints and nothing else — it allocates and formats nothing — so
    executors leave tracing on. Text
    is built only when the ring is read back ({!to_list}, {!find}): by
    the [GPRS_DEBUG] wedge dump and by tests. *)

type t

type names = {
  instr : int -> string;  (** instruction code to mnemonic *)
  wait : int -> int -> int -> string;
      (** wait code and its two arguments to text *)
}
(** Decoders for the codes the events carry; used only when rendering.
    The VM layer sits above this one, so its owner supplies them. *)

val create : ?capacity:int -> names:names -> unit -> t
(** Default capacity is 4096 events. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** A disabled trace drops all records; recording calls stay valid. *)

val make_runnable :
  t -> Time.cycles -> tid:int -> queued:bool -> on_ctx:bool -> destroyed:bool -> unit
(** Renders as [make_runnable <tid> queued=<b> on_ctx=<b> destroyed=<b>]. *)

val grant : t -> Time.cycles -> tid:int -> instr:int -> pc:int -> unit
(** Renders as [grant <tid> <instr> pc=<pc>]. *)

val park : t -> Time.cycles -> tid:int -> instr:int -> pc:int -> unit
(** Renders as [park <tid> <instr> pc=<pc>]. *)

val fill : t -> Time.cycles -> ctx:int -> tid:int -> wait:int -> a:int -> b:int -> unit
(** Renders as [fill ctx=<ctx> tid=<tid> wait=<wait>], the wait decoded
    from its code and arguments [a], [b]. *)

val to_list : t -> (Time.cycles * string) list
(** Rendered events, oldest first; at most [capacity] (the newest). *)

val find : t -> substring:string -> (Time.cycles * string) option
(** First (oldest) retained event whose rendered text contains
    [substring]. *)

val clear : t -> unit
