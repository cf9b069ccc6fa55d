(** Snapshot of the process-global runtime knobs ("the leg").

    The one-shot CLI reads [GPRS_NO_FUSE] / [GPRS_NO_COMPILE] /
    [GPRS_TSAN] once at process start; a daemon must do the same and
    then never let them drift, or a program compiled under one leg could
    serve a request issued under another. {!Daemon.start} captures the
    leg once, {!apply}s it, and threads {!key} into every program-cache
    key. *)

type t = {
  fuse : bool;  (** fused-block dispatch enabled *)
  compile : bool;  (** superblock trace compilation enabled *)
  tsan : bool;  (** dynamic race sanitizer armed for every run *)
}

val capture : unit -> t
(** Read the current values of all three switches. *)

val apply : t -> unit
(** Install the snapshot into the runtime switches. *)

val key : t -> string
(** Compact stable encoding for cache keys. *)

val to_json : t -> Json.t
