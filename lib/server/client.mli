(** Client driver for the daemon protocol.

    A connection demuxes replies by request id (one reader systhread,
    per-id mailboxes), so any number of requests can be in flight; ops
    without an id (ping/stats/cache_clear) are answered in order. Both
    [gprs_run client] and the bench's service section drive the daemon
    exclusively through this module. *)

type t

exception Closed
(** The connection dropped while a caller was waiting. *)

val connect : ?retries:int -> Daemon.addr -> t
(** Connect; on failure retry with bounded exponential backoff (50 ms
    doubling per attempt, capped at 2 s a step). [retries] is the
    number of re-attempts after the first failure, default 3 (≈ 0.35 s
    of patience); raise it when the daemon races a cold start. *)

val close : t -> unit
(** Shut the connection down, join its reader, then close the socket.
    Idempotent. *)

val send : t -> Json.t -> unit
(** Ship one protocol line; raises {!Closed} after {!close}. *)

val await : t -> id:string -> Json.t * float
(** Block until the final (done/error) reply for [id]; returns it with
    its host arrival time ([Unix.gettimeofday]). *)

val op : t -> Json.t -> Json.t
(** Send an id-less op and take its reply. Callers must serialize their
    id-less ops per connection (the protocol answers them in order). *)

val ping : t -> unit
val stats : t -> Json.t
val cache_clear : t -> unit

val shutdown : t -> unit
(** Fire-and-forget: the daemon replies and then tears itself down. *)

val fault : t -> (string * Json.t) list -> Json.t
(** The ["fault"] op with the given extra fields (verb/point/fault/
    start/end/delay_us); requires a daemon started with fault injection
    allowed. *)

val run_sync : t -> Scenario.t -> Json.t
(** Submit one scenario and block for its final reply. *)

val timed_run : t -> Scenario.t -> Json.t * float
(** [run_sync] timed from send to final reply, in milliseconds — the
    per-request latency both closed-loop bench legs record. *)

type load = {
  sent : int;
  ok : int;
  failed : int;  (** error replies (shed requests included) *)
  wall_s : float;
  rps : float;  (** completions per second of wall time *)
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
}

val open_loop : t -> base:Scenario.t -> n:int -> rps:float -> load
(** Open-loop load: [n] arrivals at fixed rate [rps], sent on schedule
    regardless of completions, each with a distinct seed (distinct work
    units, so coalescing cannot shortcut the measurement). Latency is
    final-reply arrival minus {e scheduled} arrival time, so a saturated
    server's queueing delay lands in p99 instead of throttling the
    client. *)
