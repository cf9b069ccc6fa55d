type recovery = Selective | Basic

type config = {
  n_contexts : int;
  seed : int;
  max_cycles : int option;
  ordering : Order.scheme;
  recovery : recovery;
  injector : Faults.Injector.config;
  livelock_squashes : int;
  costs : Vm.Costs.t;
  revoke_contexts : bool;
      (** treat [Resource_revocation] exceptions as permanent: the struck
          context is retired from service and the program continues on
          the remaining ones (§3.5's fatal-exception extension) *)
  wal_stable : bool;
      (** serialize the WAL to "stable storage" (implied by either crash
          trigger below; harmless otherwise — appends cost the same
          simulated cycles either way) *)
  crash_lsn : int option;
      (** crash the whole runtime immediately after this WAL record is
          written (the crash-sweep trigger: one run per record boundary) *)
  crash_cycle : int option;
      (** crash the whole runtime at this simulated cycle *)
}

let default_config =
  {
    n_contexts = 24;
    seed = 1;
    max_cycles = None;
    ordering = Order.Balance_aware;
    recovery = Selective;
    injector = Faults.Injector.default_config;
    livelock_squashes = 100_000;
    costs = Vm.Costs.default;
    revoke_contexts = false;
    wal_stable = false;
    crash_lsn = None;
    crash_cycle = None;
  }

type victim = V_sub of int | V_runtime

type event =
  | Tick of int
  | Retire_check
  | Fault_occur of { ctx : int; kind : Faults.Injector.kind }
  | Fault_report of { victim : victim; ctx : int; kind : Faults.Injector.kind }
  | Recovery_done
  | Crash_point  (* [crash_cycle] fired: lose the machine *)

type eng = {
  cfg : config;
  st : event Exec.State.t;
  sched : Sched.Scheduler.t;
  ctx_of : int option array;
  tick_handle : Sim.Event_queue.handle option array;
  busy_until : int array;
  dead_ctx : bool array;  (* permanently revoked contexts *)
  order : Order.t;
  rol : Rol.t;
  wal : Wal.t;
  mutable next_sub_id : int;
  pool : Subthread.pool;  (* recycled sub-thread records (saved + undo) *)
  cur_sub : Subthread.t option Tidtab.t;  (* tid -> current sub-thread *)
  pending_delay : int Tidtab.t;  (* tid -> cycles owed at next dispatch *)
  queued : bool Tidtab.t;
  destroyed : bool Tidtab.t;  (* tids removed by recovery *)
  mutable recovering : bool;
  mutable restart_pending : int list;  (* tids to release at Recovery_done *)
  mutable interrupted : (int * int) list;  (* Basic: (ctx, busy_until) to resume *)
  mutable pending_reports : victim list;
  mutable squashed_since_retire : int;
  mutable injector : Faults.Injector.t;
  mutable allow_crash : bool;
      (* cleared by cold restart: a recovered machine swallows further
         injected [Crash] events so the resumed run reaches its digest *)
  mutable grant_guard : int;  (* re-entrancy depth of try_grant *)
  (* Scheduled times of pending Fault_occur / Fault_report events, sorted
     ascending: the fused-dispatch horizon. A chain must not execute a
     boundary at or past the head — at that instant the fault event
     outranks the tick and may squash or stall this very thread. *)
  mutable fault_times : int list;
  budget : int;  (* max_cycles, or max_int *)
  instrs : int ref;  (* cached "instrs" counter *)
  (* Per-sub-thread counters, bound to their keys on first use. *)
  h_subthreads : Sim.Stats.Handle.counter;
  h_tokens : Sim.Stats.Handle.counter;
  h_sync_parks : Sim.Stats.Handle.counter;
  h_retired : Sim.Stats.Handle.counter;
  h_steals : Sim.Stats.Handle.counter;
  h_opaque_calls : Sim.Stats.Handle.counter;
  h_sub_cycles : Sim.Stats.Handle.summary;
  mutable io_tid : int;  (* thread being dispatched: owner of Io_op appends *)
}

let now eng = Exec.State.now eng.st

(* ------------------------------------------------------------------ *)
(* Whole-runtime crashes                                               *)
(* ------------------------------------------------------------------ *)

(* Raised internally at the armed crash point; caught at the outermost
   run loop, where the durable remains of the machine are captured. *)
exception Crash_signal

(* Named fault-point seams (Faults.Points). Run-time seams decline to
   fire while the engine is recovering — replayed work must not
   re-trigger the fault that killed it; the armed crash-LSN hook has the
   same guard. Recovery-side points (cold_restart, recovery_analysis,
   recovery_redo, recovery_undo) have no such guard: recovery is exactly
   when they are meant to fire. *)
let fire_point eng p =
  if not eng.recovering then
    match Faults.Points.sample p with
    | None | Some Faults.Points.Skip_fire -> ()
    | Some Faults.Points.Crash_fire -> raise Crash_signal
    | Some Faults.Points.Torn_fire ->
      Wal.tear_stable eng.wal;
      raise Crash_signal

(* What survives a crash of the runtime. Volatile and gone: the scheduler
   queues, the ROL ring structure, the engine-side per-tid tables, every
   pending event, per-context assignments. Durable: the serialized WAL,
   the architectural state in [d_st] (memory words, atomics, file
   contents, TCBs), the history-buffer checkpoints of the in-flight
   sub-threads (their [saved] registers and copy-on-write undo logs live
   on stable storage until replaced, §3.2), the order-enforcer rotation
   (part of the checkpoint's active-order table), the revoked-context and
   destroyed-thread maps, and the injector stream position. *)
type crash_dump = {
  d_cfg : config;
  d_st : event Exec.State.t;
  d_image : string;  (* serialized WAL at the instant of the crash *)
  d_cycle : int;
  d_subs : Subthread.t list;  (* in-flight sub-threads, oldest first *)
  d_destroyed : bool Tidtab.t;
  d_order : Order.t;
  d_injector : Faults.Injector.t;
  d_dead_ctx : bool array;
}

exception Crashed of crash_dump

let capture eng =
  let st = eng.st in
  {
    d_cfg = eng.cfg;
    d_st = st;
    d_image = Option.value ~default:"" (Wal.stable_image eng.wal);
    d_cycle = now eng;
    d_subs = Rol.to_list eng.rol;
    d_destroyed = eng.destroyed;
    d_order = eng.order;
    d_injector = eng.injector;
    d_dead_ctx = eng.dead_ctx;
  }

let dump_cycle d = d.d_cycle
let dump_wal_image d = d.d_image
let dump_active_ids d = List.map (fun (s : Subthread.t) -> s.Subthread.id) d.d_subs

let add_fault_time eng t = eng.fault_times <- List.sort compare (t :: eng.fault_times)

let remove_fault_time eng t =
  let rec rm = function
    | [] -> []
    | x :: r -> if x = t then r else x :: rm r
  in
  eng.fault_times <- rm eng.fault_times

let fault_horizon eng =
  match eng.fault_times with [] -> max_int | t :: _ -> t

(* ------------------------------------------------------------------ *)
(* Sub-thread bookkeeping                                              *)
(* ------------------------------------------------------------------ *)

let cur_sub_opt eng tid = Tidtab.get eng.cur_sub tid

let cur_sub eng tid =
  match cur_sub_opt eng tid with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Gprs: thread %d has no current sub" tid)

(* Cost of generating a sub-thread: token handling, generation, register
   checkpoint, ROL insertion and the WAL appends — the paper's t_g. *)
let boundary_cost eng =
  let c = eng.cfg.costs in
  c.Vm.Costs.token_pass + c.Vm.Costs.subthread_create + c.Vm.Costs.reg_checkpoint
  + c.Vm.Costs.rol_insert + (2 * c.Vm.Costs.wal_append)

let new_sub eng (tcb : Vm.Tcb.t) =
  let id = eng.next_sub_id in
  eng.next_sub_id <- id + 1;
  let sub =
    Subthread.acquire eng.pool ~id ~tid:tcb.Vm.Tcb.tid ~now:(now eng) ~tcb
  in
  (* The checkpoint may sit inside critical sections: record the held
     mutexes so a restore re-grants them. The TCB maintains its held set
     incrementally at every holder transition (descending index order,
     matching the old whole-table scan), so capture is aliasing the
     list — O(1), no per-boundary O(#mutexes) walk. A checkpoint taken
     while queued for a mutex (a condvar wake-sub) records that too. *)
  sub.Subthread.held_locks <- tcb.Vm.Tcb.held_mutexes;
  (match tcb.Vm.Tcb.wait with
  | Vm.Tcb.On_mutex m -> sub.Subthread.pending_mutex <- Some m
  | Vm.Tcb.Runnable | Vm.Tcb.On_cond _ | Vm.Tcb.Reacquire _ | Vm.Tcb.On_barrier _
  | Vm.Tcb.On_join _ | Vm.Tcb.On_token | Vm.Tcb.Done ->
    ());
  Rol.insert eng.rol sub;
  ignore (Wal.append eng.wal ~at:(now eng) ~order:id (Wal.Rol_insert { sub = id }));
  Tidtab.set eng.cur_sub tcb.Vm.Tcb.tid (Some sub);
  Sim.Stats.Handle.incr eng.h_subthreads;
  sub

(* Drop a record back into the pool once nothing can reach it: clear the
   current-sub slot if it still points here (a thread's last sub survives
   its exit in the table) and the undo hook if it was left armed. *)
let release_sub eng (sub : Subthread.t) =
  (match Tidtab.get eng.cur_sub sub.Subthread.tid with
  | Some s when s == sub -> Tidtab.set eng.cur_sub sub.Subthread.tid None
  | Some _ | None -> ());
  (match eng.st.Exec.State.current_undo with
  | Some u when u == sub.Subthread.undo -> eng.st.Exec.State.current_undo <- None
  | Some _ | None -> ());
  Subthread.release eng.pool sub

let add_delay eng tid d =
  Tidtab.set eng.pending_delay tid (Tidtab.get eng.pending_delay tid + d)

let take_delay eng tid =
  let d = Tidtab.get eng.pending_delay tid in
  if d <> 0 then Tidtab.set eng.pending_delay tid 0;
  d

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let on_ctx eng tid =
  Array.exists (function Some t -> t = tid | None -> false) eng.ctx_of

let make_runnable eng ~ctx_hint tid =
  let queued = Tidtab.get eng.queued tid
  and on_c = on_ctx eng tid
  and destroyed = Tidtab.get eng.destroyed tid in
  Sim.Trace.make_runnable eng.st.Exec.State.trace (now eng) ~tid ~queued
    ~on_ctx:on_c ~destroyed;
  if (not queued) && (not on_c) && not destroyed then begin
    (* A flag, not a Hashtbl.add: a re-add after a missed remove cannot
       shadow-stack bindings. *)
    Tidtab.set eng.queued tid true;
    Sched.Scheduler.enqueue eng.sched ~ctx_hint tid
  end

let schedule_tick eng ctx ~after =
  let t = now eng + Stdlib.max Exec.Sem.min_cost after in
  eng.busy_until.(ctx) <- t;
  eng.tick_handle.(ctx) <-
    Some
      (Sim.Event_queue.schedule eng.st.Exec.State.evq ~prio:(1 + ctx) ~time:t
         (Tick ctx))

let schedule_retire_check eng ~at =
  ignore
    (Sim.Event_queue.schedule eng.st.Exec.State.evq
       ~time:(Stdlib.max at (now eng))
       Retire_check)

(* ------------------------------------------------------------------ *)
(* Token grants: boundary processing (DEX order enforcer)              *)
(* ------------------------------------------------------------------ *)

let complete_current eng tid =
  match cur_sub_opt eng tid with
  | None -> ()
  | Some sub ->
    sub.Subthread.status <- Subthread.Complete (now eng);
    Sim.Stats.Handle.sample eng.h_sub_cycles
      (now eng - sub.Subthread.started_at);
    (match Rol.min_live_id eng.rol with
    | Some min_id when min_id = sub.Subthread.id ->
      schedule_retire_check eng
        ~at:(now eng + eng.cfg.costs.Vm.Costs.detection_latency + 1)
    | Some _ | None -> ())

(* Perform the synchronization operation at [tcb]'s pc on behalf of its
   freshly created sub-thread. pc still points at the instruction. *)
let grant eng tid =
  let st = eng.st in
  let tcb = Exec.State.thread st tid in
  Sim.Stats.Handle.incr eng.h_tokens;
  complete_current eng tid;
  let instr =
    match Vm.Tcb.current_instr tcb with None -> Vm.Isa.Exit | Some i -> i
  in
  Sim.Trace.grant st.Exec.State.trace (now eng) ~tid
    ~instr:(Vm.Isa.instr_code instr) ~pc:tcb.Vm.Tcb.pc;
  (match instr with
  | Vm.Isa.Exit -> ()
  | _ ->
    let sub = new_sub eng tcb in
    st.Exec.State.current_undo <- Some sub.Subthread.undo;
    add_delay eng tid (boundary_cost eng);
    tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1);
  tcb.Vm.Tcb.wait <- Vm.Tcb.Runnable;
  let resume ?(also = []) () =
    make_runnable eng ~ctx_hint:tid tid;
    List.iter
      (fun w ->
        Order.set_eligible eng.order w true;
        make_runnable eng ~ctx_hint:w w)
      also
  in
  (match instr with
  | Vm.Isa.Lock { m } ->
    let m = m tcb.Vm.Tcb.regs in
    let sub = cur_sub eng tid in
    Subthread.add_alias sub (Subthread.Mutex m);
    let acquired, d = Exec.Sem.try_lock st tcb m in
    add_delay eng tid d;
    if acquired then begin
      tcb.Vm.Tcb.lock_depth <- tcb.Vm.Tcb.lock_depth + 1;
      resume ()
    end
    else
      (* Queued on the mutex in token order; the unlock hands it over (no
         further turn needed). Until then the thread passes its turns —
         the token must not wait on it, since the holder may itself need
         a turn to release (a cond_wait inside the critical section). *)
      Order.set_eligible eng.order tid false
  | Vm.Isa.Barrier { b } ->
    Subthread.add_alias (cur_sub eng tid) (Subthread.Barrier_obj b);
    let released, d = Exec.Sem.barrier_arrive st tcb b in
    (* The arrival that completes the episode is the release seam. *)
    if tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then
      fire_point eng Faults.Points.Barrier_release;
    add_delay eng tid d;
    if tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then resume ~also:released ()
    else Order.set_eligible eng.order tid false
  | Vm.Isa.Cond_wait { c; m } ->
    let sub = cur_sub eng tid in
    Subthread.add_alias sub (Subthread.Condvar c);
    Subthread.add_alias sub (Subthread.Mutex m);
    let granted, d = Exec.Sem.cond_block st tcb ~c ~m in
    tcb.Vm.Tcb.lock_depth <- tcb.Vm.Tcb.lock_depth - 1;
    add_delay eng tid d;
    Order.set_eligible eng.order tid false;
    (match granted with
    | Some w ->
      Order.set_eligible eng.order w true;
      make_runnable eng ~ctx_hint:w w
    | None -> ())
  | Vm.Isa.Cond_signal { c; all } ->
    Subthread.add_alias (cur_sub eng tid) (Subthread.Condvar c);
    let woken, runnable, d = Exec.Sem.cond_wake st ~c ~all in
    add_delay eng tid d;
    (* A wake is a communication edge: the woken continuation must be
       ordered AFTER this signal. Close each sleeper's wait-sub and open
       a fresh one (with a current order id) at the wake point. *)
    List.iter
      (fun (w, m) ->
        complete_current eng w;
        let wt = Exec.State.thread st w in
        let wsub = new_sub eng wt in
        Subthread.add_alias wsub (Subthread.Condvar c);
        Subthread.add_alias wsub (Subthread.Mutex m);
        add_delay eng w (boundary_cost eng))
      woken;
    List.iter (fun w -> Order.set_eligible eng.order w true) runnable;
    resume ~also:runnable ()
  | Vm.Isa.Atomic { var; rmw; dst } ->
    let v = var tcb.Vm.Tcb.regs in
    Subthread.add_alias (cur_sub eng tid) (Subthread.Atomic_var v);
    let d = Exec.Sem.atomic_rmw st tcb ~var:v ~rmw ~dst in
    add_delay eng tid d;
    resume ()
  | Vm.Isa.Fork { group; proc; args; dst } ->
    let child, _os_cost = Exec.Sem.fork st tcb ~group ~proc ~args ~dst in
    let ctid = child.Vm.Tcb.tid in
    (cur_sub eng tid).Subthread.forked <-
      ctid :: (cur_sub eng tid).Subthread.forked;
    ignore
      (Wal.append eng.wal ~at:(now eng) ~order:(cur_sub eng tid).Subthread.id
         (Wal.Thread_create { tid = ctid }));
    Order.add_thread eng.order ~tid:ctid ~group;
    (* Under DEX a fork creates a sub-thread, not an OS thread. *)
    let csub = new_sub eng child in
    ignore csub;
    add_delay eng tid (eng.cfg.costs.Vm.Costs.subthread_create);
    add_delay eng ctid (boundary_cost eng);
    resume ~also:[ ctid ] ()
  | Vm.Isa.Join { tid = target } ->
    let target = target tcb.Vm.Tcb.regs in
    Subthread.add_alias (cur_sub eng tid) (Subthread.Thread_edge target);
    let ready, d = Exec.Sem.join st tcb ~target in
    add_delay eng tid d;
    if ready then resume () else Order.set_eligible eng.order tid false
  | Vm.Isa.Exit ->
    (match cur_sub_opt eng tid with
    | Some sub -> Subthread.add_alias sub (Subthread.Thread_edge tid)
    | None -> ());
    let joiners, _d = Exec.Sem.exit_thread st tcb in
    List.iter
      (fun j ->
        Order.set_eligible eng.order j true;
        make_runnable eng ~ctx_hint:j j)
      joiners;
    Order.remove_thread eng.order tid
  | Vm.Isa.Work _ | Vm.Isa.Opaque _ | Vm.Isa.Goto _ | Vm.Isa.If _
  | Vm.Isa.Unlock _ | Vm.Isa.Nonstd_atomic _ | Vm.Isa.Alloc _ | Vm.Isa.Free _
  | Vm.Isa.Cpr_begin | Vm.Isa.Cpr_end ->
    invalid_arg "Gprs.grant: not a synchronization point");
  (* Only communication operations consume a rotation turn; fork/join/
     exit boundaries are processed on arrival and must not steal turns
     from the threads the rotation is balancing. *)
  match instr with
  | Vm.Isa.Lock _ | Vm.Isa.Barrier _ | Vm.Isa.Cond_wait _ | Vm.Isa.Cond_signal _
  | Vm.Isa.Atomic _ ->
    Order.advance eng.order ~granted:tid
  | Vm.Isa.Fork _ | Vm.Isa.Join _ | Vm.Isa.Exit | Vm.Isa.Work _ | Vm.Isa.Opaque _
  | Vm.Isa.Goto _ | Vm.Isa.If _ | Vm.Isa.Unlock _ | Vm.Isa.Nonstd_atomic _
  | Vm.Isa.Alloc _ | Vm.Isa.Free _ | Vm.Isa.Cpr_begin | Vm.Isa.Cpr_end ->
    ()

(* Grant every turn that can be taken right now. Filling contexts can park
   further threads at sync points (their nested [try_grant] calls are
   guarded no-ops), so alternate granting and filling until neither makes
   progress. *)
let rec try_grant eng =
  if eng.grant_guard = 0 then begin
    eng.grant_guard <- 1;
    let holder_parked () =
      match Order.holder eng.order with
      | Some tid -> (Exec.State.thread eng.st tid).Vm.Tcb.wait = Vm.Tcb.On_token
      | None -> false
    in
    let progress = ref true in
    while !progress do
      progress := false;
      while holder_parked () do
        grant eng (Option.get (Order.holder eng.order))
      done;
      fill_all eng;
      if holder_parked () then progress := true
    done;
    eng.grant_guard <- 0
  end

(* ------------------------------------------------------------------ *)
(* Dispatch (non-preemptive work-stealing pool)                        *)
(* ------------------------------------------------------------------ *)

and dispatch eng ctx (tcb : Vm.Tcb.t) =
  let st = eng.st in
  let tid = tcb.Vm.Tcb.tid in
  let t0 = now eng in
  eng.io_tid <- tid;
  (match cur_sub_opt eng tid with
  | Some sub -> st.Exec.State.current_undo <- Some sub.Subthread.undo
  | None -> st.Exec.State.current_undo <- None);
  let ctrl = ref 0 in
  let rec fetch () =
    match Vm.Tcb.current_instr tcb with
    | None -> Vm.Isa.Exit
    | Some (Vm.Isa.Goto target) ->
      tcb.Vm.Tcb.pc <- target;
      incr ctrl;
      fetch ()
    | Some (Vm.Isa.If { cond; target }) ->
      tcb.Vm.Tcb.pc <-
        (if cond tcb.Vm.Tcb.regs then target else tcb.Vm.Tcb.pc + 1);
      incr ctrl;
      fetch ()
    | Some Vm.Isa.Cpr_begin ->
      tcb.Vm.Tcb.in_cpr_region <- true;
      (match cur_sub_opt eng tid with
      | Some sub -> sub.Subthread.cpr_region <- true
      | None -> ());
      tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1;
      incr ctrl;
      fetch ()
    | Some Vm.Isa.Cpr_end ->
      tcb.Vm.Tcb.in_cpr_region <- false;
      tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1;
      incr ctrl;
      fetch ()
    | Some i -> i
  in
  let instr = fetch () in
  incr eng.instrs;
  Vm.Block.profile_ctrl st.Exec.State.stats !ctrl;
  Vm.Block.profile_instr st.Exec.State.stats instr;
  (* A restarted thread may resume without a current sub-thread; create
     one lazily so its writes stay squashable. *)
  let ensure_sub () =
    if cur_sub_opt eng tid = None then begin
      let sub = new_sub eng tcb in
      st.Exec.State.current_undo <- Some sub.Subthread.undo;
      add_delay eng tid (boundary_cost eng - eng.cfg.costs.Vm.Costs.token_pass);
      Sim.Stats.incr st.Exec.State.stats "gprs.restart_subs"
    end
  in
  (* Interception is suppressed inside critical sections (nested-lock
     flattening) and inside hybrid-recovery regions. *)
  let suppressed = tcb.Vm.Tcb.lock_depth > 0 || tcb.Vm.Tcb.in_cpr_region in
  let completed_episode_skip =
    match instr with
    | Vm.Isa.Barrier { b } ->
      tcb.Vm.Tcb.barrier_seq.(b) < tcb.Vm.Tcb.barrier_done.(b)
    | _ -> false
  in
  if completed_episode_skip then begin
    (* Re-executed arrival for an episode that already released: passing
       through is the only consistent continuation (the other parties
       have retired past it). *)
    let b = match instr with Vm.Isa.Barrier { b } -> b | _ -> assert false in
    ensure_sub ();
    tcb.Vm.Tcb.barrier_seq.(b) <- tcb.Vm.Tcb.barrier_seq.(b) + 1;
    tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1;
    Sim.Stats.incr st.Exec.State.stats "gprs.barrier_skips";
    schedule_tick eng ctx
      ~after:(!ctrl + eng.cfg.costs.Vm.Costs.barrier_entry + take_delay eng tid)
  end
  else if Vm.Isa.is_sync_point instr && not suppressed then begin
    (* Sub-thread boundary: park for the deterministic turn. *)
    tcb.Vm.Tcb.wait <- Vm.Tcb.On_token;
    eng.ctx_of.(ctx) <- None;
    eng.tick_handle.(ctx) <- None;
    Sim.Stats.Handle.incr eng.h_sync_parks;
    Sim.Trace.park st.Exec.State.trace (now eng) ~tid
      ~instr:(Vm.Isa.instr_code instr) ~pc:tcb.Vm.Tcb.pc;
    (* Fork, join and exit are sub-thread boundaries but not
       communication through shared objects: their boundary is processed
       on arrival (the fork order is the parent's program order; join and
       exit pair through the thread edge itself), so data-parallel
       programs incur no ordering waits — the paper's fork/join programs
       show near-zero ordering overhead (Fig. 8a). Communication
       operations wait for their deterministic turn, except under the
       recorded (nondeterministic) scheme, where arrival order is the
       recorded order. *)
    let immediate =
      match instr with
      | Vm.Isa.Fork _ | Vm.Isa.Join _ | Vm.Isa.Exit -> true
      | Vm.Isa.Lock _ | Vm.Isa.Barrier _ | Vm.Isa.Cond_wait _
      | Vm.Isa.Cond_signal _ | Vm.Isa.Atomic _ ->
        Order.scheme eng.order = Order.Recorded
      | Vm.Isa.Work _ | Vm.Isa.Opaque _ | Vm.Isa.Goto _ | Vm.Isa.If _
      | Vm.Isa.Unlock _ | Vm.Isa.Nonstd_atomic _ | Vm.Isa.Alloc _
      | Vm.Isa.Free _ | Vm.Isa.Cpr_begin | Vm.Isa.Cpr_end ->
        false
    in
    if immediate then grant eng tid else try_grant eng;
    fill eng ctx
  end
  else begin
    ensure_sub ();
    tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1;
    let wake tids =
      List.iter
        (fun w ->
          Order.set_eligible eng.order w true;
          make_runnable eng ~ctx_hint:ctx w)
        tids
    in
    let d =
      match instr with
      | Vm.Isa.Work { cost; run } -> Exec.Sem.exec_work st tcb ~cost ~run
      | Vm.Isa.Opaque { cost; run } ->
        (* Unknown mod-set (third-party code): conservative ⊤ dependence. *)
        (match cur_sub_opt eng tid with
        | Some sub -> sub.Subthread.global_dep <- not tcb.Vm.Tcb.in_cpr_region
        | None -> ());
        Sim.Stats.Handle.incr eng.h_opaque_calls;
        Exec.Sem.exec_work st tcb ~cost ~run
      | Vm.Isa.Nonstd_atomic { var; rmw; dst } ->
        (* Home-spun synchronization is invisible to DEX; outside a CPR
           region it forces conservative recovery. *)
        let v = var tcb.Vm.Tcb.regs in
        (match cur_sub_opt eng tid with
        | Some sub ->
          Subthread.add_alias sub (Subthread.Atomic_var v);
          if not tcb.Vm.Tcb.in_cpr_region then begin
            sub.Subthread.global_dep <- true;
            Sim.Stats.incr st.Exec.State.stats "gprs.nonstd_unprotected"
          end
        | None -> ());
        Exec.Sem.atomic_rmw st tcb ~var:v ~rmw ~dst
      | Vm.Isa.Unlock { m } ->
        (* [Error] here models a lock-release/handoff timeout. *)
        fire_point eng Faults.Points.Lock_handoff;
        let woken, d = Exec.Sem.unlock st tcb (m tcb.Vm.Tcb.regs) in
        tcb.Vm.Tcb.lock_depth <- tcb.Vm.Tcb.lock_depth - 1;
        (match woken with Some w -> wake [ w ] | None -> ());
        d
      | Vm.Isa.Alloc { size; dst } ->
        (* [Error] here models allocator failure. *)
        fire_point eng Faults.Points.Alloc_grant;
        let a, d = Exec.Sem.alloc st tcb ~size ~dst in
        let size = Option.get (Vm.Mem.block_size st.Exec.State.mem a) in
        (match cur_sub_opt eng tid with
        | Some sub ->
          ignore
            (Wal.append eng.wal ~at:(now eng) ~order:sub.Subthread.id
               (Wal.Alloc { addr = a; size }))
        | None -> ());
        d + eng.cfg.costs.Vm.Costs.wal_append
      | Vm.Isa.Free { addr } ->
        (* Quarantined free: the block leaves the allocator only when
           this sub-thread retires (see Subthread.freed_blocks), so a
           squash can always undo the free without racing concurrent
           reuse. *)
        let a = addr tcb.Vm.Tcb.regs in
        (match Vm.Mem.block_size st.Exec.State.mem a with
        | None ->
          (* A restored pointer can go stale across deeply overlapped
             recoveries; quarantined reuse makes addresses unique until
             retirement, so skipping the free is sound. *)
          Sim.Stats.incr st.Exec.State.stats "gprs.stale_frees"
        | Some size -> (
          match cur_sub_opt eng tid with
          | Some sub ->
            sub.Subthread.freed_blocks <- (a, size) :: sub.Subthread.freed_blocks;
            ignore
              (Wal.append eng.wal ~at:(now eng) ~order:sub.Subthread.id
                 (Wal.Free { addr = a; size }))
          | None -> Vm.Mem.free st.Exec.State.mem a));
        eng.cfg.costs.Vm.Costs.free + eng.cfg.costs.Vm.Costs.wal_append
      | Vm.Isa.Lock { m } ->
        (* Nested lock inside a critical section or a CPR region. *)
        let m = m tcb.Vm.Tcb.regs in
        (match cur_sub_opt eng tid with
        | Some sub -> Subthread.add_alias sub (Subthread.Mutex m)
        | None -> ());
        let acquired, d = Exec.Sem.try_lock st tcb m in
        if acquired then tcb.Vm.Tcb.lock_depth <- tcb.Vm.Tcb.lock_depth + 1
        else Order.set_eligible eng.order tid false;
        Sim.Stats.incr st.Exec.State.stats "gprs.flattened_locks";
        d
      | Vm.Isa.Barrier { b } ->
        (* Only reachable inside a CPR region. *)
        let released, d = Exec.Sem.barrier_arrive st tcb b in
        if tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then
          fire_point eng Faults.Points.Barrier_release;
        wake released;
        d
      | Vm.Isa.Cond_wait { c; m } ->
        let granted, d = Exec.Sem.cond_block st tcb ~c ~m in
        tcb.Vm.Tcb.lock_depth <- tcb.Vm.Tcb.lock_depth - 1;
        (match granted with Some w -> wake [ w ] | None -> ());
        Order.set_eligible eng.order tid false;
        d
      | Vm.Isa.Cond_signal { c; all } ->
        let _woken, runnable, d = Exec.Sem.cond_wake st ~c ~all in
        wake runnable;
        d
      | Vm.Isa.Atomic { var; rmw; dst } ->
        let v = var tcb.Vm.Tcb.regs in
        (match cur_sub_opt eng tid with
        | Some sub -> Subthread.add_alias sub (Subthread.Atomic_var v)
        | None -> ());
        Exec.Sem.atomic_rmw st tcb ~var:v ~rmw ~dst
      | Vm.Isa.Join { tid = target } ->
        let ready, d = Exec.Sem.join st tcb ~target:(target tcb.Vm.Tcb.regs) in
        if not ready then Order.set_eligible eng.order tid false;
        d
      | Vm.Isa.Fork { group; proc; args; dst } ->
        (* Fork inside a CPR region: still intercepted for bookkeeping. *)
        let child, _ = Exec.Sem.fork st tcb ~group ~proc ~args ~dst in
        let ctid = child.Vm.Tcb.tid in
        (match cur_sub_opt eng tid with
        | Some sub ->
          sub.Subthread.forked <- ctid :: sub.Subthread.forked;
          ignore
            (Wal.append eng.wal ~at:(now eng) ~order:sub.Subthread.id
               (Wal.Thread_create { tid = ctid }))
        | None -> ());
        Order.add_thread eng.order ~tid:ctid ~group;
        ignore (new_sub eng child);
        wake [ ctid ];
        eng.cfg.costs.Vm.Costs.subthread_create
      | Vm.Isa.Exit ->
        complete_current eng tid;
        let joiners, d = Exec.Sem.exit_thread st tcb in
        wake joiners;
        Order.remove_thread eng.order tid;
        d
      | Vm.Isa.Goto _ | Vm.Isa.If _ | Vm.Isa.Cpr_begin | Vm.Isa.Cpr_end ->
        assert false
    in
    let first = !ctrl + d + take_delay eng tid in
    if
      Vm.Block.fusing () && tcb.Vm.Tcb.wait = Vm.Tcb.Runnable
      && (not eng.recovering)
      && Rol.size eng.rol < 4096
    then begin
      (* Non-preemptive pool: the only events that can deopt a running
         thread are fault occurrences/reports, so the horizon is the
         earliest pending one (it cannot move up mid-chain — it only
         changes at event pops). No pending delay can accrue mid-chain:
         delays are added at token grants and fills, neither of which
         targets a thread that is running on a context. *)
      let b = if eng.budget = max_int then max_int else eng.budget + 1 in
      let horizon = Stdlib.min b (fault_horizon eng) in
      let sub = cur_sub_opt eng tid in
      let on_fused (pr : Vm.Block.probe) i =
        match sub with
        | None -> ()
        | Some sub ->
          if pr.Vm.Block.p_entered_cpr then sub.Subthread.cpr_region <- true;
          (match i with
          | Vm.Isa.Opaque _ ->
            sub.Subthread.global_dep <- not tcb.Vm.Tcb.in_cpr_region;
            Sim.Stats.Handle.incr eng.h_opaque_calls
          | _ -> ())
      in
      (* Per-compiled-entry form of [on_fused]: the latch, the
         last-writer dependence flag and the additive counter land
         identically whether applied per instruction or per entry. *)
      let on_trace ~steps:_ ~opaques ~last_opaque_in_cpr ~entered_cpr =
        match sub with
        | None -> ()
        | Some sub ->
          if entered_cpr then sub.Subthread.cpr_region <- true;
          if opaques > 0 then begin
            sub.Subthread.global_dep <- not last_opaque_in_cpr;
            Sim.Stats.Handle.add eng.h_opaque_calls opaques
          end
      in
      let vend =
        Exec.Fuse.run_chain st tcb ~instrs:eng.instrs ~horizon ~on_fused
          ~on_trace
          ~vstart:(t0 + Stdlib.max Exec.Sem.min_cost first)
          ()
      in
      schedule_tick eng ctx ~after:(vend - t0)
    end
    else schedule_tick eng ctx ~after:first
  end

and fill eng ctx =
  (* [try_grant] may already have filled this context from inside a park
     path; never overwrite a live assignment. *)
  if
    eng.ctx_of.(ctx) = None
    && (not eng.dead_ctx.(ctx))
    && not (eng.recovering && eng.cfg.recovery = Basic)
  then
    match Sched.Scheduler.take eng.sched ~ctx with
    | None -> ()
    | Some (tid, stolen) ->
      Tidtab.set eng.queued tid false;
      if Tidtab.get eng.destroyed tid then fill eng ctx
      else begin
        let tcb = Exec.State.thread eng.st tid in
        let w = tcb.Vm.Tcb.wait in
        Sim.Trace.fill eng.st.Exec.State.trace (now eng) ~ctx ~tid
          ~wait:(Vm.Tcb.wait_code w) ~a:(Vm.Tcb.wait_arg_a w)
          ~b:(Vm.Tcb.wait_arg_b w);
        if tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then begin
          eng.ctx_of.(ctx) <- Some tid;
          if stolen then begin
            Sim.Stats.Handle.incr eng.h_steals;
            add_delay eng tid eng.cfg.costs.Vm.Costs.steal
          end;
          dispatch eng ctx tcb
        end
        else fill eng ctx
      end

(* Once the run queue is empty every remaining [fill] is a no-op, so the
   scan stops there: an event that readies nothing costs O(1), not one
   scheduler probe per idle context. *)
and fill_all eng =
  let n = Array.length eng.ctx_of in
  let ctx = ref 0 in
  while !ctx < n && not (Sched.Scheduler.is_empty eng.sched) do
    if eng.ctx_of.(!ctx) = None then fill eng !ctx;
    incr ctx
  done

(* ------------------------------------------------------------------ *)
(* REX: retirement                                                     *)
(* ------------------------------------------------------------------ *)

let retire eng =
  let st = eng.st in
  let latency = eng.cfg.costs.Vm.Costs.detection_latency in
  let retired = Rol.retire_ready eng.rol ~now:(now eng) ~latency in
  if retired <> [] then begin
    eng.squashed_since_retire <- 0;
    List.iter
      (fun (sub : Subthread.t) ->
        Sim.Stats.Handle.incr eng.h_retired;
        (* Quarantined frees become real at retirement (output commit). *)
        List.iter
          (fun (a, size) ->
            if Vm.Mem.block_size st.Exec.State.mem a = Some size then
              Vm.Mem.free st.Exec.State.mem a)
          sub.Subthread.freed_blocks;
        (* Retirement drops the last internal reference (the ROL slot);
           the record can go back to the pool. *)
        release_sub eng sub)
      retired;
    (match Rol.min_live_id eng.rol with
    | Some min_id ->
      ignore (Wal.prune_below eng.wal ~order:min_id);
      (* If the new head is already complete, schedule its retirement. *)
      (match Rol.head eng.rol with
      | Some h -> (
        match h.Subthread.status with
        | Subthread.Complete c -> schedule_retire_check eng ~at:(c + latency + 1)
        | Subthread.Running | Subthread.Squashed -> ())
      | None -> ())
    | None -> ignore (Wal.prune_below eng.wal ~order:eng.next_sub_id));
    (* ARIES checkpoint at each retirement: the retired-order horizon,
       the active-order table, the allocator snapshot, and (inside the
       end record) the redo-start LSN. Bounds the cold-recovery redo
       scan to records since the last retirement. *)
    if Wal.stable_armed eng.wal then begin
      let brk, free, used = Vm.Mem.alloc_parts st.Exec.State.mem in
      let min_retired =
        match Rol.min_live_id eng.rol with
        | Some m -> m
        | None -> eng.next_sub_id
      in
      let active =
        List.map (fun (s : Subthread.t) -> s.Subthread.id) (Rol.to_list eng.rol)
      in
      (* Checkpoint fault seams: a skip at [begin] elides the whole
         checkpoint (analysis falls back to the previous one); a skip at
         [end] leaves a B record without its E — an incomplete
         checkpoint analysis must refuse to use. [wal_fsync] models the
         durability barrier after the pair; a torn write there loses the
         tail of the E record. *)
      let sample p =
        if eng.recovering then None else Faults.Points.sample p
      in
      (match sample Faults.Points.Checkpoint_begin with
      | Some Faults.Points.Skip_fire -> ()
      | Some Faults.Points.Crash_fire -> raise Crash_signal
      | Some Faults.Points.Torn_fire | None ->
        Wal.log_checkpoint_begin eng.wal;
        (match sample Faults.Points.Checkpoint_end with
        | Some Faults.Points.Skip_fire -> ()
        | Some Faults.Points.Crash_fire -> raise Crash_signal
        | Some Faults.Points.Torn_fire | None ->
          Wal.log_checkpoint_end eng.wal ~min_retired ~active ~brk ~free
            ~used;
          fire_point eng Faults.Points.Wal_fsync))
    end
  end

(* ------------------------------------------------------------------ *)
(* REX: recovery                                                       *)
(* ------------------------------------------------------------------ *)

module Int_set = Set.Make (Int)

(* The dependent walk of §3.4: younger sub-threads are squashed when they
   share an alias with, follow in program order, or were forked by, an
   already-squashed sub-thread. A single ascending pass reaches the
   fixpoint because dependence only flows from older to younger. *)
let compute_squash_set eng (victim : Subthread.t) =
  match eng.cfg.recovery with
  | Basic -> victim :: Rol.younger_than eng.rol victim.Subthread.id
  | Selective ->
    let squashed = ref [ victim ] in
    let squashed_tids = Hashtbl.create 8 in
    Hashtbl.replace squashed_tids victim.Subthread.tid ();
    let forked_tids = Hashtbl.create 8 in
    List.iter
      (fun t -> Hashtbl.replace forked_tids t ())
      victim.Subthread.forked;
    (* Accumulated union of the squashed alias sets: each younger
       sub-thread is tested against it with one word-wise intersection,
       equivalent to List.exists shares_alias over the squashed list
       (union distributes over the existential intersection). *)
    let aset = Subthread.aset_create () in
    Subthread.aset_add aset victim;
    Rol.iter_younger eng.rol ~than:victim.Subthread.id (fun (s : Subthread.t) ->
        let dependent =
          Hashtbl.mem squashed_tids s.Subthread.tid
          || Hashtbl.mem forked_tids s.Subthread.tid
          || Subthread.aset_shares aset s
        in
        if dependent then begin
          squashed := s :: !squashed;
          Hashtbl.replace squashed_tids s.Subthread.tid ();
          List.iter (fun t -> Hashtbl.replace forked_tids t ()) s.Subthread.forked;
          Subthread.aset_add aset s
        end);
    List.rev !squashed

let destroy_thread eng tid =
  if not (Tidtab.get eng.destroyed tid) then begin
    Tidtab.set eng.destroyed tid true;
    let tcb = Exec.State.thread eng.st tid in
    if tcb.Vm.Tcb.wait <> Vm.Tcb.Done then
      eng.st.Exec.State.live_threads <- eng.st.Exec.State.live_threads - 1;
    tcb.Vm.Tcb.wait <- Vm.Tcb.Done;
    Order.remove_thread eng.order tid;
    Tidtab.set eng.cur_sub tid None;
    ignore (Sched.Scheduler.remove eng.sched tid);
    Tidtab.set eng.queued tid false;
    Sim.Stats.incr eng.st.Exec.State.stats "gprs.threads_destroyed"
  end

let cancel_ctx_of_thread eng tid =
  Array.iteri
    (fun ctx o ->
      if o = Some tid then begin
        (match eng.tick_handle.(ctx) with
        | Some h -> Sim.Event_queue.cancel eng.st.Exec.State.evq h
        | None -> ());
        eng.tick_handle.(ctx) <- None;
        eng.ctx_of.(ctx) <- None
      end)
    eng.ctx_of

let recover eng (victim : Subthread.t) =
  let st = eng.st in
  let costs = eng.cfg.costs in
  (* Raised before any structure is touched: a crash point firing off a
     WAL append made from inside this function (the stranded-waiter
     sweep enqueues) must not capture a half-undone machine, so the
     armed-crash hook declines to fire while [recovering] is set. *)
  eng.recovering <- true;
  Sim.Stats.incr st.Exec.State.stats "gprs.recoveries";
  let squash = compute_squash_set eng victim in
  let n_squash = List.length squash in
  Sim.Stats.add st.Exec.State.stats "gprs.squashed_subs" n_squash;
  eng.squashed_since_retire <- eng.squashed_since_retire + n_squash;
  (* Basic recovery stalls the whole machine: remember interrupted
     contexts so their in-flight instructions complete after the pause. *)
  if eng.cfg.recovery = Basic then begin
    eng.interrupted <- [];
    Array.iteri
      (fun ctx o ->
        match o with
        | Some tid
          when not
                 (List.exists (fun (s : Subthread.t) -> s.Subthread.tid = tid) squash)
          -> (
          match eng.tick_handle.(ctx) with
          | Some h ->
            Sim.Event_queue.cancel st.Exec.State.evq h;
            eng.tick_handle.(ctx) <- None;
            eng.interrupted <- (ctx, eng.busy_until.(ctx)) :: eng.interrupted
          | None -> ())
        | Some _ | None -> ())
      eng.ctx_of
  end;
  (* Oldest squashed sub-thread per affected thread: the restart point. *)
  let oldest : (int, Subthread.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (s : Subthread.t) ->
      match Hashtbl.find_opt oldest s.Subthread.tid with
      | Some o when o.Subthread.id <= s.Subthread.id -> ()
      | Some _ | None -> Hashtbl.replace oldest s.Subthread.tid s)
    squash;
  (* Undo architectural state newest-sub first. For conflicting memory
     accesses in a race-free program, sub-thread order agrees with
     chronology, so per-sub copy-on-write replay is sound. *)
  let words = ref 0 and wal_undone = ref 0 in
  let squash_desc =
    List.sort (fun (a : Subthread.t) b -> compare b.Subthread.id a.Subthread.id) squash
  in
  let squashed_ids : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Subthread.t) ->
      Hashtbl.replace squashed_ids s.Subthread.id ();
      cancel_ctx_of_thread eng s.Subthread.tid;
      words :=
        !words
        + Exec.Undo_log.replay ~mem:st.Exec.State.mem ~atomics:st.Exec.State.atomics
            ~io:st.Exec.State.io s.Subthread.undo;
      s.Subthread.status <- Subthread.Squashed;
      Rol.remove eng.rol s.Subthread.id)
    squash_desc;
  (* Runtime (WAL) operations are NOT ordered by sub-thread id — the
     allocator serves concurrent sub-threads in real time — so their undo
     must walk the log in reverse LSN order (ARIES-style), across all
     squashed sub-threads at once. *)
  let in_squash o = Hashtbl.mem squashed_ids o in
  List.iter
    (fun (e : Wal.entry) ->
      incr wal_undone;
      match e.Wal.op with
      | Wal.Alloc { addr; size = _ } -> (
        match Vm.Mem.block_size st.Exec.State.mem addr with
        | Some _ -> Vm.Mem.undo_alloc st.Exec.State.mem addr
        | None -> ())
      | Wal.Free _ ->
        (* The free was quarantined: the block never left the allocator,
           so dropping the squashed sub-thread's freed_blocks list is the
           whole undo. *)
        ()
      | Wal.Thread_create { tid } -> destroy_thread eng tid
      | Wal.Rol_insert _ | Wal.Sched_enqueue _ | Wal.Io_op _ -> ())
    (Wal.entries_for eng.wal ~orders:in_squash);
  ignore (Wal.drop_for eng.wal ~orders:in_squash);
  (* Clean synchronization-object state touched by squashed work. *)
  let affected tid = Hashtbl.mem oldest tid && not (Tidtab.get eng.destroyed tid) in
  let squashed_or_destroyed tid =
    Hashtbl.mem oldest tid || Tidtab.get eng.destroyed tid
  in
  Array.iteri
    (fun mi (mu : Exec.State.mutex) ->
      (match mu.Exec.State.holder with
      | Some h
        when squashed_or_destroyed h
             && List.exists
                  (fun (s : Subthread.t) ->
                    s.Subthread.tid = h
                    && Subthread.mem_alias s (Subthread.Mutex mi))
                  squash ->
        Exec.State.set_holder st mi None
      | Some _ | None -> ());
      mu.Exec.State.mwaiters <-
        Exec.Fifo.filter (fun w -> not (squashed_or_destroyed w)) mu.Exec.State.mwaiters)
    st.Exec.State.mutexes;
  Array.iter
    (fun (c : Exec.State.cond) ->
      c.Exec.State.sleepers <-
        Exec.Fifo.filter (fun w -> not (squashed_or_destroyed w)) c.Exec.State.sleepers)
    st.Exec.State.conds;
  Array.iter
    (fun (b : Exec.State.barrier) ->
      b.Exec.State.arrived <-
        List.filter (fun w -> not (squashed_or_destroyed w)) b.Exec.State.arrived)
    st.Exec.State.barriers;
  (* Join registrations made by a squashed thread are stale — it restarts
     from a checkpoint at or before the join and re-registers — and left
     in place the target's exit would wake it spuriously (even out of a
     later [Done] state). Registrations pointing AT a reset thread are
     kept: surviving joiners must still be woken when it re-exits. *)
  for tid = 0 to st.Exec.State.n_threads - 1 do
    let tcb = Exec.State.thread st tid in
    tcb.Vm.Tcb.joiners <-
      List.filter (fun j -> not (squashed_or_destroyed j)) tcb.Vm.Tcb.joiners
  done;
  (* Reset affected threads to their oldest squashed checkpoint. *)
  let restarts = ref [] in
  Hashtbl.iter
    (fun tid (o : Subthread.t) ->
      if affected tid then begin
        let tcb = Exec.State.thread st tid in
        if tcb.Vm.Tcb.wait = Vm.Tcb.Done then begin
          (* The thread had exited inside squashed work: revive it. *)
          st.Exec.State.live_threads <- st.Exec.State.live_threads + 1;
          Order.add_thread eng.order ~tid ~group:tcb.Vm.Tcb.group
        end;
        (* Rolls the thread's barrier arrival counters back with it;
           [barrier_done] stays monotonic, so dispatch skips re-arrivals
           for episodes that already released. *)
        Vm.Tcb.restore_state tcb o.Subthread.saved;
        tcb.Vm.Tcb.wait <- Vm.Tcb.Runnable;
        (* Re-grant the mutexes held at the restore point (the checkpoint
           may sit inside a critical section). A conflicting unsquashed
           holder can remain when the hand-off left the squash set through
           an alias-free unlock sub-thread; the reset thread then queues
           at the head and resumes when the mutex is handed back. *)
        List.iter
          (fun m ->
            let mu = st.Exec.State.mutexes.(m) in
            match mu.Exec.State.holder with
            | None -> Exec.State.set_holder st m (Some tid)
            | Some h when h = tid -> ()
            | Some _ ->
              Sim.Stats.incr st.Exec.State.stats "gprs.regrant_waits";
              mu.Exec.State.mwaiters <- Exec.Fifo.push_front mu.Exec.State.mwaiters tid;
              tcb.Vm.Tcb.wait <- Vm.Tcb.On_mutex m)
          o.Subthread.held_locks;
        (* A wake-sub checkpoint taken while queued for the mutex re-joins
           the queue (or takes the mutex if free). *)
        (match o.Subthread.pending_mutex with
        | None -> ()
        | Some m ->
          let mu = st.Exec.State.mutexes.(m) in
          (match mu.Exec.State.holder with
          | None -> Exec.State.set_holder st m (Some tid)
          | Some h when h = tid -> ()
          | Some _ ->
            mu.Exec.State.mwaiters <- Exec.Fifo.push mu.Exec.State.mwaiters tid;
            tcb.Vm.Tcb.wait <- Vm.Tcb.On_mutex m));
        (* Joiners registered by surviving threads must outlive the reset:
           clearing them would lose their wakeup when this thread
           re-exits. Duplicate registrations from re-executed joins are
           harmless (wakes are idempotent). *)
        Order.set_eligible eng.order tid true;
        Tidtab.set eng.cur_sub tid None;
        ignore (Sched.Scheduler.remove eng.sched tid);
        Tidtab.set eng.queued tid false;
        Tidtab.set eng.pending_delay tid 0;
        (* The replacement sub-thread is created lazily at the thread's
           next dispatch (non-sync restart points) or at its next token
           grant (sync restart points). *)
        (* A thread reset into a mutex queue passes its turns until the
           hand-off, like any blocked acquirer. *)
        (match tcb.Vm.Tcb.wait with
        | Vm.Tcb.On_mutex _ -> Order.set_eligible eng.order tid false
        | _ -> ());
        restarts := tid :: !restarts
      end)
    oldest;
  (* Stranded waiters: a second recovery can release a mutex whose queue
     still holds threads reset by an earlier one — hand it to the head. *)
  Array.iteri
    (fun mi (mu : Exec.State.mutex) ->
      match (mu.Exec.State.holder, Exec.Fifo.pop mu.Exec.State.mwaiters) with
      | None, Some (w, rest) ->
        Exec.State.set_holder st mi (Some w);
        mu.Exec.State.mwaiters <- rest;
        let wt = Exec.State.thread st w in
        wt.Vm.Tcb.wait <- Vm.Tcb.Runnable;
        Order.set_eligible eng.order w true;
        (match List.find_opt (fun t -> t = w) !restarts with
        | Some _ -> ()
        | None -> make_runnable eng ~ctx_hint:w w)
      | (Some _ | None), _ -> ())
    st.Exec.State.mutexes;
  let duration =
    costs.Vm.Costs.pause_resume
    + (costs.Vm.Costs.restore_per_word * !words)
    + (costs.Vm.Costs.wal_undo * !wal_undone)
  in
  Sim.Stats.add st.Exec.State.stats "gprs.restored_words" !words;
  Sim.Stats.add st.Exec.State.stats "gprs.wal_undone" !wal_undone;
  (* Every squashed record is now unreachable (out of the ROL, current-sub
     table entries cleared, checkpoints consumed): recycle them. *)
  List.iter (fun s -> release_sub eng s) squash;
  eng.restart_pending <- List.sort compare !restarts;
  ignore
    (Sim.Event_queue.schedule st.Exec.State.evq
       ~time:(now eng + Stdlib.max 1 duration)
       Recovery_done)

let recovery_done eng =
  eng.recovering <- false;
  List.iter
    (fun tid ->
      if (Exec.State.thread eng.st tid).Vm.Tcb.wait = Vm.Tcb.Runnable then
        make_runnable eng ~ctx_hint:tid tid)
    eng.restart_pending;
  eng.restart_pending <- [];
  (* Resume contexts stalled by basic recovery. *)
  List.iter
    (fun (ctx, busy_until) ->
      let t = Stdlib.max busy_until (now eng + 1) in
      eng.busy_until.(ctx) <- t;
      eng.tick_handle.(ctx) <-
        Some
          (Sim.Event_queue.schedule eng.st.Exec.State.evq ~prio:(1 + ctx)
             ~time:t (Tick ctx)))
    eng.interrupted;
  eng.interrupted <- [];
  try_grant eng

let handle_report eng victim =
  let st = eng.st in
  Sim.Stats.incr st.Exec.State.stats "gprs.exceptions";
  if eng.recovering then eng.pending_reports <- eng.pending_reports @ [ victim ]
  else
    match victim with
    | V_runtime ->
      (* The exception corrupted GPRS's own structures: repair them by
         walking the WAL; no user work is lost (§3.4). *)
      Sim.Stats.incr st.Exec.State.stats "gprs.runtime_exceptions";
      let duration =
        eng.cfg.costs.Vm.Costs.pause_resume
        + (eng.cfg.costs.Vm.Costs.wal_undo * Wal.size eng.wal)
      in
      eng.recovering <- true;
      ignore
        (Sim.Event_queue.schedule st.Exec.State.evq
           ~time:(now eng + Stdlib.max 1 duration)
           Recovery_done)
    | V_sub id -> (
      match Rol.find eng.rol id with
      | None ->
        (* Already squashed or the thread was destroyed: nothing live was
           corrupted. *)
        Sim.Stats.incr st.Exec.State.stats "gprs.exn_on_dead_sub"
      | Some sub -> recover eng sub)

(* ------------------------------------------------------------------ *)
(* Fault plumbing and the main loop                                    *)
(* ------------------------------------------------------------------ *)

let schedule_next_fault eng =
  let inj, ev = Faults.Injector.next eng.injector in
  eng.injector <- inj;
  match ev with
  | None -> ()
  | Some ev ->
    let time = Stdlib.max ev.Faults.Injector.occurred_at (now eng) in
    add_fault_time eng time;
    ignore
      (Sim.Event_queue.schedule eng.st.Exec.State.evq ~time
         (Fault_occur { ctx = ev.Faults.Injector.ctx; kind = ev.Faults.Injector.kind }))

let fault_occur eng ctx kind =
  let victim =
    match eng.ctx_of.(ctx) with
    | Some tid -> (
      match cur_sub_opt eng tid with
      | Some sub -> V_sub sub.Subthread.id
      | None -> V_runtime)
    | None -> V_runtime
  in
  add_fault_time eng (now eng + eng.cfg.costs.Vm.Costs.detection_latency);
  ignore
    (Sim.Event_queue.schedule eng.st.Exec.State.evq
       ~time:(now eng + eng.cfg.costs.Vm.Costs.detection_latency)
       (Fault_report { victim; ctx; kind }));
  schedule_next_fault eng

(* Permanent revocation (§3.5 extension): retire the context. A thread
   running on it migrates — its in-flight instruction's effects were
   applied at dispatch, so requeueing resumes it at the next one. *)
let revoke_context eng ctx =
  if not eng.dead_ctx.(ctx) then begin
    eng.dead_ctx.(ctx) <- true;
    Sim.Stats.incr eng.st.Exec.State.stats "gprs.contexts_revoked";
    (match eng.tick_handle.(ctx) with
    | Some h -> Sim.Event_queue.cancel eng.st.Exec.State.evq h
    | None -> ());
    eng.tick_handle.(ctx) <- None;
    match eng.ctx_of.(ctx) with
    | Some tid ->
      eng.ctx_of.(ctx) <- None;
      let tcb = Exec.State.thread eng.st tid in
      if tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then make_runnable eng ~ctx_hint:tid tid
    | None -> ()
  end

let all_contexts_dead eng = Array.for_all Fun.id eng.dead_ctx

let finished eng = Exec.State.all_exited eng.st && Rol.is_empty eng.rol

let finalize eng ~dnc =
  let st = eng.st in
  Sim.Stats.set_max st.Exec.State.stats "gprs.rol_depth" (Rol.max_size eng.rol);
  Sim.Stats.set_max st.Exec.State.stats "wal.high_water" (Wal.high_water eng.wal);
  (* Pool effectiveness counters are host-side observations, recorded only
     under --profile so run stats stay identical across fused/unfused
     legs. *)
  if !Vm.Block.profiling then begin
    let hits, misses, live_hw = Subthread.pool_stats eng.pool in
    Sim.Stats.add st.Exec.State.stats "pool.sub.hits" hits;
    Sim.Stats.add st.Exec.State.stats "pool.sub.misses" misses;
    Sim.Stats.set_max st.Exec.State.stats "pool.sub.live_hw" live_hw;
    let cells_alloc, cells_recycled =
      Sim.Event_queue.cell_stats st.Exec.State.evq
    in
    Sim.Stats.add st.Exec.State.stats "pool.evq.cells_alloc" cells_alloc;
    Sim.Stats.add st.Exec.State.stats "pool.evq.cells_recycled" cells_recycled
  end;
  if dnc && Sys.getenv_opt "GPRS_DEBUG" <> None then begin
    Format.eprintf "=== GPRS wedge dump (t=%d) ===@." (now eng);
    Format.eprintf "holder=%s recovering=%b sched_len=%d@."
      (match Order.holder eng.order with
      | Some t -> string_of_int t
      | None -> "none")
      eng.recovering
      (Sched.Scheduler.length eng.sched);
    for tid = 0 to st.Exec.State.n_threads - 1 do
      let tcb = Exec.State.thread st tid in
      Format.eprintf "tid=%d wait=%a eligible=%b on_ctx=%b queued=%b sub=%s@." tid
        Vm.Tcb.pp_wait tcb.Vm.Tcb.wait
        (Order.is_eligible eng.order tid)
        (on_ctx eng tid) (Tidtab.get eng.queued tid)
        (match cur_sub_opt eng tid with
        | Some s -> Format.asprintf "%a" Subthread.pp s
        | None -> "-")
    done;
    Format.eprintf "rol: %a@."
      (Format.pp_print_list ~pp_sep:Format.pp_print_space Subthread.pp)
      (Rol.to_list eng.rol);
    List.iter
      (fun (t, m) -> Format.eprintf "  [%d] %s@." t m)
      (Sim.Trace.to_list st.Exec.State.trace)
  end;
  Exec.State.mk_result st ~dnc

let mk_eng cfg st ~order ~injector ~destroyed ~dead_ctx ~next_sub_id ~stable =
  let stats = st.Exec.State.stats in
  {
    cfg;
    st;
    sched = Sched.Scheduler.create Sched.Scheduler.Work_steal ~n_contexts:cfg.n_contexts;
    ctx_of = Array.make cfg.n_contexts None;
    tick_handle = Array.make cfg.n_contexts None;
    busy_until = Array.make cfg.n_contexts 0;
    dead_ctx;
    order;
    rol = Rol.create ();
    wal = Wal.create ~stable ();
    next_sub_id;
    pool = Subthread.pool_create ();
    cur_sub = Tidtab.create None;
    pending_delay = Tidtab.create 0;
    queued = Tidtab.create false;
    destroyed;
    recovering = false;
    restart_pending = [];
    interrupted = [];
    pending_reports = [];
    squashed_since_retire = 0;
    injector;
    allow_crash = true;
    grant_guard = 0;
    fault_times = [];
    budget = Option.value ~default:max_int cfg.max_cycles;
    instrs = Sim.Stats.counter stats "instrs";
    h_subthreads = Sim.Stats.Handle.counter stats "gprs.subthreads";
    h_tokens = Sim.Stats.Handle.counter stats "gprs.tokens";
    h_sync_parks = Sim.Stats.Handle.counter stats "gprs.sync_parks";
    h_retired = Sim.Stats.Handle.counter stats "gprs.retired";
    h_steals = Sim.Stats.Handle.counter stats "gprs.steals";
    h_opaque_calls = Sim.Stats.Handle.counter stats "gprs.opaque_calls";
    h_sub_cycles = Sim.Stats.Handle.summary stats "gprs.sub_cycles";
    io_tid = 0;
  }

(* §3.2's coverage of the scheduler and IO metadata: queue inserts and
   file-growth operations are logged at their real sites, on behalf of
   the acting thread's current sub-thread. Threads without a current sub
   (restart releases) need no record — their enqueue is reconstructed by
   the restart logic itself, not replayed from the log. Neither append
   charges extra cycles: the boundary cost already budgets two WAL
   appends per sub-thread and [io_per_word] subsumes the IO append. *)
let install_hooks eng =
  Sched.Scheduler.set_on_enqueue eng.sched
    (Some
       (fun tid ->
         match cur_sub_opt eng tid with
         | Some sub ->
           ignore
             (Wal.append eng.wal ~at:(now eng) ~order:sub.Subthread.id
                (Wal.Sched_enqueue { sub = sub.Subthread.id }))
         | None -> ()));
  eng.st.Exec.State.on_io_grow <-
    Some
      (fun file words ->
        match cur_sub_opt eng eng.io_tid with
        | Some sub ->
          ignore
            (Wal.append eng.wal ~at:(now eng) ~order:sub.Subthread.id
               (Wal.Io_op { file; words }))
        | None -> ())

let boot_checkpoint eng =
  if Wal.stable_armed eng.wal then begin
    let brk, free, used = Vm.Mem.alloc_parts eng.st.Exec.State.mem in
    Wal.log_checkpoint eng.wal ~min_retired:0 ~active:[] ~brk ~free ~used
  end

let run_loop eng =
  let st = eng.st and cfg = eng.cfg in
  let rec loop () =
    if eng.squashed_since_retire > cfg.livelock_squashes then finalize eng ~dnc:true
    else if finished eng then finalize eng ~dnc:false
    else if all_contexts_dead eng then finalize eng ~dnc:true
    else
      match Sim.Event_queue.pop st.Exec.State.evq with
      | None ->
        if finished eng then finalize eng ~dnc:false
        else
          raise
            (Exec.State.Deadlock
               (Printf.sprintf
                  "gprs: %d live threads, rol=%d, no pending events"
                  st.Exec.State.live_threads (Rol.size eng.rol)))
      | Some (time, ev) -> (
        match cfg.max_cycles with
        | Some budget when time > budget -> finalize eng ~dnc:true
        | Some _ | None ->
          (match ev with
          | Tick ctx -> (
            eng.tick_handle.(ctx) <- None;
            match eng.ctx_of.(ctx) with
            | None -> fill eng ctx
            | Some tid -> (
              let tcb = Exec.State.thread st tid in
              match tcb.Vm.Tcb.wait with
              | Vm.Tcb.Runnable -> dispatch eng ctx tcb
              | Vm.Tcb.On_mutex _ | Vm.Tcb.On_cond _ | Vm.Tcb.Reacquire _
              | Vm.Tcb.On_barrier _ | Vm.Tcb.On_join _ | Vm.Tcb.On_token
              | Vm.Tcb.Done ->
                eng.ctx_of.(ctx) <- None;
                fill eng ctx))
          | Retire_check -> retire eng
          | Fault_occur { ctx; kind } ->
            remove_fault_time eng time;
            if kind = Faults.Injector.Crash then begin
              if not eng.allow_crash then
                (* a cold-recovered machine: consume and move on *)
                schedule_next_fault eng
              else if eng.recovering then begin
                (* Mid-live-recovery the WAL image is torn (squashed
                   orders not yet dropped, undo half-applied): hold the
                   crash until the machine is consistent again, like the
                   armed-LSN hook does. *)
                add_fault_time eng (time + 1);
                ignore
                  (Sim.Event_queue.schedule st.Exec.State.evq ~time:(time + 1)
                     (Fault_occur { ctx; kind }))
              end
              else raise Crash_signal
            end
            else fault_occur eng ctx kind
          | Fault_report { victim; ctx; kind } ->
            remove_fault_time eng time;
            if
              eng.cfg.revoke_contexts
              && kind = Faults.Injector.Resource_revocation
            then revoke_context eng ctx;
            handle_report eng victim
          | Recovery_done ->
            recovery_done eng;
            retire eng;
            (match eng.pending_reports with
            | [] -> ()
            | v :: rest ->
              eng.pending_reports <- rest;
              handle_report eng v)
          | Crash_point -> raise Crash_signal);
          try_grant eng;
          loop ())
  in
  loop ()

(* Rebuild a running engine from the durable remains of a crashed one.
   The caller (lib/recovery) has already done ARIES analysis over the
   serialized WAL: [redo] reconstructs the allocator (checkpoint image +
   conditional LSN-order replay; returns ops applied), [loser_ops] are
   the log records of the in-flight sub-threads in reverse LSN order,
   [replayed] is the redo-scan length (for the modeled repair duration),
   and [next_sub] continues the order-id sequence past every id the log
   ever granted. Redo runs before undo, as in ARIES: undo's inverse
   operations ([undo_alloc]) assume the exact crash-time allocator,
   which only exists after the retired prefix has been re-applied.
   Returns the resume continuation; everything up to scheduling the
   [Recovery_done] event has happened when it is handed back, so the
   caller can time recovery separately from re-execution. *)
let cold_restart (d : crash_dump) ~redo ~loser_ops ~replayed ~next_sub =
  Faults.Points.strike Faults.Points.Cold_restart;
  let st = d.d_st in
  let cfg = { d.d_cfg with crash_lsn = None; crash_cycle = None } in
  Sim.Event_queue.clear st.Exec.State.evq;
  st.Exec.State.current_undo <- None;
  st.Exec.State.on_io_grow <- None;
  let eng =
    mk_eng cfg st ~order:d.d_order ~injector:d.d_injector
      ~destroyed:d.d_destroyed ~dead_ctx:d.d_dead_ctx ~next_sub_id:next_sub
      ~stable:cfg.wal_stable
  in
  eng.allow_crash <- false;
  install_hooks eng;
  (* Armed points keep watching the restarted engine's WAL (the crash
     LSN does not: it already fired). *)
  Wal.set_on_append eng.wal
    (Some (fun _lsn -> fire_point eng Faults.Points.Wal_append));
  let stats = st.Exec.State.stats in
  (* Restart points: the oldest in-flight sub-thread per thread. Threads
     with no in-flight sub-thread lost nothing — their last sub-thread
     retired, so their TCB state is committed; they stay exactly as they
     were (parked on their sync object, or awaiting the ordering token). *)
  let oldest : (int, Subthread.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Subthread.t) ->
      match Hashtbl.find_opt oldest s.Subthread.tid with
      | Some o when o.Subthread.id <= s.Subthread.id -> ()
      | Some _ | None -> Hashtbl.replace oldest s.Subthread.tid s)
    d.d_subs;
  (* Redo: rebuild the allocator lists from the last checkpoint plus the
     retired-prefix records. *)
  let redone = redo st.Exec.State.mem in
  (* Undo, architectural half: replay the in-flight sub-threads'
     copy-on-write logs, newest sub-thread first (order agrees with
     chronology for conflicting accesses in race-free programs). *)
  Faults.Points.strike Faults.Points.Recovery_undo;
  let words = ref 0 in
  let losers_desc =
    List.sort
      (fun (a : Subthread.t) b -> compare b.Subthread.id a.Subthread.id)
      d.d_subs
  in
  List.iter
    (fun (s : Subthread.t) ->
      s.Subthread.status <- Subthread.Squashed;
      words :=
        !words
        + Exec.Undo_log.replay ~mem:st.Exec.State.mem
            ~atomics:st.Exec.State.atomics ~io:st.Exec.State.io
            s.Subthread.undo)
    losers_desc;
  (* Undo, runtime half: walk the losers' log records in reverse LSN
     order, exactly as live recovery does. *)
  let undone = ref 0 in
  List.iter
    (fun (e : Wal.entry) ->
      incr undone;
      match e.Wal.op with
      | Wal.Alloc { addr; size = _ } -> (
        match Vm.Mem.block_size st.Exec.State.mem addr with
        | Some _ -> Vm.Mem.undo_alloc st.Exec.State.mem addr
        | None -> ())
      | Wal.Thread_create { tid } -> destroy_thread eng tid
      | Wal.Free _ (* quarantined: the block never left the allocator *)
      | Wal.Rol_insert _ | Wal.Sched_enqueue _ | Wal.Io_op _ -> ())
    loser_ops;
  (* Synchronization objects are architectural state and survive the
     crash. Like live recovery, scrub only the threads being rolled back
     (or destroyed) out of their queues — the per-thread restores
     re-establish holders from the checkpoints. Threads that are NOT
     rolled back keep their registrations: a sleeper whose wait-sub
     retired must still be on the condvar when the signal arrives. *)
  let rolled_back tid =
    Hashtbl.mem oldest tid || Tidtab.get eng.destroyed tid
  in
  Array.iteri
    (fun mi (mu : Exec.State.mutex) ->
      (match mu.Exec.State.holder with
      | Some h when rolled_back h -> Exec.State.set_holder st mi None
      | Some _ | None -> ());
      mu.Exec.State.mwaiters <-
        Exec.Fifo.filter (fun w -> not (rolled_back w)) mu.Exec.State.mwaiters)
    st.Exec.State.mutexes;
  Array.iter
    (fun (c : Exec.State.cond) ->
      c.Exec.State.sleepers <-
        Exec.Fifo.filter (fun w -> not (rolled_back w)) c.Exec.State.sleepers)
    st.Exec.State.conds;
  Array.iter
    (fun (b : Exec.State.barrier) ->
      b.Exec.State.arrived <-
        List.filter (fun w -> not (rolled_back w)) b.Exec.State.arrived)
    st.Exec.State.barriers;
  (* Join registrations made by a rolled-back thread are stale: its
     restore checkpoint precedes the blocking join (the sub opened at the
     join boundary is the one being squashed), so it re-registers on
     re-execution. Left in place, the target's exit would fire a spurious
     wake — resurrecting the joiner even after it has itself exited. *)
  for tid = 0 to st.Exec.State.n_threads - 1 do
    let tcb = Exec.State.thread st tid in
    tcb.Vm.Tcb.joiners <-
      List.filter (fun j -> not (rolled_back j)) tcb.Vm.Tcb.joiners
  done;
  (* Precise restart: each affected thread resumes from its oldest
     in-flight sub-thread's history-buffer checkpoint. Restores run in
     ascending checkpoint order: when two checkpoints both record a held
     mutex (an older checkpoint predating a handover), the chronologically
     earlier hold wins and the later claimant queues until the re-executed
     unlock hands it over. *)
  let restores =
    Hashtbl.fold (fun _ (s : Subthread.t) acc -> s :: acc) oldest []
    |> List.sort (fun (a : Subthread.t) b -> compare a.Subthread.id b.Subthread.id)
  in
  let restarts = ref [] in
  List.iter
    (fun (o : Subthread.t) ->
      let tid = o.Subthread.tid in
      (* A loser Thread_create undo above may have destroyed this tid. *)
      if not (Tidtab.get eng.destroyed tid) then begin
        let tcb = Exec.State.thread st tid in
        if tcb.Vm.Tcb.wait = Vm.Tcb.Done then begin
          (* The thread exited inside lost work: revive it. The crash can
             strike between the [Done] transition and the order-table
             removal (a joiner-wake append mid-[Exit]), so membership is
             checked rather than assumed. *)
          st.Exec.State.live_threads <- st.Exec.State.live_threads + 1;
          if not (Order.mem eng.order tid) then
            Order.add_thread eng.order ~tid ~group:tcb.Vm.Tcb.group
        end;
        Vm.Tcb.restore_state tcb o.Subthread.saved;
        tcb.Vm.Tcb.wait <- Vm.Tcb.Runnable;
        List.iter
          (fun m ->
            let mu = st.Exec.State.mutexes.(m) in
            match mu.Exec.State.holder with
            | None -> Exec.State.set_holder st m (Some tid)
            | Some h when h = tid -> ()
            | Some _ ->
              Sim.Stats.incr stats "gprs.regrant_waits";
              mu.Exec.State.mwaiters <-
                Exec.Fifo.push_front mu.Exec.State.mwaiters tid;
              tcb.Vm.Tcb.wait <- Vm.Tcb.On_mutex m)
          o.Subthread.held_locks;
        (match o.Subthread.pending_mutex with
        | None -> ()
        | Some m -> (
          let mu = st.Exec.State.mutexes.(m) in
          match mu.Exec.State.holder with
          | None -> Exec.State.set_holder st m (Some tid)
          | Some h when h = tid -> ()
          | Some _ ->
            mu.Exec.State.mwaiters <- Exec.Fifo.push mu.Exec.State.mwaiters tid;
            tcb.Vm.Tcb.wait <- Vm.Tcb.On_mutex m));
        Order.set_eligible eng.order tid (tcb.Vm.Tcb.wait = Vm.Tcb.Runnable);
        restarts := tid :: !restarts
      end)
    restores;
  (* Stranded waiters: the rollbacks can leave a mutex free while its
     queue still holds un-rolled-back threads — hand it to the head. *)
  Array.iteri
    (fun mi (mu : Exec.State.mutex) ->
      match (mu.Exec.State.holder, Exec.Fifo.pop mu.Exec.State.mwaiters) with
      | None, Some (w, rest) ->
        Exec.State.set_holder st mi (Some w);
        mu.Exec.State.mwaiters <- rest;
        let wt = Exec.State.thread st w in
        wt.Vm.Tcb.wait <- Vm.Tcb.Runnable;
        Order.set_eligible eng.order w true;
        if not (List.mem w !restarts) then make_runnable eng ~ctx_hint:w w
      | (Some _ | None), _ -> ())
    st.Exec.State.mutexes;
  (* Runnable threads with no in-flight sub-thread lost only their seat
     in the (volatile) work queues — e.g. threads a pre-crash live
     recovery had reset and re-queued. Their TCBs are current; they just
     need re-enqueueing when recovery completes. *)
  for tid = 0 to st.Exec.State.n_threads - 1 do
    if
      (Exec.State.thread st tid).Vm.Tcb.wait = Vm.Tcb.Runnable
      && (not (rolled_back tid))
      && not (List.mem tid !restarts)
    then restarts := tid :: !restarts
  done;
  Sim.Stats.incr stats "recovery.cold_restarts";
  Sim.Stats.add stats "recovery.replayed_lsns" replayed;
  Sim.Stats.add stats "recovery.redone_ops" redone;
  Sim.Stats.add stats "recovery.squashed_subs" (List.length d.d_subs);
  Sim.Stats.add stats "recovery.restored_words" !words;
  Sim.Stats.add stats "recovery.wal_undone" !undone;
  let costs = cfg.costs in
  let duration =
    costs.Vm.Costs.pause_resume
    + (costs.Vm.Costs.restore_per_word * !words)
    + (costs.Vm.Costs.wal_undo * (replayed + !undone))
  in
  eng.recovering <- true;
  eng.restart_pending <- List.sort compare !restarts;
  ignore
    (Sim.Event_queue.schedule st.Exec.State.evq
       ~time:(d.d_cycle + Stdlib.max 1 duration)
       Recovery_done);
  boot_checkpoint eng;
  schedule_next_fault eng;
  fun () -> run_loop eng

let run ?(lint = `Warn) ?wal_out ?blocks cfg program =
  (match lint with
  | `Off -> ()
  | (`Warn | `Strict) as mode -> (
    let diags = Lint.Check.program program in
    let visible =
      List.filter
        (fun d -> d.Lint.Diagnostic.severity <> Lint.Diagnostic.Info)
        diags
    in
    match mode with
    | `Strict when Lint.Check.has_errors diags ->
      raise (Lint.Check.Rejected (Lint.Check.errors diags))
    | `Strict | `Warn ->
      if visible <> [] then
        Format.eprintf "%a"
          (Lint.Render.pp ~title:"GPRS-lint (pre-execution)")
          visible));
  let st =
    Exec.State.create ?blocks ~program ~costs:cfg.costs
      ~n_contexts:cfg.n_contexts ~seed:cfg.seed ()
  in
  let stable =
    cfg.wal_stable || cfg.crash_lsn <> None || cfg.crash_cycle <> None
  in
  let eng =
    mk_eng cfg st
      ~order:(Order.create cfg.ordering ~group_weights:program.Vm.Isa.group_weights)
      ~injector:
        (Faults.Injector.create cfg.injector ~n_contexts:cfg.n_contexts
           ~cycles_per_second:cfg.costs.Vm.Costs.cycles_per_second)
      ~destroyed:(Tidtab.create false)
      ~dead_ctx:(Array.make cfg.n_contexts false)
      ~next_sub_id:0 ~stable
  in
  install_hooks eng;
  boot_checkpoint eng;
  Wal.set_on_append eng.wal
    (Some
       (fun lsn ->
         (match cfg.crash_lsn with
         | Some k when lsn = k && not eng.recovering -> raise Crash_signal
         | _ -> ());
         fire_point eng Faults.Points.Wal_append));
  try
    (match cfg.crash_cycle with
    | Some t ->
      ignore (Sim.Event_queue.schedule st.Exec.State.evq ~time:t Crash_point)
    | None -> ());
    let main = Exec.State.thread st Exec.State.main_tid in
    Order.add_thread eng.order ~tid:Exec.State.main_tid ~group:main.Vm.Tcb.group;
    ignore (new_sub eng main);
    make_runnable eng ~ctx_hint:0 Exec.State.main_tid;
    (* Fault horizon armed before the first dispatch so fused chains never
       cross the first occurrence. *)
    schedule_next_fault eng;
    fill_all eng;
    let res = run_loop eng in
    (match wal_out with
    | Some r ->
      r := Option.value ~default:"" (Wal.stable_image eng.wal)
    | None -> ());
    res
  with Crash_signal -> raise (Crashed (capture eng))
