type config = {
  n_contexts : int;
  seed : int;
  max_cycles : int option;
  checkpoint_interval : float;
  injector : Faults.Injector.config;
  livelock_rollbacks : int;
  costs : Vm.Costs.t;
  commit_progress_fraction : float;
      (** a checkpoint only commits when every pre-existing computing
          thread has advanced by at least this fraction of an interval of
          its own work since the last committed checkpoint. This anchors
          checkpoints to {e program} progress, as the paper's sync-point
          barriers do — without it, time-triggered commits of arbitrary
          quiesced states let CPR crawl through exception storms the
          paper's scheme cannot survive. 0.0 disables the gate. *)
  crash_at : int option;
      (** whole-runtime crash at this simulated cycle: all work since the
          last committed global checkpoint is lost and the machine
          restarts from it — the comparison leg the crash sweep runs
          against GPRS's WAL-driven cold recovery *)
}

let default_config =
  {
    n_contexts = 24;
    seed = 1;
    max_cycles = None;
    checkpoint_interval = 1.0;
    injector = Faults.Injector.default_config;
    livelock_rollbacks = 200;
    costs = Vm.Costs.default;
    commit_progress_fraction = 0.5;
    crash_at = None;
  }

type event =
  | Tick of int
  | Ckpt_alarm
  | Ckpt_done
  | Fault_report of { occurred_at : int; ctx : int }
  | Restore_done
  | Crash_point  (* [crash_at] fired: roll back to the last checkpoint *)

(* A committed coordinated checkpoint: the restartable image of every
   thread plus synchronization-object and allocator state. Data words
   live in a page-granular dirty-tracked [Vm.Mem.image]: taking a
   checkpoint copies only pages written since the image was last synced,
   and restoring copies back only pages written since it was taken. *)
type snapshot = {
  taken_at : int;
  image : Vm.Mem.image;
  n_threads : int;
  live_threads : int;
  tcbs : Vm.Tcb.saved array;
  waits : Vm.Tcb.wait array;
  joiners : int list array;
  work_done : int array;  (** per-thread executed cycles, for progress gating *)
  barrier_done : int array array;
      (** CPR rolls everything back, including completed barrier
          episodes — unlike selective restart, the whole machine replays
          them. *)
  (* Waiter queues are immutable, so snapshotting them is by reference. *)
  mutex_state : (int option * Exec.Fifo.t) array;
  cond_state : Exec.Fifo.t array;
  barrier_state : int list array;
  alloc_state : Vm.Mem.alloc_state;
}

type mode = Normal | Quiescing | Recording | Restoring

type eng = {
  cfg : config;
  st : event Exec.State.t;
  mutable sched : Sched.Scheduler.t;
  ctx_of : int option array;
  last_tid : int array;
  started : int array;
  tick_handle : Sim.Event_queue.handle option array;
  mutable queued : (int, unit) Hashtbl.t;
  mutable mode : mode;
  (* Checkpoints, newest first; at most two retained. [cur_log] covers
     writes since the newest; [prev_log] covers the interval between the
     two. *)
  mutable snaps : snapshot list;
  (* Data images of dropped snapshots, recycled so steady-state
     checkpointing allocates nothing. *)
  mutable image_pool : Vm.Mem.image list;
  mutable cur_log : Exec.Undo_log.t;
  mutable prev_log : Exec.Undo_log.t;
  mutable alarm : Sim.Event_queue.handle option;
  mutable ckpt_done_handle : Sim.Event_queue.handle option;
  mutable quiesce_started : int;
  mutable injector : Faults.Injector.t;
  mutable pending_reports : (int * int) list;  (* (occurred_at, ctx), oldest first *)
  mutable consecutive_rollbacks : int;
  mutable restore_resets_to : int;  (* taken_at of last restore target *)
  mutable work_done : int array;  (* per-thread executed cycles; grown on demand *)
  (* Fused-dispatch horizons: a chain must not cross the armed checkpoint
     alarm or the outstanding fault report (max_int when none). *)
  mutable alarm_time : int;
  mutable next_report_time : int;
  budget : int;  (* max_cycles, or max_int *)
  instrs : int ref;  (* cached "instrs" counter *)
}

let note_work eng tid d =
  if tid >= Array.length eng.work_done then begin
    let grown = Array.make (Stdlib.max 16 (2 * (tid + 1))) 0 in
    Array.blit eng.work_done 0 grown 0 (Array.length eng.work_done);
    eng.work_done <- grown
  end;
  eng.work_done.(tid) <- eng.work_done.(tid) + d

let now eng = Exec.State.now eng.st

let grab_image eng =
  match eng.image_pool with
  | img :: rest ->
    eng.image_pool <- rest;
    img
  | [] -> Vm.Mem.alloc_image eng.st.Exec.State.mem

let take_snapshot eng =
  let st = eng.st in
  let n = st.Exec.State.n_threads in
  let image = grab_image eng in
  let copied = Vm.Mem.capture st.Exec.State.mem image in
  Sim.Stats.add st.Exec.State.stats "cpr.snap_words_copied" copied;
  {
    taken_at = now eng;
    image;
    n_threads = n;
    live_threads = st.Exec.State.live_threads;
    tcbs = Array.init n (fun i -> Vm.Tcb.copy_state st.Exec.State.threads.(i));
    waits = Array.init n (fun i -> st.Exec.State.threads.(i).Vm.Tcb.wait);
    joiners = Array.init n (fun i -> st.Exec.State.threads.(i).Vm.Tcb.joiners);
    barrier_done =
      Array.init n (fun i -> Array.copy st.Exec.State.threads.(i).Vm.Tcb.barrier_done);
    mutex_state =
      Array.map
        (fun (m : Exec.State.mutex) -> (m.Exec.State.holder, m.Exec.State.mwaiters))
        st.Exec.State.mutexes;
    cond_state =
      Array.map (fun (c : Exec.State.cond) -> c.Exec.State.sleepers) st.Exec.State.conds;
    barrier_state =
      Array.map (fun (b : Exec.State.barrier) -> b.Exec.State.arrived) st.Exec.State.barriers;
    alloc_state = Vm.Mem.save_alloc st.Exec.State.mem;
    work_done =
      Array.init n (fun i ->
          if i < Array.length eng.work_done then eng.work_done.(i) else 0);
  }

let restore_snapshot eng snap =
  let st = eng.st in
  st.Exec.State.n_threads <- snap.n_threads;
  st.Exec.State.live_threads <- snap.live_threads;
  for i = 0 to snap.n_threads - 1 do
    let tcb = st.Exec.State.threads.(i) in
    Vm.Tcb.restore_state tcb snap.tcbs.(i);
    tcb.Vm.Tcb.wait <- snap.waits.(i);
    tcb.Vm.Tcb.joiners <- snap.joiners.(i);
    Array.blit snap.barrier_done.(i) 0 tcb.Vm.Tcb.barrier_done 0
      (Array.length tcb.Vm.Tcb.barrier_done)
  done;
  (* The holder map is restored wholesale, so rebuild the TCBs'
     incremental held-mutex sets rather than replaying transitions. *)
  for i = 0 to snap.n_threads - 1 do
    st.Exec.State.threads.(i).Vm.Tcb.held_mutexes <- []
  done;
  Array.iteri
    (fun i (holder, waiters) ->
      let m = st.Exec.State.mutexes.(i) in
      m.Exec.State.holder <- holder;
      m.Exec.State.mwaiters <- waiters;
      match holder with
      | Some h -> Vm.Tcb.hold st.Exec.State.threads.(h) i
      | None -> ())
    snap.mutex_state;
  Array.iteri
    (fun i sleepers -> st.Exec.State.conds.(i).Exec.State.sleepers <- sleepers)
    snap.cond_state;
  Array.iteri
    (fun i arrived -> st.Exec.State.barriers.(i).Exec.State.arrived <- arrived)
    snap.barrier_state;
  let copied = Vm.Mem.restore_image st.Exec.State.mem snap.image in
  Sim.Stats.add st.Exec.State.stats "cpr.snap_words_uncopied" copied;
  Vm.Mem.restore_alloc st.Exec.State.mem snap.alloc_state;
  eng.work_done <- Array.copy snap.work_done

(* ------------------------------------------------------------------ *)
(* Dispatch machinery (baseline semantics; see Exec.Baseline).         *)
(* ------------------------------------------------------------------ *)

let on_ctx eng tid = Array.exists (fun o -> o = Some tid) eng.ctx_of

let make_runnable eng ~ctx_hint tid =
  if (not (Hashtbl.mem eng.queued tid)) && not (on_ctx eng tid) then begin
    Hashtbl.add eng.queued tid ();
    Sched.Scheduler.enqueue eng.sched ~ctx_hint tid
  end

let schedule_tick eng ctx ~after =
  let h =
    Sim.Event_queue.schedule eng.st.Exec.State.evq ~prio:(1 + ctx)
      ~time:(now eng + Stdlib.max Exec.Sem.min_cost after)
      (Tick ctx)
  in
  eng.tick_handle.(ctx) <- Some h

(* One integer bound for the fused chain, folding the budget, the armed
   checkpoint alarm, the outstanding fault report and the scheduler
   quantum — exactly the deopt predicate the sequential fused leg uses. *)
let hop_horizon eng ctx ~q_empty ~t_next =
  let quantum = eng.st.Exec.State.costs.Vm.Costs.quantum in
  let b = if eng.budget = max_int then max_int else eng.budget + 1 in
  let sched_h =
    let q = eng.started.(ctx) + quantum in
    if q_empty && t_next > q then t_next else q
  in
  Stdlib.min
    (Stdlib.min b eng.alarm_time)
    (Stdlib.min eng.next_report_time sched_h)

let dispatch eng ctx (tcb : Vm.Tcb.t) =
  let st = eng.st in
  let t0 = now eng in
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
  (match instr with Vm.Isa.Exit -> () | _ -> tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1);
  let wake ?(hint = ctx) tids = List.iter (make_runnable eng ~ctx_hint:hint) tids in
  let d =
    match instr with
    | Vm.Isa.Work { cost; run } | Vm.Isa.Opaque { cost; run } ->
      Exec.Sem.exec_work st tcb ~cost ~run
    | Vm.Isa.Lock { m } ->
      let acquired, d = Exec.Sem.try_lock st tcb (m tcb.Vm.Tcb.regs) in
      if acquired then tcb.Vm.Tcb.lock_depth <- tcb.Vm.Tcb.lock_depth + 1;
      d
    | Vm.Isa.Unlock { m } ->
      let woken, d = Exec.Sem.unlock st tcb (m tcb.Vm.Tcb.regs) in
      tcb.Vm.Tcb.lock_depth <- tcb.Vm.Tcb.lock_depth - 1;
      (match woken with Some w -> wake [ w ] | None -> ());
      d
    | Vm.Isa.Barrier { b } ->
      let released, d = Exec.Sem.barrier_arrive st tcb b in
      wake released;
      d
    | Vm.Isa.Cond_wait { c; m } ->
      let granted, d = Exec.Sem.cond_block st tcb ~c ~m in
      tcb.Vm.Tcb.lock_depth <- tcb.Vm.Tcb.lock_depth - 1;
      (match granted with Some w -> wake [ w ] | None -> ());
      d
    | Vm.Isa.Cond_signal { c; all } ->
      let _woken, runnable, d = Exec.Sem.cond_wake st ~c ~all in
      wake runnable;
      d
    | Vm.Isa.Atomic { var; rmw; dst } | Vm.Isa.Nonstd_atomic { var; rmw; dst } ->
      Exec.Sem.atomic_rmw st tcb ~var:(var tcb.Vm.Tcb.regs) ~rmw ~dst
    | Vm.Isa.Fork { group; proc; args; dst } ->
      let child, d = Exec.Sem.fork st tcb ~group ~proc ~args ~dst in
      wake [ child.Vm.Tcb.tid ];
      d
    | Vm.Isa.Join { tid } ->
      let _ready, d = Exec.Sem.join st tcb ~target:(tid tcb.Vm.Tcb.regs) in
      d
    | Vm.Isa.Alloc { size; dst } ->
      let _a, d = Exec.Sem.alloc st tcb ~size ~dst in
      d
    | Vm.Isa.Free { addr } ->
      let _sz, d = Exec.Sem.free_ st tcb ~addr in
      d
    | Vm.Isa.Exit ->
      let joiners, d = Exec.Sem.exit_thread st tcb in
      wake joiners;
      d
    | Vm.Isa.Goto _ | Vm.Isa.If _ | Vm.Isa.Cpr_begin | Vm.Isa.Cpr_end ->
      assert false
  in
  if Vm.Block.fusing () && tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then begin
    let q_empty = Sched.Scheduler.is_empty eng.sched in
    let t_next =
      match Sim.Event_queue.peek_time st.Exec.State.evq with
      | Some t -> t
      | None -> max_int
    in
    (* Strict on the alarm and report horizons: at those instants the
       alarm/report event outranks the tick (lower priority value), so
       the unfused engine quiesces or restores before dispatching. *)
    let horizon = hop_horizon eng ctx ~q_empty ~t_next in
    let vend =
      Exec.Fuse.run_chain st tcb ~instrs:eng.instrs ~horizon
        ~on_fused:(fun _ _ -> ())
        ~vstart:(t0 + Stdlib.max Exec.Sem.min_cost (!ctrl + d))
        ()
    in
    note_work eng tcb.Vm.Tcb.tid (vend - t0);
    schedule_tick eng ctx ~after:(vend - t0)
  end
  else begin
    note_work eng tcb.Vm.Tcb.tid (!ctrl + d);
    schedule_tick eng ctx ~after:(!ctrl + d)
  end

let fill eng ctx =
  if eng.mode = Normal then
    match Sched.Scheduler.take eng.sched ~ctx with
    | None -> ()
    | Some (tid, stolen) ->
      Hashtbl.remove eng.queued tid;
      let st = eng.st in
      let costs = st.Exec.State.costs in
      let extra =
        (if stolen then costs.Vm.Costs.steal else 0)
        + if eng.last_tid.(ctx) >= 0 && eng.last_tid.(ctx) <> tid then begin
            Sim.Stats.incr st.Exec.State.stats "ctx_switches";
            costs.Vm.Costs.ctx_switch
          end
          else 0
      in
      eng.ctx_of.(ctx) <- Some tid;
      eng.last_tid.(ctx) <- tid;
      eng.started.(ctx) <- now eng;
      if extra = 0 then dispatch eng ctx (Exec.State.thread st tid)
      else schedule_tick eng ctx ~after:extra

(* Stops at an empty run queue, past which [fill] is a no-op. *)
let fill_all eng =
  let n = Array.length eng.ctx_of in
  let ctx = ref 0 in
  while !ctx < n && not (Sched.Scheduler.is_empty eng.sched) do
    if eng.ctx_of.(!ctx) = None then fill eng !ctx;
    incr ctx
  done

let all_ctx_idle eng = Array.for_all (fun o -> o = None) eng.ctx_of

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

let tcb_words = Vm.Isa.n_registers + 2

let begin_recording eng =
  let st = eng.st in
  let costs = st.Exec.State.costs in
  eng.mode <- Recording;
  let dirty = Exec.Undo_log.size eng.cur_log in
  let words = dirty + (st.Exec.State.live_threads * tcb_words) in
  Sim.Stats.add st.Exec.State.stats "cpr.ckpt_words" words;
  Sim.Stats.observe st.Exec.State.stats "cpr.quiesce_cycles"
    (float_of_int (now eng - eng.quiesce_started));
  let record_time =
    (2 * costs.Vm.Costs.barrier_coord)
    + costs.Vm.Costs.record_per_word * words / Stdlib.max 1 eng.cfg.n_contexts
  in
  let h =
    Sim.Event_queue.schedule st.Exec.State.evq
      ~time:(now eng + Stdlib.max 1 record_time)
      Ckpt_done
  in
  eng.ckpt_done_handle <- Some h

(* Progress gate: the commit is anchored to program progress, like the
   paper's sync-point barriers. Every thread that existed at the last
   committed checkpoint and is still computing must have advanced by the
   configured fraction of an interval of its own work; threads parked at
   synchronization operations sit at a "checkpoint location" and
   qualify. *)
let progressed_enough eng =
  match eng.snaps with
  | [] -> true
  | last :: _ ->
    let interval_cycles =
      Sim.Time.of_seconds
        ~cycles_per_second:eng.cfg.costs.Vm.Costs.cycles_per_second
        eng.cfg.checkpoint_interval
    in
    let threshold =
      int_of_float (eng.cfg.commit_progress_fraction *. float_of_int interval_cycles)
    in
    threshold <= 0
    ||
    (* Commit when no computing thread is mid-replay: each either made a
       full stride of progress (>= threshold) or has not moved at all
       since the last checkpoint (it still sits at its recorded location,
       so re-recording it is sound). At least one thread must have made a
       real stride — otherwise the commit would bank nothing yet reset
       the livelock detector. *)
    let all_ok = ref true and any_stride = ref false in
    for tid = 0 to last.n_threads - 1 do
      let tcb = Exec.State.thread eng.st tid in
      let before = if tid < Array.length last.work_done then last.work_done.(tid) else 0 in
      let now_w = if tid < Array.length eng.work_done then eng.work_done.(tid) else 0 in
      let delta = now_w - before in
      if delta >= threshold then any_stride := true;
      match tcb.Vm.Tcb.wait with
      | Vm.Tcb.Runnable -> if delta > 0 && delta < threshold then all_ok := false
      | Vm.Tcb.On_mutex _ | Vm.Tcb.On_cond _ | Vm.Tcb.Reacquire _
      | Vm.Tcb.On_barrier _ | Vm.Tcb.On_join _ | Vm.Tcb.On_token | Vm.Tcb.Done ->
        if delta > 0 then any_stride := true
    done;
    (* Threads created after the last checkpoint count as progress. *)
    if eng.st.Exec.State.n_threads > last.n_threads then any_stride := true;
    !all_ok && !any_stride

let commit_checkpoint eng =
  let st = eng.st in
  eng.ckpt_done_handle <- None;
  if not (progressed_enough eng) then begin
    Sim.Stats.incr st.Exec.State.stats "cpr.ckpt_skipped";
    eng.mode <- Normal;
    fill_all eng
  end
  else begin
  let snap = take_snapshot eng in
  (* Retain the two newest checkpoints: the grand-previous epoch's undo
     records are folded away (discarded) by merging into nothing — we
     simply drop them, since rollback never reaches past two checkpoints
     (the detection latency is far below the checkpoint interval). *)
  (match eng.snaps with
  | [] -> eng.snaps <- [ snap ]
  | s1 :: dropped ->
    List.iter (fun s -> eng.image_pool <- s.image :: eng.image_pool) dropped;
    eng.snaps <- [ snap; s1 ];
    eng.prev_log <- eng.cur_log);
  eng.cur_log <- Exec.Undo_log.create ~paged:st.Exec.State.mem ();
  st.Exec.State.current_undo <- Some eng.cur_log;
  (* A rollback only resets the livelock counter when the program has
     banked genuinely new progress, which a gated commit certifies. *)
  eng.consecutive_rollbacks <- 0;
  Sim.Stats.incr st.Exec.State.stats "cpr.checkpoints";
  eng.mode <- Normal;
  Sim.Stats.observe st.Exec.State.stats "cpr.ckpt_cycles"
    (float_of_int (now eng - eng.quiesce_started));
  fill_all eng
  end

let schedule_alarm eng =
  let st = eng.st in
  let interval =
    Sim.Time.of_seconds
      ~cycles_per_second:st.Exec.State.costs.Vm.Costs.cycles_per_second
      eng.cfg.checkpoint_interval
  in
  let h =
    Sim.Event_queue.schedule st.Exec.State.evq ~time:(now eng + interval) Ckpt_alarm
  in
  eng.alarm <- Some h;
  eng.alarm_time <- now eng + interval

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let cancel_all_ticks eng =
  Array.iteri
    (fun ctx h ->
      (match h with
      | Some h -> Sim.Event_queue.cancel eng.st.Exec.State.evq h
      | None -> ());
      eng.tick_handle.(ctx) <- None;
      eng.ctx_of.(ctx) <- None)
    eng.tick_handle

let begin_restore eng ~occurred_at =
  let st = eng.st in
  let costs = st.Exec.State.costs in
  eng.mode <- Restoring;
  (* Abort any in-flight checkpoint. *)
  (match eng.ckpt_done_handle with
  | Some h ->
    Sim.Event_queue.cancel st.Exec.State.evq h;
    eng.ckpt_done_handle <- None;
    Sim.Stats.incr st.Exec.State.stats "cpr.ckpt_aborted"
  | None -> ());
  (match eng.alarm with
  | Some h ->
    Sim.Event_queue.cancel st.Exec.State.evq h;
    eng.alarm <- None
  | None -> ());
  eng.alarm_time <- max_int;
  cancel_all_ticks eng;
  (* Choose the newest checkpoint not contaminated by the exception: it
     must have been taken before the exception occurred. *)
  let target, undo_prev_too =
    match eng.snaps with
    | [] -> (None, false)
    | [ s1 ] -> (Some s1, false)
    | s2 :: s1 :: _ ->
      if s2.taken_at <= occurred_at then (Some s2, false) else (Some s1, true)
  in
  let mem = st.Exec.State.mem
  and atomics = st.Exec.State.atomics
  and io = st.Exec.State.io in
  let words = Exec.Undo_log.replay ~mem ~atomics ~io eng.cur_log in
  let words =
    if undo_prev_too then
      words + Exec.Undo_log.replay ~mem ~atomics ~io eng.prev_log
    else words
  in
  (match target with
  | Some snap ->
    restore_snapshot eng snap;
    Sim.Stats.add st.Exec.State.stats "cpr.lost_cycles" (now eng - snap.taken_at);
    eng.restore_resets_to <- snap.taken_at;
    if undo_prev_too then begin
      (match eng.snaps with
      | s2 :: _ when s2 != snap -> eng.image_pool <- s2.image :: eng.image_pool
      | _ -> ());
      eng.snaps <- [ snap ]
    end
  | None -> failwith "Cpr: no checkpoint to restore (missing initial snapshot)");
  (* Squashed threads may reappear with the same tids on re-execution;
     the run queue is rebuilt from the restored thread states. *)
  eng.sched <- Sched.Scheduler.create Sched.Scheduler.Fifo ~n_contexts:eng.cfg.n_contexts;
  eng.queued <- Hashtbl.create 64;
  eng.consecutive_rollbacks <- eng.consecutive_rollbacks + 1;
  Sim.Stats.incr st.Exec.State.stats "cpr.rollbacks";
  Sim.Stats.add st.Exec.State.stats "cpr.restored_words" words;
  let restore_time =
    costs.Vm.Costs.pause_resume
    + costs.Vm.Costs.restore_per_word * words / Stdlib.max 1 eng.cfg.n_contexts
  in
  ignore
    (Sim.Event_queue.schedule st.Exec.State.evq
       ~time:(now eng + Stdlib.max 1 restore_time)
       Restore_done)

let finish_restore eng =
  let st = eng.st in
  eng.mode <- Normal;
  for tid = 0 to st.Exec.State.n_threads - 1 do
    let tcb = Exec.State.thread st tid in
    if tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then make_runnable eng ~ctx_hint:tid tid
  done;
  (* Arm the alarm before dispatching so fused chains see its horizon. *)
  schedule_alarm eng;
  fill_all eng;
  (* A report that arrived mid-restore is serviced now. *)
  match eng.pending_reports with
  | [] -> ()
  | (occurred_at, _ctx) :: rest ->
    eng.pending_reports <- rest;
    begin_restore eng ~occurred_at

(* ------------------------------------------------------------------ *)
(* Event handling                                                      *)
(* ------------------------------------------------------------------ *)

let tick eng ctx =
  let st = eng.st in
  eng.tick_handle.(ctx) <- None;
  match eng.mode with
  | Restoring | Recording -> ()  (* context already halted/parked *)
  | Quiescing -> (
    (* Park at the coordination barrier. *)
    match eng.ctx_of.(ctx) with
    | None -> ()
    | Some tid ->
      eng.ctx_of.(ctx) <- None;
      let tcb = Exec.State.thread st tid in
      if tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then make_runnable eng ~ctx_hint:ctx tid;
      if all_ctx_idle eng then begin_recording eng)
  | Normal -> (
    match eng.ctx_of.(ctx) with
    | None -> fill eng ctx
    | Some tid -> (
      let tcb = Exec.State.thread st tid in
      match tcb.Vm.Tcb.wait with
      | Vm.Tcb.Runnable ->
        let costs = st.Exec.State.costs in
        if
          now eng - eng.started.(ctx) >= costs.Vm.Costs.quantum
          && not (Sched.Scheduler.is_empty eng.sched)
        then begin
          eng.ctx_of.(ctx) <- None;
          make_runnable eng ~ctx_hint:ctx tid;
          Sim.Stats.incr st.Exec.State.stats "preemptions";
          fill eng ctx
        end
        else dispatch eng ctx tcb
      | Vm.Tcb.On_mutex _ | Vm.Tcb.On_cond _ | Vm.Tcb.Reacquire _
      | Vm.Tcb.On_barrier _ | Vm.Tcb.On_join _ | Vm.Tcb.On_token | Vm.Tcb.Done ->
        eng.ctx_of.(ctx) <- None;
        fill eng ctx))

let schedule_next_fault eng =
  let inj, ev = Faults.Injector.next eng.injector in
  eng.injector <- inj;
  match ev with
  | None -> eng.next_report_time <- max_int
  | Some ev ->
    let time = Stdlib.max ev.Faults.Injector.reported_at (now eng) in
    eng.next_report_time <- time;
    ignore
      (Sim.Event_queue.schedule eng.st.Exec.State.evq ~time
         (Fault_report
            { occurred_at = ev.Faults.Injector.occurred_at; ctx = ev.Faults.Injector.ctx }))

let run ?blocks cfg program =
  let st =
    Exec.State.create ?blocks ~program ~costs:cfg.costs
      ~n_contexts:cfg.n_contexts ~seed:cfg.seed ()
  in
  let eng =
    {
      cfg;
      st;
      sched = Sched.Scheduler.create Sched.Scheduler.Fifo ~n_contexts:cfg.n_contexts;
      ctx_of = Array.make cfg.n_contexts None;
      last_tid = Array.make cfg.n_contexts (-1);
      started = Array.make cfg.n_contexts 0;
      tick_handle = Array.make cfg.n_contexts None;
      queued = Hashtbl.create 64;
      mode = Normal;
      snaps = [];
      image_pool = [];
      cur_log = Exec.Undo_log.create ~paged:st.Exec.State.mem ();
      prev_log = Exec.Undo_log.create ~paged:st.Exec.State.mem ();
      alarm = None;
      ckpt_done_handle = None;
      quiesce_started = 0;
      injector =
        Faults.Injector.create cfg.injector ~n_contexts:cfg.n_contexts
          ~cycles_per_second:cfg.costs.Vm.Costs.cycles_per_second;
      pending_reports = [];
      consecutive_rollbacks = 0;
      restore_resets_to = 0;
      work_done = Array.make 64 0;
      alarm_time = max_int;
      next_report_time = max_int;
      budget = Option.value ~default:max_int cfg.max_cycles;
      instrs = Sim.Stats.counter st.Exec.State.stats "instrs";
    }
  in
  st.Exec.State.current_undo <- Some eng.cur_log;
  (* Initial (time-0) checkpoint so recovery is always possible. *)
  eng.snaps <- [ take_snapshot eng ];
  make_runnable eng ~ctx_hint:0 Exec.State.main_tid;
  (* Horizons (alarm, fault report) are armed before the first dispatch
     so fused chains never cross them. *)
  schedule_alarm eng;
  schedule_next_fault eng;
  (match cfg.crash_at with
  | Some t -> ignore (Sim.Event_queue.schedule st.Exec.State.evq ~time:t Crash_point)
  | None -> ());
  fill_all eng;
  let dnc () = Exec.State.mk_result st ~dnc:true in
  let rec loop () =
    if eng.consecutive_rollbacks > cfg.livelock_rollbacks then dnc ()
    else
      match Sim.Event_queue.pop st.Exec.State.evq with
      | None ->
        if Exec.State.all_exited st then Exec.State.mk_result st ~dnc:false
        else
          raise
            (Exec.State.Deadlock
               (Printf.sprintf "cpr: %d live threads, no pending events"
                  st.Exec.State.live_threads))
      | Some (time, ev) -> (
        match cfg.max_cycles with
        | Some budget when time > budget -> dnc ()
        | Some _ | None ->
          (match ev with
          | Tick ctx -> tick eng ctx
          | Ckpt_alarm ->
            eng.alarm <- None;
            if eng.mode = Normal then begin
              eng.mode <- Quiescing;
              eng.quiesce_started <- now eng;
              if all_ctx_idle eng then begin_recording eng
            end
            else schedule_alarm eng
          | Ckpt_done ->
            if eng.mode = Recording then begin
              (* Alarm first: commit dispatches, and fused chains must
                 not cross the next alarm. *)
              schedule_alarm eng;
              commit_checkpoint eng
            end
          | Fault_report { occurred_at; ctx } ->
            schedule_next_fault eng;
            if Exec.State.all_exited st then ()
            else if eng.mode = Restoring then
              eng.pending_reports <- eng.pending_reports @ [ (occurred_at, ctx) ]
            else begin_restore eng ~occurred_at
          | Restore_done -> finish_restore eng
          | Crash_point ->
            (* A crash behaves like an instantly-reported fault that
               occurred now: everything since the last committed global
               checkpoint is volatile and lost. *)
            Sim.Stats.incr st.Exec.State.stats "cpr.crash_restores";
            if Exec.State.all_exited st then ()
            else if eng.mode = Restoring then
              eng.pending_reports <- eng.pending_reports @ [ (time, 0) ]
            else begin_restore eng ~occurred_at:time);
          if eng.mode = Normal then fill_all eng;
          if Exec.State.all_exited st then Exec.State.mk_result st ~dnc:false
          else loop ())
  in
  loop ()
