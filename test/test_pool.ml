(* Recycling must be a pure performance transformation: a recycled
   sub-thread record (with its saved buffer and undo log) must carry
   nothing from its previous life, a stale event handle must never
   cancel a recycled cell's new occupant, and recycled event cells must
   pop in exactly the order a plain sorted reference would. Whole-run
   behaviour with recycling on is pinned by the workload digest and
   oracle tests. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

(* --- directed: a recycled record is indistinguishable from a fresh one  *)

let mk_tcb ?(regs = [||]) () =
  Vm.Tcb.create ~n_barriers:2 ~tid:0 ~group:0
    ~proc:{ Vm.Isa.pname = "p"; code = [| Vm.Isa.Exit |] }
    ~args:regs

(* A sub-thread observed through everything the engine ever reads. *)
let sub_fingerprint (s : Gprs.Subthread.t) =
  Format.asprintf "%a|gd=%b cpr=%b held=%s undo=%d forked=%s pend=%s freed=%d"
    Gprs.Subthread.pp s s.Gprs.Subthread.global_dep s.Gprs.Subthread.cpr_region
    (String.concat "," (List.map string_of_int s.Gprs.Subthread.held_locks))
    (Exec.Undo_log.size s.Gprs.Subthread.undo)
    (String.concat "," (List.map string_of_int s.Gprs.Subthread.forked))
    (match s.Gprs.Subthread.pending_mutex with
    | None -> "-"
    | Some m -> string_of_int m)
    (List.length s.Gprs.Subthread.freed_blocks)

let test_recycled_sub_is_fresh () =
  let pool = Gprs.Subthread.pool_create () in
  let tcb = mk_tcb ~regs:[| 7; 9 |] () in
  let s = Gprs.Subthread.acquire pool ~id:0 ~tid:0 ~now:5 ~tcb in
  (* Dirty every field a past life could leak through. *)
  Gprs.Subthread.add_alias s (Gprs.Subthread.Mutex 3);
  Gprs.Subthread.add_alias s (Gprs.Subthread.Atomic_var 40);
  Gprs.Subthread.add_alias s (Gprs.Subthread.Thread_edge 2);
  s.Gprs.Subthread.global_dep <- true;
  s.Gprs.Subthread.cpr_region <- true;
  s.Gprs.Subthread.held_locks <- [ 5; 1 ];
  s.Gprs.Subthread.forked <- [ 9 ];
  s.Gprs.Subthread.pending_mutex <- Some 2;
  s.Gprs.Subthread.freed_blocks <- [ (100, 16) ];
  ignore (Exec.Undo_log.note s.Gprs.Subthread.undo (Exec.Undo_log.K_mem 8) ~old:1);
  s.Gprs.Subthread.status <- Gprs.Subthread.Squashed;
  Gprs.Subthread.release pool s;
  (* Re-acquire (the pool hands the same record back) with a distinct
     TCB and compare against a freshly made record. *)
  let tcb2 = mk_tcb ~regs:[| 11 |] () in
  tcb2.Vm.Tcb.pc <- 1;
  let r = Gprs.Subthread.acquire pool ~id:42 ~tid:3 ~now:77 ~tcb:tcb2 in
  checkb "record was recycled" true (r == s);
  let fresh =
    Gprs.Subthread.make ~id:42 ~tid:3 ~now:77 ~saved:(Vm.Tcb.copy_state tcb2)
  in
  checks "recycled ≡ fresh" (sub_fingerprint fresh) (sub_fingerprint r);
  (* The recycled saved buffer holds tcb2's state, not tcb's. *)
  let probe = mk_tcb () in
  Vm.Tcb.restore_state probe r.Gprs.Subthread.saved;
  checki "saved pc" 1 probe.Vm.Tcb.pc;
  checki "saved reg0" 11 probe.Vm.Tcb.regs.(0);
  checki "saved reg1" 0 probe.Vm.Tcb.regs.(1);
  let hits, misses, live_hw = Gprs.Subthread.pool_stats pool in
  checki "pool hits" 1 hits;
  checki "pool misses" 1 misses;
  checki "live high-water" 1 live_hw

(* qcheck flavour: an arbitrary mutation sequence, then recycle — the
   fingerprint must always equal a fresh record's. *)
let qcase ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_recycled_sub_carries_nothing =
  qcase ~count:100 "pool: recycled sub-thread carries no prior state"
    QCheck2.Gen.(
      pair (list_size (int_range 0 20) (int_range 0 200)) (int_range 0 1000))
    (fun (codes, salt) ->
      let pool = Gprs.Subthread.pool_create () in
      let tcb = mk_tcb ~regs:[| salt |] () in
      let s = Gprs.Subthread.acquire pool ~id:salt ~tid:0 ~now:0 ~tcb in
      List.iter
        (fun c ->
          let obj = c / 5 in
          Gprs.Subthread.add_alias s
            (match c mod 5 with
            | 0 -> Gprs.Subthread.Mutex obj
            | 1 -> Gprs.Subthread.Atomic_var obj
            | 2 -> Gprs.Subthread.Condvar obj
            | 3 -> Gprs.Subthread.Barrier_obj obj
            | _ -> Gprs.Subthread.Thread_edge obj))
        codes;
      if salt mod 2 = 0 then s.Gprs.Subthread.global_dep <- true;
      s.Gprs.Subthread.held_locks <- codes;
      s.Gprs.Subthread.forked <- [ salt ];
      ignore
        (Exec.Undo_log.note s.Gprs.Subthread.undo
           (Exec.Undo_log.K_atomic (salt mod 7))
           ~old:salt);
      Gprs.Subthread.release pool s;
      let tcb2 = mk_tcb () in
      let r = Gprs.Subthread.acquire pool ~id:1 ~tid:1 ~now:9 ~tcb:tcb2 in
      let fresh =
        Gprs.Subthread.make ~id:1 ~tid:1 ~now:9
          ~saved:(Vm.Tcb.copy_state tcb2)
      in
      sub_fingerprint r = sub_fingerprint fresh)

(* --- directed: event-queue cell recycling ----------------------------- *)

(* A handle kept across the cell's recycling must not cancel the cell's
   new occupant. *)
let test_evq_stale_handle_cannot_cancel () =
  let q = Sim.Event_queue.create () in
  let h1 = Sim.Event_queue.schedule q ~time:1 "a" in
  Alcotest.(check (option (pair int string)))
    "first event fires" (Some (1, "a"))
    (Sim.Event_queue.pop q);
  (* "a"'s cell is now on the free list; "b" reuses it. *)
  let _h2 = Sim.Event_queue.schedule q ~time:2 "b" in
  let _, recycled = Sim.Event_queue.cell_stats q in
  checki "cell was recycled" 1 recycled;
  Sim.Event_queue.cancel q h1;
  Alcotest.(check (option (pair int string)))
    "stale cancel must not kill the new occupant" (Some (2, "b"))
    (Sim.Event_queue.pop q)

(* Reference model of the queue: the uncancelled events, stably sorted
   by (time, prio) — list order is insertion order, i.e. the sequence
   tie-break. *)
let reference evs =
  List.stable_sort (fun (t, p, _) (t', p', _) -> compare (t, p) (t', p')) evs

let rec split_at n = function
  | x :: r when n > 0 ->
    let a, b = split_at (n - 1) r in
    (x :: a, b)
  | l -> ([], l)

let test_evq_recycles_and_is_invisible () =
  let q = Sim.Event_queue.create () in
  let schedule evs =
    List.map (fun (time, prio, x) -> Sim.Event_queue.schedule q ~prio ~time x) evs
  in
  let cancel_unless keep evs hs =
    List.iteri (fun i h -> if not (keep i) then Sim.Event_queue.cancel q h) hs;
    List.filteri (fun i _ -> keep i) evs
  in
  let rec drain acc =
    match Sim.Event_queue.pop q with
    | None -> List.rev acc
    | Some ev -> drain (ev :: acc)
  in
  let popped evs = List.map (fun (t, _, x) -> (t, x)) evs in
  let events = Alcotest.(list (pair int int)) in
  (* Wave 1: duplicate times and mixed priorities, every fourth cancelled;
     pop eight of them so their cells go to the free list. *)
  let wave1 = List.init 20 (fun i -> (i / 3, i * 7 mod 3, i)) in
  let live1 = cancel_unless (fun i -> i mod 4 <> 0) wave1 (schedule wave1) in
  let first, rest1 = split_at 8 (reference live1) in
  Alcotest.check events "first pops follow the reference" (popped first)
    (List.init 8 (fun _ -> Option.get (Sim.Event_queue.pop q)));
  (* Wave 2 lands in recycled cells while wave 1's tail is still queued;
     [rest1] precedes it in insertion order. Events [i] and [i + 6] tie
     on (time, prio), so recycled cells must take fresh sequence
     numbers. *)
  let now = Sim.Event_queue.now q in
  let wave2 = List.init 20 (fun i -> (now + (i mod 3), i / 3 mod 2, 100 + i)) in
  let live2 = cancel_unless (fun i -> i mod 3 <> 0) wave2 (schedule wave2) in
  Alcotest.check events "recycled cells pop in reference order"
    (popped (reference (rest1 @ live2)))
    (drain []);
  let alloc, recycled = Sim.Event_queue.cell_stats q in
  checki "every fired wave-1 cell was reused" 8 recycled;
  checki "every schedule counted once" 40 (alloc + recycled)

let suite =
  [
    Alcotest.test_case "pool: recycled sub ≡ fresh sub" `Quick
      test_recycled_sub_is_fresh;
    prop_recycled_sub_carries_nothing;
    Alcotest.test_case "evq: stale handle cannot cancel recycled cell" `Quick
      test_evq_stale_handle_cannot_cancel;
    Alcotest.test_case "evq: recycling invisible + counted" `Quick
      test_evq_recycles_and_is_invisible;
  ]
