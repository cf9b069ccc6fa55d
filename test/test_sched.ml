(* Unit tests for the scheduler: deque discipline and steal rotation. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_deque_lifo_owner () =
  let d = Sched.Deque.create () in
  Sched.Deque.push_bottom d 1;
  Sched.Deque.push_bottom d 2;
  Sched.Deque.push_bottom d 3;
  Alcotest.(check (option int)) "owner pops newest" (Some 3) (Sched.Deque.pop_bottom d);
  Alcotest.(check (option int)) "then" (Some 2) (Sched.Deque.pop_bottom d)

let test_deque_fifo_thief () =
  let d = Sched.Deque.create () in
  List.iter (Sched.Deque.push_bottom d) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "thief steals oldest" (Some 1) (Sched.Deque.steal_top d);
  Alcotest.(check (option int)) "then" (Some 2) (Sched.Deque.steal_top d)

let test_deque_growth () =
  let d = Sched.Deque.create () in
  for i = 0 to 999 do
    Sched.Deque.push_bottom d i
  done;
  check "length" 1000 (Sched.Deque.length d);
  for i = 0 to 999 do
    Alcotest.(check (option int)) "fifo drain" (Some i) (Sched.Deque.steal_top d)
  done;
  checkb "empty" true (Sched.Deque.is_empty d)

let test_deque_interleaved () =
  (* Alternating push/steal exercises the compaction path. *)
  let d = Sched.Deque.create () in
  for i = 0 to 99 do
    Sched.Deque.push_bottom d i;
    Sched.Deque.push_bottom d (100 + i);
    ignore (Sched.Deque.steal_top d)
  done;
  check "net length" 100 (Sched.Deque.length d)

let test_fifo_policy_global_order () =
  let s = Sched.Scheduler.create Sched.Scheduler.Fifo ~n_contexts:4 in
  Sched.Scheduler.enqueue s ~ctx_hint:0 10;
  Sched.Scheduler.enqueue s ~ctx_hint:3 11;
  Sched.Scheduler.enqueue s ~ctx_hint:1 12;
  Alcotest.(check (option (pair int bool))) "fifo" (Some (10, false))
    (Sched.Scheduler.take s ~ctx:2);
  Alcotest.(check (option (pair int bool))) "fifo" (Some (11, false))
    (Sched.Scheduler.take s ~ctx:2)

let test_steal_policy_local_first () =
  let s = Sched.Scheduler.create Sched.Scheduler.Work_steal ~n_contexts:2 in
  Sched.Scheduler.enqueue s ~ctx_hint:0 7;
  Sched.Scheduler.enqueue s ~ctx_hint:1 8;
  Alcotest.(check (option (pair int bool))) "local, not stolen" (Some (7, false))
    (Sched.Scheduler.take s ~ctx:0)

let test_steal_policy_steals () =
  let s = Sched.Scheduler.create Sched.Scheduler.Work_steal ~n_contexts:3 in
  Sched.Scheduler.enqueue s ~ctx_hint:0 7;
  Alcotest.(check (option (pair int bool))) "stolen flag set" (Some (7, true))
    (Sched.Scheduler.take s ~ctx:2);
  Alcotest.(check (option (pair int bool))) "nothing left" None
    (Sched.Scheduler.take s ~ctx:0)

let test_steal_rotation_deterministic () =
  let s = Sched.Scheduler.create Sched.Scheduler.Work_steal ~n_contexts:4 in
  (* Victims probed in rotation starting after the thief: ctx 1 probes
     2, 3, 0 — so work on ctx 2 wins over work on ctx 0. *)
  Sched.Scheduler.enqueue s ~ctx_hint:0 100;
  Sched.Scheduler.enqueue s ~ctx_hint:2 200;
  Alcotest.(check (option (pair int bool))) "nearest victim after thief"
    (Some (200, true))
    (Sched.Scheduler.take s ~ctx:1)

let test_scheduler_remove () =
  let s = Sched.Scheduler.create Sched.Scheduler.Work_steal ~n_contexts:2 in
  Sched.Scheduler.enqueue s ~ctx_hint:0 1;
  Sched.Scheduler.enqueue s ~ctx_hint:0 2;
  Sched.Scheduler.enqueue s ~ctx_hint:1 3;
  checkb "found" true (Sched.Scheduler.remove s 2);
  checkb "not found twice" false (Sched.Scheduler.remove s 2);
  check "length" 2 (Sched.Scheduler.length s);
  (* Remaining order preserved. *)
  Alcotest.(check (option (pair int bool))) "kept 1" (Some (1, false))
    (Sched.Scheduler.take s ~ctx:0)

let test_scheduler_counts () =
  let s = Sched.Scheduler.create Sched.Scheduler.Fifo ~n_contexts:1 in
  checkb "empty" true (Sched.Scheduler.is_empty s);
  Sched.Scheduler.enqueue s ~ctx_hint:0 5;
  check "one" 1 (Sched.Scheduler.length s);
  ignore (Sched.Scheduler.take s ~ctx:0);
  checkb "empty again" true (Sched.Scheduler.is_empty s)

let test_take_empty_allocates_nothing () =
  List.iter
    (fun pol ->
      let n = 64 in
      let s = Sched.Scheduler.create pol ~n_contexts:n in
      (* Leave the deques grown but empty, as a drained run queue is. *)
      for i = 0 to n - 1 do
        Sched.Scheduler.enqueue s ~ctx_hint:i i
      done;
      for ctx = 0 to n - 1 do
        ignore (Sched.Scheduler.take s ~ctx)
      done;
      let nones = ref 0 in
      let words =
        Tprog.alloc_words (fun () ->
            for ctx = 0 to n - 1 do
              if Sched.Scheduler.take s ~ctx = None then incr nones
            done)
      in
      check "None for every ctx" n !nones;
      check "minor words" 0 words)
    [ Sched.Scheduler.Fifo; Sched.Scheduler.Work_steal ]

let suite =
  [
    Alcotest.test_case "deque owner LIFO" `Quick test_deque_lifo_owner;
    Alcotest.test_case "deque thief FIFO" `Quick test_deque_fifo_thief;
    Alcotest.test_case "deque growth" `Quick test_deque_growth;
    Alcotest.test_case "deque interleaved" `Quick test_deque_interleaved;
    Alcotest.test_case "fifo global order" `Quick test_fifo_policy_global_order;
    Alcotest.test_case "steal local first" `Quick test_steal_policy_local_first;
    Alcotest.test_case "steal crosses contexts" `Quick test_steal_policy_steals;
    Alcotest.test_case "steal rotation" `Quick test_steal_rotation_deterministic;
    Alcotest.test_case "remove queued item" `Quick test_scheduler_remove;
    Alcotest.test_case "counts" `Quick test_scheduler_counts;
    Alcotest.test_case "take on empty allocates nothing" `Quick
      test_take_empty_allocates_nothing;
  ]
