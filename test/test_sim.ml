(* Unit tests for the discrete-event kernel. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_prng_deterministic () =
  let a = Sim.Prng.create 42 and b = Sim.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Prng.int64 a) (Sim.Prng.int64 b)
  done

let test_prng_distinct_seeds () =
  let a = Sim.Prng.create 1 and b = Sim.Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Sim.Prng.int64 a = Sim.Prng.int64 b then incr same
  done;
  checkb "streams differ" true (!same < 4)

let test_prng_int_bounds () =
  let g = Sim.Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Sim.Prng.int g 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_prng_split_independent () =
  let g = Sim.Prng.create 5 in
  let s = Sim.Prng.split g in
  (* Drawing from the split stream must not perturb the parent's future. *)
  let g' = Sim.Prng.copy g in
  for _ = 1 to 10 do
    ignore (Sim.Prng.int64 s)
  done;
  Alcotest.(check int64) "parent unperturbed" (Sim.Prng.int64 g') (Sim.Prng.int64 g)

let test_prng_float_bounds () =
  let g = Sim.Prng.create 11 in
  for _ = 1 to 1000 do
    let v = Sim.Prng.float g 3.5 in
    checkb "in range" true (v >= 0.0 && v < 3.5)
  done

let test_prng_exponential_mean () =
  let g = Sim.Prng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Prng.exponential g ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 2.0" true (mean > 1.9 && mean < 2.1)

let test_prng_shuffle_permutes () =
  let g = Sim.Prng.create 3 in
  let a = Array.init 50 Fun.id in
  Sim.Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_evq_order () =
  let q = Sim.Event_queue.create () in
  ignore (Sim.Event_queue.schedule q ~time:30 "c");
  ignore (Sim.Event_queue.schedule q ~time:10 "a");
  ignore (Sim.Event_queue.schedule q ~time:20 "b");
  let pop () = Option.get (Sim.Event_queue.pop q) in
  Alcotest.(check (pair int string)) "first" (10, "a") (pop ());
  Alcotest.(check (pair int string)) "second" (20, "b") (pop ());
  Alcotest.(check (pair int string)) "third" (30, "c") (pop ())

let test_evq_fifo_ties () =
  let q = Sim.Event_queue.create () in
  for i = 0 to 9 do
    ignore (Sim.Event_queue.schedule q ~time:5 i)
  done;
  for i = 0 to 9 do
    let _, v = Option.get (Sim.Event_queue.pop q) in
    check "insertion order on ties" i v
  done

let test_evq_cancel () =
  let q = Sim.Event_queue.create () in
  let _a = Sim.Event_queue.schedule q ~time:1 "a" in
  let b = Sim.Event_queue.schedule q ~time:2 "b" in
  let _c = Sim.Event_queue.schedule q ~time:3 "c" in
  Sim.Event_queue.cancel q b;
  check "live count" 2 (Sim.Event_queue.length q);
  let _, v1 = Option.get (Sim.Event_queue.pop q) in
  let _, v2 = Option.get (Sim.Event_queue.pop q) in
  Alcotest.(check (list string)) "b skipped" [ "a"; "c" ] [ v1; v2 ];
  checkb "empty" true (Sim.Event_queue.is_empty q)

let test_evq_cancel_after_pop_noop () =
  let q = Sim.Event_queue.create () in
  let a = Sim.Event_queue.schedule q ~time:1 "a" in
  ignore (Sim.Event_queue.pop q);
  Sim.Event_queue.cancel q a;
  check "still zero live" 0 (Sim.Event_queue.length q)

let test_evq_clock_advances () =
  let q = Sim.Event_queue.create () in
  ignore (Sim.Event_queue.schedule q ~time:100 ());
  ignore (Sim.Event_queue.pop q);
  check "clock" 100 (Sim.Event_queue.now q);
  ignore (Sim.Event_queue.schedule q ~time:250 ());
  ignore (Sim.Event_queue.pop q);
  check "clock again" 250 (Sim.Event_queue.now q)

let test_evq_peek () =
  let q = Sim.Event_queue.create () in
  let a = Sim.Event_queue.schedule q ~time:4 "a" in
  ignore (Sim.Event_queue.schedule q ~time:9 "b");
  Alcotest.(check (option int)) "peek" (Some 4) (Sim.Event_queue.peek_time q);
  Sim.Event_queue.cancel q a;
  Alcotest.(check (option int)) "peek skips cancelled" (Some 9)
    (Sim.Event_queue.peek_time q)

let test_evq_many_random () =
  (* Heap property under load: popping yields non-decreasing times. *)
  let g = Sim.Prng.create 99 in
  let q = Sim.Event_queue.create () in
  for _ = 1 to 2000 do
    ignore (Sim.Event_queue.schedule q ~time:(Sim.Prng.int g 100000) ())
  done;
  let prev = ref (-1) in
  let rec drain () =
    match Sim.Event_queue.pop q with
    | None -> ()
    | Some (t, ()) ->
      checkb "non-decreasing" true (t >= !prev);
      prev := t;
      drain ()
  in
  drain ()

let test_evq_compaction_reclaims () =
  (* Mass cancellation must not leave the heap full of dead cells. *)
  let q = Sim.Event_queue.create () in
  let handles = Array.init 4096 (fun i -> Sim.Event_queue.schedule q ~time:i i) in
  for i = 0 to 4095 do
    if i mod 64 <> 0 then Sim.Event_queue.cancel q handles.(i)
  done;
  check "live count" 64 (Sim.Event_queue.length q);
  checkb "heap compacted" true (Sim.Event_queue.heap_size q < 256);
  let rec drain acc =
    match Sim.Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int))
    "survivors pop in order"
    (List.init 64 (fun k -> k * 64))
    (drain [])

let test_evq_live_size_invariant () =
  (* Random schedule/cancel/pop/peek interleavings: the model of live
     events always matches [length], [length <= heap_size], pops only
     yield uncancelled events in time order, and peek agrees with the
     model's minimum. *)
  let g = Sim.Prng.create 17 in
  let q = Sim.Event_queue.create () in
  let pending = ref [] in
  (* (handle, id, time) *)
  let next_id = ref 0 in
  let last_time = ref (-1) in
  for _ = 1 to 5000 do
    let r = Sim.Prng.int g 100 in
    (if r < 55 then begin
       let t = Sim.Event_queue.now q + Sim.Prng.int g 50 in
       let id = !next_id in
       incr next_id;
       let h = Sim.Event_queue.schedule q ~time:t id in
       pending := !pending @ [ (h, id, t) ]
     end
     else if r < 85 then begin
       match !pending with
       | [] -> ()
       | l ->
         let i = Sim.Prng.int g (List.length l) in
         let h, _, _ = List.nth l i in
         Sim.Event_queue.cancel q h;
         pending := List.filteri (fun j _ -> j <> i) l
     end
     else if r < 95 then begin
       match Sim.Event_queue.pop q with
       | None -> check "pop empty iff model empty" 0 (List.length !pending)
       | Some (t, id) ->
         checkb "pop was pending" true
           (List.exists (fun (_, id', _) -> id' = id) !pending);
         checkb "times non-decreasing" true (t >= !last_time);
         last_time := t;
         let mn =
           List.fold_left (fun acc (_, _, t') -> min acc t') max_int !pending
         in
         check "pop yields earliest" mn t;
         pending := List.filter (fun (_, id', _) -> id' <> id) !pending
     end
     else begin
       let expect =
         match !pending with
         | [] -> None
         | l -> Some (List.fold_left (fun acc (_, _, t) -> min acc t) max_int l)
       in
       Alcotest.(check (option int)) "peek agrees with model" expect
         (Sim.Event_queue.peek_time q)
     end);
    check "length tracks model" (List.length !pending) (Sim.Event_queue.length q);
    checkb "live <= heap cells" true
      (Sim.Event_queue.length q <= Sim.Event_queue.heap_size q)
  done

let test_stats_counters () =
  let s = Sim.Stats.create () in
  Sim.Stats.incr s "a";
  Sim.Stats.incr s "a";
  Sim.Stats.add s "a" 3;
  check "counter" 5 (Sim.Stats.get s "a");
  check "untouched" 0 (Sim.Stats.get s "zzz")

let test_stats_max_and_mean () =
  let s = Sim.Stats.create () in
  Sim.Stats.set_max s "m" 4;
  Sim.Stats.set_max s "m" 9;
  Sim.Stats.set_max s "m" 2;
  check "max" 9 (Sim.Stats.get s "m");
  Sim.Stats.observe s "x" 1.0;
  Sim.Stats.observe s "x" 3.0;
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Sim.Stats.mean s "x");
  check "count" 2 (Sim.Stats.count s "x")

let test_stats_merge () =
  let a = Sim.Stats.create () and b = Sim.Stats.create () in
  Sim.Stats.add a "k" 2;
  Sim.Stats.add b "k" 3;
  Sim.Stats.observe a "o" 1.0;
  Sim.Stats.observe b "o" 5.0;
  Sim.Stats.merge_into ~dst:a b;
  check "merged counter" 5 (Sim.Stats.get a "k");
  Alcotest.(check (float 1e-9)) "merged mean" 3.0 (Sim.Stats.mean a "o")

(* Handles bind late: a handle that is never bumped leaves no key, and a
   bound handle shares its cell with the string-keyed calls, so a bag
   filled through handles reads exactly like one filled by key. *)
let test_stats_handles () =
  let s = Sim.Stats.create () in
  let h = Sim.Stats.Handle.counter s "k" in
  let hs = Sim.Stats.Handle.summary s "o" in
  ignore (Sim.Stats.Handle.counter s "never");
  ignore (Sim.Stats.Handle.summary s "never.s");
  Alcotest.(check int) "unbumped handles register nothing" 0
    (List.length (Sim.Stats.to_assoc s));
  Sim.Stats.incr s "k";
  Sim.Stats.Handle.incr h;
  Sim.Stats.Handle.add h 3;
  Sim.Stats.incr s "k";
  check "handle and incr add into one counter" 6 (Sim.Stats.get s "k");
  Sim.Stats.Handle.sample hs 1;
  Sim.Stats.observe s "o" 5.0;
  check "one summary" 2 (Sim.Stats.count s "o");
  let plain = Sim.Stats.create () in
  Sim.Stats.add plain "k" 6;
  Sim.Stats.observe plain "o" 1.0;
  Sim.Stats.observe plain "o" 5.0;
  Alcotest.(check (list (pair string (float 0.0))))
    "to_assoc as if filled by key" (Sim.Stats.to_assoc plain)
    (Sim.Stats.to_assoc s);
  let into src =
    let dst = Sim.Stats.create () in
    Sim.Stats.incr dst "k";
    Sim.Stats.merge_into ~dst src;
    Sim.Stats.to_assoc dst
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "merge_into as if filled by key" (into plain) (into s);
  check "bumps after binding allocate nothing" 0
    (Tprog.alloc_words (fun () ->
         for i = 1 to 1000 do
           Sim.Stats.Handle.incr h;
           Sim.Stats.Handle.sample hs i
         done))

let mk_trace ?capacity () =
  Sim.Trace.create ?capacity ~names:Exec.State.trace_names ()

let texts t = List.map snd (Sim.Trace.to_list t)

let test_trace_ring () =
  let t = mk_trace ~capacity:4 () in
  for i = 1 to 6 do
    Sim.Trace.grant t i ~tid:i ~instr:3 ~pc:(10 * i)
  done;
  Alcotest.(check (list string))
    "keeps the newest 4, oldest first"
    [ "grant 3 lock pc=30"; "grant 4 lock pc=40"; "grant 5 lock pc=50";
      "grant 6 lock pc=60" ]
    (texts t);
  Alcotest.(check (list int)) "times" [ 3; 4; 5; 6 ]
    (List.map fst (Sim.Trace.to_list t))

let test_trace_find_and_disable () =
  let t = mk_trace () in
  Sim.Trace.park t 1 ~tid:7 ~instr:5 ~pc:2;
  Sim.Trace.set_enabled t false;
  Sim.Trace.fill t 2 ~ctx:1 ~tid:9 ~wait:0 ~a:0 ~b:0;
  checkb "found" true (Sim.Trace.find t ~substring:"park 7 barrier" <> None);
  checkb "dropped" true (Sim.Trace.find t ~substring:"fill" = None);
  check "one retained" 1 (List.length (Sim.Trace.to_list t))

(* Each event kind renders byte for byte as the formatted string the
   engine used to record, so the GPRS_DEBUG wedge dump reads the same. *)
let test_trace_render_make_runnable () =
  let t = mk_trace () in
  let cases = [ (false, false, false); (true, false, true); (false, true, false);
                (true, true, true) ] in
  List.iteri
    (fun tid (queued, on_ctx, destroyed) ->
      Sim.Trace.make_runnable t tid ~tid ~queued ~on_ctx ~destroyed)
    cases;
  Alcotest.(check (list string)) "text"
    (List.mapi
       (fun tid (q, o, d) ->
         Format.asprintf "make_runnable %d queued=%b on_ctx=%b destroyed=%b" tid q o d)
       cases)
    (texts t)

let all_instrs =
  let r _ = 0 in
  let work = Vm.Isa.Work { cost = r; run = ignore } in
  Vm.Isa.
    [ work; Goto 0; If { cond = (fun _ -> true); target = 0 }; Lock { m = r };
      Unlock { m = r }; Barrier { b = 0 }; Cond_wait { c = 0; m = 0 };
      Cond_signal { c = 0; all = false }; Cond_signal { c = 0; all = true };
      Atomic { var = r; rmw = (fun ~old _ -> old); dst = 0 };
      Nonstd_atomic { var = r; rmw = (fun ~old _ -> old); dst = 0 };
      Fork { group = 0; proc = "p"; args = (fun _ -> [||]); dst = 0 };
      Join { tid = r }; Alloc { size = r; dst = 0 }; Free { addr = r }; Cpr_begin;
      Cpr_end; Opaque { cost = r; run = ignore }; Exit ]

let test_trace_render_boundary record fmt () =
  let t = mk_trace () in
  List.iteri
    (fun i ins -> record t i ~tid:i ~instr:(Vm.Isa.instr_code ins) ~pc:(i * 3))
    all_instrs;
  Alcotest.(check (list string)) "text"
    (List.mapi
       (fun i ins -> Format.asprintf fmt i (Vm.Isa.instr_name ins) (i * 3))
       all_instrs)
    (texts t)

let test_trace_render_fill () =
  let t = mk_trace () in
  let waits =
    Vm.Tcb.
      [ Runnable; On_mutex 4; On_cond { c = 2; m = 5 }; Reacquire 6; On_barrier 1;
        On_join 3; On_token; Done ]
  in
  List.iteri
    (fun i w ->
      Sim.Trace.fill t i ~ctx:(i mod 3) ~tid:(i + 10) ~wait:(Vm.Tcb.wait_code w)
        ~a:(Vm.Tcb.wait_arg_a w) ~b:(Vm.Tcb.wait_arg_b w))
    waits;
  Alcotest.(check (list string)) "text"
    (List.mapi
       (fun i w ->
         Format.asprintf "fill ctx=%d tid=%d wait=%s" (i mod 3) (i + 10)
           (Format.asprintf "%a" Vm.Tcb.pp_wait w))
       waits)
    (texts t)

let test_trace_records_allocate_nothing () =
  let major_words () = int_of_float (Gc.quick_stat ()).Gc.major_words in
  let m0 = major_words () in
  let t = mk_trace ~capacity:1024 () in
  check "an unwritten trace has no ring" 0 (major_words () - m0);
  (* The first record allocates the ring; none after it allocates. *)
  Sim.Trace.grant t 0 ~tid:0 ~instr:0 ~pc:0;
  let m1 = major_words () in
  let words =
    Tprog.alloc_words (fun () ->
        for i = 1 to 2_500 do
          Sim.Trace.make_runnable t i ~tid:i ~queued:false ~on_ctx:true ~destroyed:false;
          Sim.Trace.grant t i ~tid:i ~instr:3 ~pc:i;
          Sim.Trace.park t i ~tid:i ~instr:5 ~pc:i;
          Sim.Trace.fill t i ~ctx:1 ~tid:i ~wait:2 ~a:4 ~b:5
        done)
  in
  check "minor words for 10k events" 0 words;
  check "major words for 10k events" 0 (major_words () - m1);
  check "ring holds the newest" 1024 (List.length (Sim.Trace.to_list t))

let test_time_conversions () =
  let c = Sim.Time.of_seconds ~cycles_per_second:1000 2.5 in
  check "of_seconds" 2500 c;
  Alcotest.(check (float 1e-9))
    "roundtrip" 2.5
    (Sim.Time.to_seconds ~cycles_per_second:1000 c);
  check "tiny positive rounds to >= 1" 1
    (Sim.Time.of_seconds ~cycles_per_second:1000 0.0001)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng distinct seeds" `Quick test_prng_distinct_seeds;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng split independent" `Quick test_prng_split_independent;
    Alcotest.test_case "prng float bounds" `Quick test_prng_float_bounds;
    Alcotest.test_case "prng exponential mean" `Quick test_prng_exponential_mean;
    Alcotest.test_case "prng shuffle permutes" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "evq ordering" `Quick test_evq_order;
    Alcotest.test_case "evq fifo on ties" `Quick test_evq_fifo_ties;
    Alcotest.test_case "evq cancel" `Quick test_evq_cancel;
    Alcotest.test_case "evq cancel after pop" `Quick test_evq_cancel_after_pop_noop;
    Alcotest.test_case "evq clock" `Quick test_evq_clock_advances;
    Alcotest.test_case "evq peek" `Quick test_evq_peek;
    Alcotest.test_case "evq random load" `Quick test_evq_many_random;
    Alcotest.test_case "evq compaction reclaims" `Quick test_evq_compaction_reclaims;
    Alcotest.test_case "evq live/size invariant" `Quick test_evq_live_size_invariant;
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
    Alcotest.test_case "stats max/mean" `Quick test_stats_max_and_mean;
    Alcotest.test_case "stats merge" `Quick test_stats_merge;
    Alcotest.test_case "stats handles" `Quick test_stats_handles;
    Alcotest.test_case "trace ring" `Quick test_trace_ring;
    Alcotest.test_case "trace find/disable" `Quick test_trace_find_and_disable;
    Alcotest.test_case "trace renders make_runnable" `Quick
      test_trace_render_make_runnable;
    Alcotest.test_case "trace renders grant" `Quick
      (test_trace_render_boundary Sim.Trace.grant "grant %d %s pc=%d");
    Alcotest.test_case "trace renders park" `Quick
      (test_trace_render_boundary Sim.Trace.park "park %d %s pc=%d");
    Alcotest.test_case "trace renders fill" `Quick test_trace_render_fill;
    Alcotest.test_case "trace records allocate nothing" `Quick
      test_trace_records_allocate_nothing;
    Alcotest.test_case "time conversions" `Quick test_time_conversions;
  ]
