(* Shared miniature programs used across the engine test suites. Each
   returns a program plus an [expected] description of the final memory
   so every engine can be checked against the same oracle. *)

open Vm.Builder

(* Minor-heap words allocated while running [f]. *)
let alloc_words f =
  let w0 = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. w0)

(* Compare [actual] with the non-empty lines of the golden [file]. On a
   mismatch the full output is left beside the test binary as [out], for
   review and deliberate promotion, and the first differing line is
   reported. *)
let check_golden ~file ~out actual =
  let expected =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let rec first_diff i = function
    | e :: es, a :: as_ ->
      if e = a then first_diff (i + 1) (es, as_) else Some (i, e, a)
    | [], [] -> None
    | e :: _, [] -> Some (i, e, "<missing>")
    | [], a :: _ -> Some (i, "<missing>", a)
  in
  match first_diff 1 (expected, actual) with
  | None -> ()
  | Some (line, e, a) ->
    Out_channel.with_open_bin out (fun oc ->
        List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) actual);
    Alcotest.failf
      "%s line %d differs (full output in %s):\n  expected: %s\n  actual:   %s"
      file line (Filename.concat (Sys.getcwd ()) out) e a

(* Workers write into private slots; main sums into address 0. *)
let fork_join_sum ?(work = 400_000) ~workers () =
  let worker = proc "worker" in
  work_const worker work (fun env ->
      let i = Vm.Env.get env 0 in
      env.Vm.Env.write (1 + i) ((i + 1) * 10));
  exit_ worker;
  let main = proc "main" in
  for i = 0 to workers - 1 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [| i |])
  done;
  for i = 0 to workers - 1 do
    join_reg main (10 + i)
  done;
  work_const main 100 (fun env ->
      let sum = ref 0 in
      for i = 0 to workers - 1 do
        sum := !sum + env.Vm.Env.read (1 + i)
      done;
      env.Vm.Env.write 0 !sum);
  exit_ main;
  program ~mem_words:1024 ~n_groups:2 ~entry:"main" [ finish main; finish worker ]

let fork_join_expected workers = workers * (workers + 1) / 2 * 10

(* Threads increment a shared counter under a mutex. *)
let locked_counter ?(work = 50) ~workers ~iters () =
  let worker = proc "worker" in
  for_up worker ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      lock_const worker 0;
      work_const worker work (fun env -> env.Vm.Env.write 0 (env.Vm.Env.read 0 + 1));
      unlock_const worker 0);
  exit_ worker;
  let main = proc "main" in
  for i = 0 to workers - 1 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [||])
  done;
  for i = 0 to workers - 1 do
    join_reg main (10 + i)
  done;
  exit_ main;
  program ~mem_words:64 ~n_mutexes:1 ~n_groups:2 ~entry:"main"
    [ finish main; finish worker ]

(* Atomic fetch-and-add from several threads, mirrored into address 0. *)
let atomic_adds ~workers ~iters () =
  let worker = proc "worker" in
  for_up worker ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      compute worker 200;
      atomic worker ~var:(fun _ -> 0) ~dst:2 (fun ~old _ -> old + 1));
  exit_ worker;
  let main = proc "main" in
  for i = 0 to workers - 1 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [||])
  done;
  for i = 0 to workers - 1 do
    join_reg main (10 + i)
  done;
  atomic main ~var:(fun _ -> 0) ~dst:3 (fun ~old _ -> old);
  work_const main 1 (fun env -> env.Vm.Env.write 0 (Vm.Env.get env 3));
  exit_ main;
  program ~mem_words:64 ~n_atomics:1 ~n_groups:2 ~entry:"main"
    [ finish main; finish worker ]

(* Barrier-phased writers: phase-0 marks, phase-1 verifies; address 0 is
   an error flag. *)
let barrier_phases ~n () =
  let worker = proc "worker" in
  work_const worker 100 (fun env ->
      let i = Vm.Env.get env 0 in
      env.Vm.Env.write (10 + i) 1);
  barrier worker 0;
  work_const worker 100 (fun env ->
      let ok = ref true in
      for j = 0 to n - 1 do
        if env.Vm.Env.read (10 + j) <> 1 then ok := false
      done;
      if not !ok then env.Vm.Env.write 0 1);
  exit_ worker;
  let main = proc "main" in
  for i = 0 to n - 1 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [| i |])
  done;
  for i = 0 to n - 1 do
    join_reg main (10 + i)
  done;
  exit_ main;
  program ~mem_words:256 ~barrier_parties:[| n |] ~n_groups:2 ~entry:"main"
    [ finish main; finish worker ]

(* A 3-stage pipeline in miniature (a tiny Pbzip2): one producer reads
   "blocks" and enqueues into a 4-slot FIFO guarded by mutex 0 / condvars
   0 (not-full) and 1 (not-empty); [consumers] dequeue and add processed
   values into an atomic accumulator mirrored to address 0 at the end.
   FIFO state: addr 100 = count, 101 = head, 102 = tail, 103.. = slots. *)
let pipeline ~blocks ~consumers ?(work_c = 3_000) () =
  let cap = 4 in
  let count = 100 and head = 101 and tail = 102 and slots = 103 in
  let producer = proc "producer" in
  for_up producer ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> blocks) (fun () ->
      lock_const producer 0;
      let top = fresh_label producer in
      let go = fresh_label producer in
      bind producer top;
      work_const producer 5 (fun env -> Vm.Env.set env 2 (env.Vm.Env.read count));
      if_to producer (fun r -> r.(2) < cap) go;
      cond_wait producer ~c:0 ~m:0;
      goto producer top;
      bind producer go;
      work_const producer 20 (fun env ->
          let t = env.Vm.Env.read tail in
          env.Vm.Env.write (slots + t) (Vm.Env.get env 1 + 1);
          env.Vm.Env.write tail ((t + 1) mod cap);
          env.Vm.Env.write count (env.Vm.Env.read count + 1));
      cond_signal producer 1;
      unlock_const producer 0);
  (* poison pills: one -1 per consumer *)
  for_up producer ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> consumers) (fun () ->
      lock_const producer 0;
      let top = fresh_label producer in
      let go = fresh_label producer in
      bind producer top;
      work_const producer 5 (fun env -> Vm.Env.set env 2 (env.Vm.Env.read count));
      if_to producer (fun r -> r.(2) < cap) go;
      cond_wait producer ~c:0 ~m:0;
      goto producer top;
      bind producer go;
      work_const producer 20 (fun env ->
          let t = env.Vm.Env.read tail in
          env.Vm.Env.write (slots + t) (-1);
          env.Vm.Env.write tail ((t + 1) mod cap);
          env.Vm.Env.write count (env.Vm.Env.read count + 1));
      cond_signal producer 1;
      unlock_const producer 0);
  exit_ producer;
  let consumer = proc "consumer" in
  let loop_top = fresh_label consumer in
  let finished = fresh_label consumer in
  bind consumer loop_top;
  lock_const consumer 0;
  let wait_top = fresh_label consumer in
  let go = fresh_label consumer in
  bind consumer wait_top;
  work_const consumer 5 (fun env -> Vm.Env.set env 2 (env.Vm.Env.read count));
  if_to consumer (fun r -> r.(2) > 0) go;
  cond_wait consumer ~c:1 ~m:0;
  goto consumer wait_top;
  bind consumer go;
  work_const consumer 20 (fun env ->
      let h = env.Vm.Env.read head in
      Vm.Env.set env 3 (env.Vm.Env.read (slots + h));
      env.Vm.Env.write head ((h + 1) mod cap);
      env.Vm.Env.write count (env.Vm.Env.read count - 1));
  cond_signal consumer 0;
  unlock_const consumer 0;
  if_to consumer (fun r -> r.(3) < 0) finished;
  work consumer ~cost:(fun _ -> work_c) (fun _ -> ());
  atomic consumer ~var:(fun _ -> 0) ~dst:4 (fun ~old r -> old + (r.(3) * 2));
  goto consumer loop_top;
  bind consumer finished;
  exit_ consumer;
  let main = proc "main" in
  fork main ~group:0 ~proc:"producer" ~dst:10 (fun _ -> [||]);
  for i = 0 to consumers - 1 do
    fork main ~group:1 ~proc:"consumer" ~dst:(11 + i) (fun _ -> [||])
  done;
  join_reg main 10;
  for i = 0 to consumers - 1 do
    join_reg main (11 + i)
  done;
  atomic main ~var:(fun _ -> 0) ~dst:3 (fun ~old _ -> old);
  work_const main 1 (fun env -> env.Vm.Env.write 0 (Vm.Env.get env 3));
  exit_ main;
  program ~mem_words:256 ~n_mutexes:1 ~n_condvars:2 ~n_atomics:1 ~n_groups:2
    ~entry:"main"
    [ finish main; finish producer; finish consumer ]

let pipeline_expected blocks = blocks * (blocks + 1)

(* Allocation-heavy workers: each allocates, fills, sums, frees. *)
let alloc_churn ~workers ~iters () =
  let worker = proc "worker" in
  for_up worker ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      alloc worker ~size:(fun _ -> 8) ~dst:2;
      work_const worker 200 (fun env ->
          let a = Vm.Env.get env 2 in
          for i = 0 to 7 do
            env.Vm.Env.write (a + i) (i + 1)
          done;
          let s = ref 0 in
          for i = 0 to 7 do
            s := !s + env.Vm.Env.read (a + i)
          done;
          Vm.Env.set env 3 !s);
      free worker (fun r -> r.(2));
      atomic worker ~var:(fun _ -> 0) ~dst:4 (fun ~old r -> old + r.(3)));
  exit_ worker;
  let main = proc "main" in
  for i = 0 to workers - 1 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [||])
  done;
  for i = 0 to workers - 1 do
    join_reg main (10 + i)
  done;
  atomic main ~var:(fun _ -> 0) ~dst:3 (fun ~old _ -> old);
  work_const main 1 (fun env -> env.Vm.Env.write 0 (Vm.Env.get env 3));
  exit_ main;
  program ~mem_words:65536 ~reserved_words:16 ~n_atomics:1 ~n_groups:2
    ~entry:"main"
    [ finish main; finish worker ]

let alloc_churn_expected workers iters = workers * iters * 36

(* Hybrid-recovery program: non-standard atomics inside a CPR region. *)
let nonstd_region ~workers ~iters () =
  let worker = proc "worker" in
  cpr_begin worker;
  for_up worker ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      compute worker 300;
      nonstd_atomic worker ~var:(fun _ -> 0) ~dst:2 (fun ~old _ -> old + 1));
  cpr_end worker;
  exit_ worker;
  let main = proc "main" in
  for i = 0 to workers - 1 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [||])
  done;
  for i = 0 to workers - 1 do
    join_reg main (10 + i)
  done;
  atomic main ~var:(fun _ -> 0) ~dst:3 (fun ~old _ -> old);
  work_const main 1 (fun env -> env.Vm.Env.write 0 (Vm.Env.get env 3));
  exit_ main;
  program ~mem_words:64 ~n_atomics:1 ~n_groups:2 ~entry:"main"
    [ finish main; finish worker ]

(* File copy-transform through simulated I/O. *)
let file_transform ~n () =
  let input = Array.init n (fun i -> i + 1) in
  let main = proc "main" in
  for_up main ~reg:0 ~from:(fun _ -> 0) ~until:(fun _ -> n) (fun () ->
      work_const main 10 (fun env ->
          let i = Vm.Env.get env 0 in
          let v = env.Vm.Env.file_read 0 ~off:i in
          env.Vm.Env.file_write 1 ~off:i (3 * v)));
  exit_ main;
  program ~mem_words:64 ~entry:"main"
    ~input_files:[ ("in", input) ]
    ~output_files:[ "out" ] [ finish main ]
