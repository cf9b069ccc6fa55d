(* Property-based tests (qcheck) on the core data structures and the
   system-level recovery invariant. *)

let count = 200

let case ?(count = count) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

open QCheck2

(* --- PRNG ---------------------------------------------------------- *)

let prop_prng_bounds =
  case "prng: int always in bounds"
    Gen.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Sim.Prng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Sim.Prng.int g bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_prng_copy_independent =
  case "prng: copy diverges from original only by its own draws"
    Gen.int
    (fun seed ->
      let a = Sim.Prng.create seed in
      let b = Sim.Prng.copy a in
      ignore (Sim.Prng.int64 b);
      (* a's next draw is unaffected by b's *)
      Sim.Prng.int64 a = Sim.Prng.int64 (Sim.Prng.copy (Sim.Prng.create seed)))

(* --- Event queue: model-based against a sorted list ----------------- *)

let prop_evq_sorted =
  case "event queue: pops are time-sorted and complete"
    Gen.(list_size (int_range 1 200) (int_range 0 10_000))
    (fun times ->
      let q = Sim.Event_queue.create () in
      List.iter (fun t -> ignore (Sim.Event_queue.schedule q ~time:t t)) times;
      let rec drain acc =
        match Sim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare times)

let prop_evq_cancel =
  case "event queue: cancelled events never fire"
    Gen.(list_size (int_range 1 100) (pair (int_range 0 1000) bool))
    (fun events ->
      let q = Sim.Event_queue.create () in
      let expected = ref [] in
      List.iter
        (fun (t, keep) ->
          let h = Sim.Event_queue.schedule q ~time:t (t, keep) in
          if keep then expected := t :: !expected
          else Sim.Event_queue.cancel q h)
        events;
      let rec drain acc =
        match Sim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (_, (t, keep)) ->
          if not keep then raise Exit;
          drain (t :: acc)
      in
      match drain [] with
      | popped -> popped = List.sort compare !expected
      | exception Exit -> false)

(* --- Deque: model-based against a list ------------------------------ *)

type dq_op = Push of int | Pop | Steal

let dq_op_gen =
  Gen.(
    frequency
      [ (3, map (fun v -> Push v) int); (2, pure Pop); (2, pure Steal) ])

let prop_deque_model =
  case "deque: matches list model under random ops"
    Gen.(list_size (int_range 1 300) dq_op_gen)
    (fun ops ->
      let d = Sched.Deque.create () in
      let model = ref [] (* front = top/oldest *) in
      List.for_all
        (fun op ->
          match op with
          | Push v ->
            Sched.Deque.push_bottom d v;
            model := !model @ [ v ];
            true
          | Pop -> (
            let got = Sched.Deque.pop_bottom d in
            match List.rev !model with
            | [] -> got = None
            | last :: rest_rev ->
              model := List.rev rest_rev;
              got = Some last)
          | Steal -> (
            let got = Sched.Deque.steal_top d in
            match !model with
            | [] -> got = None
            | first :: rest ->
              model := rest;
              got = Some first))
        ops)

(* --- Waiter FIFO: model-based against a list ------------------------- *)

type fifo_op = FPush of int | FPushFront of int | FPop | FDropOdd

let fifo_op_gen =
  Gen.(
    frequency
      [
        (4, map (fun v -> FPush v) (int_range 0 999));
        (1, map (fun v -> FPushFront v) (int_range 0 999));
        (3, pure FPop);
        (1, pure FDropOdd);
      ])

let prop_fifo_model =
  case "fifo: matches list model under random ops"
    Gen.(list_size (int_range 1 300) fifo_op_gen)
    (fun ops ->
      let q = ref Exec.Fifo.empty in
      let model = ref [] (* head pops first *) in
      List.for_all
        (fun op ->
          match op with
          | FPush v ->
            q := Exec.Fifo.push !q v;
            model := !model @ [ v ];
            true
          | FPushFront v ->
            q := Exec.Fifo.push_front !q v;
            model := v :: !model;
            true
          | FPop -> (
            match (Exec.Fifo.pop !q, !model) with
            | None, [] -> true
            | Some (v, rest), m :: ms ->
              q := rest;
              model := ms;
              v = m
            | _ -> false)
          | FDropOdd ->
            q := Exec.Fifo.filter (fun v -> v mod 2 = 0) !q;
            model := List.filter (fun v -> v mod 2 = 0) !model;
            true)
        ops
      && Exec.Fifo.to_list !q = !model
      && Exec.Fifo.length !q = List.length !model
      && Exec.Fifo.is_empty !q = (!model = [])
      && Exec.Fifo.to_list (Exec.Fifo.of_list !model) = !model)

(* --- Allocator ------------------------------------------------------ *)

let prop_alloc_no_overlap =
  case "allocator: live blocks never overlap"
    Gen.(list_size (int_range 1 60) (int_range 1 32))
    (fun sizes ->
      let m = Vm.Mem.create ~words:8192 in
      let blocks = List.map (fun s -> (Vm.Mem.alloc m s, s)) sizes in
      let sorted = List.sort compare blocks in
      let rec no_overlap = function
        | (a1, s1) :: ((a2, _) :: _ as rest) ->
          a1 + s1 <= a2 && no_overlap rest
        | _ -> true
      in
      no_overlap sorted)

let prop_alloc_free_roundtrip =
  case "allocator: alloc/free/undo round-trips"
    Gen.(list_size (int_range 1 40) (pair (int_range 1 16) bool))
    (fun plan ->
      let m = Vm.Mem.create ~words:4096 in
      let live = ref [] in
      List.iter
        (fun (size, do_free) ->
          let a = Vm.Mem.alloc m size in
          if do_free then Vm.Mem.free m a else live := (a, size) :: !live)
        plan;
      List.for_all
        (fun (a, s) -> Vm.Mem.block_size m a = Some s)
        !live)

let prop_alloc_coalesce =
  case "allocator: frees coalesce — whole arena reallocatable"
    Gen.(pair (list_size (int_range 1 60) (int_range 1 32)) int)
    (fun (sizes, shuffle_seed) ->
      let m = Vm.Mem.create ~words:8192 in
      let blocks = Array.of_list (List.map (fun s -> Vm.Mem.alloc m s) sizes) in
      (* free in a pseudo-random order; adjacency merging must leave a
         single free block regardless *)
      Sim.Prng.shuffle (Sim.Prng.create shuffle_seed) blocks;
      Array.iter (fun a -> Vm.Mem.free m a) blocks;
      Vm.Mem.alloc m 8192 = 0)

(* --- Incremental snapshots: image restore ≡ full-copy restore -------- *)

let mem_writes_gen =
  QCheck2.Gen.(list_size (int_range 0 120) (pair (int_range 0 511) (int_range 0 9999)))

let prop_mem_image_equiv =
  case "mem: restore(incremental image) ≡ restore(full copy)"
    Gen.(triple mem_writes_gen mem_writes_gen mem_writes_gen)
    (fun (w0, w1, w2) ->
      let m = Vm.Mem.create ~words:512 in
      let apply ws = List.iter (fun (a, v) -> Vm.Mem.write m a v) ws in
      let contents () = Array.init 512 (Vm.Mem.read m) in
      apply w0;
      let img1 = Vm.Mem.alloc_image m in
      ignore (Vm.Mem.capture m img1);
      let full1 = contents () in
      apply w1;
      let img2 = Vm.Mem.alloc_image m in
      ignore (Vm.Mem.capture m img2);
      let full2 = contents () in
      apply w2;
      ignore (Vm.Mem.restore_image m img2);
      let ok2 = contents () = full2 in
      ignore (Vm.Mem.restore_image m img1);
      let ok1 = contents () = full1 in
      (* recycle img2 as a pool image: incremental re-capture, then
         restore across fresh dirt *)
      apply w2;
      ignore (Vm.Mem.capture m img2);
      let full3 = contents () in
      apply w1;
      ignore (Vm.Mem.restore_image m img2);
      ok1 && ok2 && contents () = full3)

(* --- Undo log: random writes restore exactly ------------------------ *)

let prop_undo_restores =
  case "undo log: replay restores the pre-state exactly"
    Gen.(list_size (int_range 1 200) (pair (int_range 0 255) (int_range 0 1000)))
    (fun writes ->
      let m = Vm.Mem.create ~words:256 in
      (* scatter an initial state *)
      List.iteri (fun i (a, _) -> Vm.Mem.write m a (i * 7)) writes;
      let initial = Array.init 256 (Vm.Mem.read m) in
      let log = Exec.Undo_log.create () in
      List.iter
        (fun (a, v) ->
          ignore (Exec.Undo_log.note log (Exec.Undo_log.K_mem a) ~old:(Vm.Mem.read m a));
          Vm.Mem.write m a v)
        writes;
      ignore
        (Exec.Undo_log.replay ~mem:m ~atomics:[||] ~io:(Vm.Io.create ()) log);
      Array.for_all2 ( = ) initial (Array.init 256 (Vm.Mem.read m)))

let prop_paged_undo_equiv =
  case "undo log: paged variant counts and restores like the entry log"
    Gen.(list_size (int_range 1 200) (pair (int_range 0 255) (int_range 0 1000)))
    (fun writes ->
      let m = Vm.Mem.create ~words:256 in
      List.iteri (fun i (a, _) -> Vm.Mem.write m a (i * 7)) writes;
      let img = Vm.Mem.alloc_image m in
      ignore (Vm.Mem.capture m img);
      let initial = Array.init 256 (Vm.Mem.read m) in
      let paged = Exec.Undo_log.create ~paged:m () in
      let plain = Exec.Undo_log.create () in
      List.iter
        (fun (a, v) ->
          let old = Vm.Mem.read m a in
          ignore (Exec.Undo_log.note paged (Exec.Undo_log.K_mem a) ~old);
          ignore (Exec.Undo_log.note plain (Exec.Undo_log.K_mem a) ~old);
          Vm.Mem.write m a v)
        writes;
      let same_size = Exec.Undo_log.size paged = Exec.Undo_log.size plain in
      let replayed =
        Exec.Undo_log.replay ~mem:m ~atomics:[||] ~io:(Vm.Io.create ()) paged
      in
      ignore (Vm.Mem.restore_image m img);
      same_size
      && replayed = Exec.Undo_log.size plain
      && Array.for_all2 ( = ) initial (Array.init 256 (Vm.Mem.read m)))

(* The log against a reference model: an assoc list of (key, pre-image),
   newest first. Two logs (an older and a newer one, for [merge_newer])
   take random notes over all four key kinds, with small key spaces so
   keys repeat and file offsets past 16 bits, interleaved with replay,
   reset and merge. Every note is followed by a write of a fresh value,
   as a tracked store does, into two identical machine states; replay
   restores one through the log and the other through the model. *)
type undo_op =
  | U_note of bool * Exec.Undo_log.key * int  (* on the older log? *)
  | U_replay of bool
  | U_reset of bool
  | U_merge

let gen_undo_key =
  Gen.(
    oneof
      [
        map (fun a -> Exec.Undo_log.K_mem a) (int_range 0 63);
        map (fun v -> Exec.Undo_log.K_atomic v) (int_range 0 7);
        map2
          (fun f off -> Exec.Undo_log.K_file (f, off))
          (int_range 0 1)
          (frequency [ (6, int_range 0 15); (1, int_range 65530 65541) ]);
        map (fun f -> Exec.Undo_log.K_file_len f) (int_range 0 1);
      ])

let gen_undo_op =
  Gen.(
    frequency
      [
        (16, map3 (fun o k v -> U_note (o, k, v)) bool gen_undo_key (int_range 0 999));
        (1, map (fun o -> U_replay o) bool);
        (1, map (fun o -> U_reset o) bool);
        (1, return U_merge);
      ])

let prop_undo_model =
  case ~count:300 "undo log: agrees with an assoc-list model"
    Gen.(list_size (int_range 1 150) gen_undo_op)
    (fun ops ->
      let mk () =
        let io = Vm.Io.create () in
        ignore (Vm.Io.add_file io ~name:"a" [| 1; 2; 3 |]);
        ignore (Vm.Io.add_file io ~name:"b" [||]);
        let mem = Vm.Mem.create ~words:64 in
        for a = 0 to 63 do
          Vm.Mem.write mem a (a * 3)
        done;
        (mem, Array.init 8 (fun v -> 100 + v), io)
      in
      let ((mem1, at1, io1) as s1) = mk () and ((mem2, at2, io2) as s2) = mk () in
      let read (mem, atomics, io) = function
        | Exec.Undo_log.K_mem a -> Vm.Mem.read mem a
        | K_atomic v -> atomics.(v)
        | K_file (f, off) -> Vm.Io.read io f ~off
        | K_file_len f -> Vm.Io.size io f
      in
      let write (mem, atomics, io) key v =
        match key with
        | Exec.Undo_log.K_mem a -> Vm.Mem.write mem a v
        | K_atomic x -> atomics.(x) <- v
        | K_file (f, off) -> Vm.Io.write io f ~off v
        | K_file_len f -> Vm.Io.truncate io f (v mod 24)
      in
      let restore (mem, atomics, io) (key, old) =
        match key with
        | Exec.Undo_log.K_mem a -> Vm.Mem.write mem a old
        | K_atomic v -> atomics.(v) <- old
        | K_file (f, off) -> Vm.Io.write io f ~off old
        | K_file_len f -> Vm.Io.truncate io f old
      in
      let same_state () =
        Array.for_all2 ( = ) (Array.init 64 (Vm.Mem.read mem1))
          (Array.init 64 (Vm.Mem.read mem2))
        && at1 = at2
        && List.for_all
             (fun f -> Vm.Io.contents io1 f = Vm.Io.contents io2 f)
             [ 0; 1 ]
      in
      let older = Exec.Undo_log.create () and newer = Exec.Undo_log.create () in
      let m_older = ref [] and m_newer = ref [] in
      let pick o = if o then (older, m_older) else (newer, m_newer) in
      let model_note m key old =
        if List.mem_assoc key !m then false
        else begin
          m := (key, old) :: !m;
          true
        end
      in
      let agrees log m =
        Exec.Undo_log.size log = List.length !m
        && Exec.Undo_log.keys log = List.map fst !m
        && Exec.Undo_log.is_empty log = (!m = [])
      in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | U_note (o, key, v) ->
              let log, m = pick o in
              let old = read s1 key in
              let r = Exec.Undo_log.note log key ~old in
              let r' = model_note m key old in
              write s1 key v;
              write s2 key v;
              r = r'
            | U_replay o ->
              let log, m = pick o in
              let n = Exec.Undo_log.replay ~mem:mem1 ~atomics:at1 ~io:io1 log in
              let n' = List.length !m in
              List.iter (restore s2) !m;
              m := [];
              n = n' && same_state ()
            | U_reset o ->
              let log, m = pick o in
              Exec.Undo_log.reset log;
              m := [];
              true
            | U_merge ->
              Exec.Undo_log.merge_newer ~older newer;
              List.iter
                (fun (key, old) -> ignore (model_note m_older key old))
                (List.rev !m_newer);
              m_newer := [];
              true
          in
          step_ok && agrees older m_older && agrees newer m_newer)
        ops)

(* --- ROL ------------------------------------------------------------ *)

let prop_rol_head_is_min =
  case "rol: head is always the minimum live id"
    Gen.(list_size (int_range 1 100) (int_range 0 999))
    (fun ids ->
      let ids = List.sort_uniq compare ids in
      let rol = Gprs.Rol.create () in
      let dummy_saved =
        Vm.Tcb.copy_state
          (Vm.Tcb.create ~n_barriers:0 ~tid:0 ~group:0
             ~proc:{ Vm.Isa.pname = "p"; code = [| Vm.Isa.Exit |] }
             ~args:[||])
      in
      List.iter
        (fun id ->
          Gprs.Rol.insert rol (Gprs.Subthread.make ~id ~tid:0 ~now:0 ~saved:dummy_saved))
        ids;
      (* remove a deterministic subset *)
      let kept = List.filteri (fun i _ -> i mod 3 <> 0) ids in
      List.iteri (fun i id -> if i mod 3 = 0 then Gprs.Rol.remove rol id) ids;
      match (Gprs.Rol.head rol, kept) with
      | None, [] -> true
      | Some h, k :: _ -> h.Gprs.Subthread.id = k
      | _ -> false)

let prop_rol_retire_prefix =
  case "rol: retire pops exactly the completed aged prefix"
    Gen.(list_size (int_range 1 60) bool)
    (fun completions ->
      let rol = Gprs.Rol.create () in
      let dummy_saved =
        Vm.Tcb.copy_state
          (Vm.Tcb.create ~n_barriers:0 ~tid:0 ~group:0
             ~proc:{ Vm.Isa.pname = "p"; code = [| Vm.Isa.Exit |] }
             ~args:[||])
      in
      List.iteri
        (fun id complete ->
          let sub = Gprs.Subthread.make ~id ~tid:0 ~now:0 ~saved:dummy_saved in
          if complete then sub.Gprs.Subthread.status <- Gprs.Subthread.Complete 10;
          Gprs.Rol.insert rol sub)
        completions;
      let retired = Gprs.Rol.retire_ready rol ~now:1000 ~latency:100 in
      let expected_prefix =
        let rec count = function true :: rest -> 1 + count rest | _ -> 0 in
        count completions
      in
      List.length retired = expected_prefix)

(* --- Order policies -------------------------------------------------- *)

let prop_order_grants_eligible =
  case "order: the holder is always live and eligible"
    Gen.(
      pair (int_range 1 10)
        (list_size (int_range 1 80) (pair (int_range 0 9) bool)))
    (fun (n_threads, toggles) ->
      let t = Gprs.Order.create Gprs.Order.Round_robin ~group_weights:[| 1 |] in
      for tid = 0 to n_threads - 1 do
        Gprs.Order.add_thread t ~tid ~group:0
      done;
      List.for_all
        (fun (tid, elig) ->
          Gprs.Order.set_eligible t (tid mod n_threads) elig;
          match Gprs.Order.holder t with
          | None -> true
          | Some h ->
            Gprs.Order.is_eligible t h
            &&
            (Gprs.Order.advance t ~granted:h;
             true))
        toggles)

(* The memoized holder against a fresh scan: after every random
   mutation, the same mutations replayed into a new table, whose first
   [holder] call scans with no memo, must designate the same thread. *)
type order_op =
  | O_add of int * int  (* tid, group *)
  | O_remove of int
  | O_eligible of int * bool
  | O_advance of int
  | O_grant  (* advance the current holder, if any *)

let apply_order_op t = function
  | O_add (tid, group) -> Gprs.Order.add_thread t ~tid ~group
  | O_remove tid -> Gprs.Order.remove_thread t tid
  | O_eligible (tid, e) -> Gprs.Order.set_eligible t tid e
  | O_advance tid -> Gprs.Order.advance t ~granted:tid
  | O_grant -> (
    match Gprs.Order.holder t with
    | Some h -> Gprs.Order.advance t ~granted:h
    | None -> ())

let prop_order_memo_fresh =
  case "order: memoized holder equals a fresh scan, all schemes"
    Gen.(
      triple (int_range 0 3) (int_range 1 3)
        (list_size (int_range 1 60)
           (frequency
              [
                (3, map (fun g -> O_add (0, g)) (int_range 0 2));
                (1, map (fun t -> O_remove t) (int_range 0 11));
                (4, map2 (fun t e -> O_eligible (t, e)) (int_range 0 11) bool);
                (1, map (fun t -> O_advance t) (int_range 0 11));
                (2, return O_grant);
              ])))
    (fun (si, n_groups, ops) ->
      let scheme =
        [| Gprs.Order.Round_robin; Balance_aware; Weighted; Recorded |].(si)
      in
      let weights = Array.init n_groups (fun g -> g + 1) in
      let t = Gprs.Order.create scheme ~group_weights:weights in
      let n_added = ref 0 and applied = ref [] in
      List.for_all
        (fun op ->
          (* Fix what the replay must repeat: fresh tids, and which tid a
             grant advanced. *)
          let op =
            match op with
            | O_add (_, g) ->
              incr n_added;
              O_add (!n_added - 1, g mod n_groups)
            | O_grant -> (
              match Gprs.Order.holder t with
              | Some h -> O_advance h
              | None -> O_advance (-1))
            | O_remove _ | O_eligible _ | O_advance _ -> op
          in
          apply_order_op t op;
          applied := op :: !applied;
          let fresh = Gprs.Order.create scheme ~group_weights:weights in
          List.iter (apply_order_op fresh) (List.rev !applied);
          Gprs.Order.holder t = Gprs.Order.holder fresh)
        ops)

let prop_order_fair =
  case "order: every eligible thread is granted within one rotation"
    (Gen.int_range 2 12)
    (fun n ->
      let t = Gprs.Order.create Gprs.Order.Round_robin ~group_weights:[| 1 |] in
      for tid = 0 to n - 1 do
        Gprs.Order.add_thread t ~tid ~group:0
      done;
      let seen = Array.make n false in
      for _ = 1 to n do
        match Gprs.Order.holder t with
        | Some h ->
          seen.(h) <- true;
          Gprs.Order.advance t ~granted:h
        | None -> ()
      done;
      Array.for_all Fun.id seen)

(* --- chunk_bounds ----------------------------------------------------- *)

let prop_chunks_partition =
  case "chunk_bounds: chunks partition the range"
    Gen.(pair (int_range 0 10_000) (int_range 1 64))
    (fun (total, parts) ->
      let ranges = List.init parts (Workloads.Workload.chunk_bounds ~total ~parts) in
      let covered = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ranges in
      let contiguous =
        let rec go prev = function
          | [] -> true
          | (lo, hi) :: rest -> lo = prev && hi >= lo && go hi rest
        in
        go 0 ranges
      in
      covered = total && contiguous)

(* --- Weighted order: turn-share matches weights ----------------------- *)

let prop_weighted_turn_share =
  case ~count:50 "order: weighted group gets its share of turns"
    Gen.(pair (int_range 1 4) (int_range 1 4))
    (fun (w0, w1) ->
      let t = Gprs.Order.create Gprs.Order.Weighted ~group_weights:[| w0; w1 |] in
      Gprs.Order.add_thread t ~tid:0 ~group:0;
      Gprs.Order.add_thread t ~tid:1 ~group:1;
      let turns0 = ref 0 and turns1 = ref 0 in
      let cycles = 12 in
      for _ = 1 to cycles * (w0 + w1) do
        match Gprs.Order.holder t with
        | Some 0 ->
          incr turns0;
          Gprs.Order.advance t ~granted:0
        | Some 1 ->
          incr turns1;
          Gprs.Order.advance t ~granted:1
        | Some _ | None -> ()
      done;
      !turns0 = cycles * w0 && !turns1 = cycles * w1)

(* --- Scheduler conservation ------------------------------------------ *)

let prop_scheduler_conservation =
  case "scheduler: every enqueued item is taken exactly once"
    Gen.(
      pair (int_range 1 8)
        (list_size (int_range 1 200) (pair (int_range 0 7) (int_range 0 10_000))))
    (fun (n_ctx, items) ->
      let s = Sched.Scheduler.create Sched.Scheduler.Work_steal ~n_contexts:n_ctx in
      List.iteri
        (fun i (hint, _) -> Sched.Scheduler.enqueue s ~ctx_hint:hint (i + 1))
        items;
      let taken = Hashtbl.create 64 in
      let rec drain ctx =
        match Sched.Scheduler.take s ~ctx with
        | Some (x, _) ->
          if Hashtbl.mem taken x then raise Exit;
          Hashtbl.add taken x ();
          drain ((ctx + 1) mod n_ctx)
        | None -> ()
      in
      (match drain 0 with () -> () | exception Exit -> ());
      Hashtbl.length taken = List.length items && Sched.Scheduler.is_empty s)

(* --- Barrier counters -------------------------------------------------- *)

let prop_barrier_counters =
  case ~count:40 "barriers: seq = done for every thread after a clean run"
    Gen.(pair (int_range 2 6) (int_range 1 4))
    (fun (n, _steps) ->
      let p = Tprog.barrier_phases ~n () in
      let r =
        Gprs.Engine.run { Gprs.Engine.default_config with n_contexts = 3 } p
      in
      (not r.Exec.State.dnc) && Vm.Mem.read r.Exec.State.final_mem 0 = 0)

(* --- GPRS-lint: well-formed programs pass, mutations fail ------------- *)

(* Straight-line single-proc programs assembled from three well-formed
   segment shapes: pure compute, a balanced lock/compute/unlock critical
   section, and a CPR region wrapping a non-standard atomic. Every
   generated program gets at least one critical section and one region
   appended so the mutation property always has something to break. *)
type lint_seg = LCompute of int | LLocked of int * int | LRegion of int

let lint_segs_gen =
  Gen.(
    map
      (fun segs -> segs @ [ LLocked (0, 5); LRegion 5 ])
      (list_size (int_range 0 12)
         (frequency
            [
              (2, map (fun c -> LCompute (c + 1)) (int_range 0 50));
              ( 3,
                map2
                  (fun m c -> LLocked (m, c + 1))
                  (int_range 0 3) (int_range 0 50) );
              (2, map (fun c -> LRegion (c + 1)) (int_range 0 50));
            ])))

let build_lint_prog segs =
  let open Vm.Builder in
  let m = proc "main" in
  List.iter
    (function
      | LCompute c -> compute m c
      | LLocked (mu, c) ->
        lock_const m mu;
        compute m c;
        unlock_const m mu
      | LRegion c ->
        cpr_begin m;
        compute m c;
        nonstd_atomic m ~var:(fun _ -> 0) ~dst:1 (fun ~old _ -> old + 1);
        cpr_end m)
    segs;
  exit_ m;
  program ~n_mutexes:4 ~n_atomics:1 ~entry:"main" [ finish m ]

let prop_lint_wellformed_clean =
  case ~count:100 "lint: well-formed builder programs have no errors"
    lint_segs_gen
    (fun segs -> not (Lint.Check.has_errors (Lint.Check.program (build_lint_prog segs))))

let prop_lint_mutation_caught =
  case ~count:100 "lint: dropping an unlock or cpr_end is always an error"
    Gen.(pair lint_segs_gen (int_range 0 1_000_000))
    (fun (segs, pick) ->
      let p = build_lint_prog segs in
      let main = List.assoc "main" p.Vm.Isa.procs in
      let droppable =
        List.filteri (fun _ i ->
            match i with Vm.Isa.Unlock _ | Vm.Isa.Cpr_end -> true | _ -> false)
          (Array.to_list main.Vm.Isa.code)
        |> List.length
      in
      let victim_idx =
        (* index (among code positions) of the (pick mod droppable)-th
           Unlock/Cpr_end instruction *)
        let target = pick mod droppable in
        let n = ref (-1) in
        let found = ref (-1) in
        Array.iteri
          (fun i instr ->
            match instr with
            | Vm.Isa.Unlock _ | Vm.Isa.Cpr_end ->
              incr n;
              if !n = target then found := i
            | _ -> ())
          main.Vm.Isa.code;
        !found
      in
      let code = Array.copy main.Vm.Isa.code in
      code.(victim_idx) <-
        Vm.Isa.Work { cost = (fun _ -> 0); run = (fun _ -> ()) };
      let mutated =
        {
          p with
          Vm.Isa.procs =
            [ ("main", { main with Vm.Isa.code }) ];
        }
      in
      Lint.Check.has_errors (Lint.Check.program mutated))

(* --- System-level: globally precise restart -------------------------- *)

let prop_gprs_recovery_exact =
  case ~count:25 "gprs: faulty run's result equals the fault-free result"
    Gen.(quad (int_range 2 5) (int_range 4 14) (int_range 1 10_000) (int_range 1 6))
    (fun (workers, iters, seed, rate10) ->
      (* Rates up to 60/s: comfortably below the livelock threshold of
         this single-mutex workload (every sub-thread aliases the lock,
         so a fault squashes the whole unretired suffix; losses must stay
         under the inter-fault gap for progress). *)
      let p = Tprog.locked_counter ~work:20_000 ~workers ~iters () in
      let r =
        Gprs.Engine.run
          {
            Gprs.Engine.default_config with
            n_contexts = 4;
            seed;
            injector =
              Faults.Injector.config ~seed
                ~process:Faults.Injector.Poisson (float_of_int rate10 *. 10.0);
            max_cycles = Some 2_000_000_000;
          }
          p
      in
      (not r.Exec.State.dnc)
      && Vm.Mem.read r.Exec.State.final_mem 0 = workers * iters)

let prop_cpr_recovery_exact =
  case ~count:15 "cpr: faulty run's result equals the fault-free result"
    Gen.(triple (int_range 2 4) (int_range 4 10) (int_range 1 10_000))
    (fun (workers, iters, seed) ->
      let p = Tprog.locked_counter ~work:20_000 ~workers ~iters () in
      let r =
        Cpr.run
          {
            Cpr.default_config with
            n_contexts = 4;
            seed;
            checkpoint_interval = 0.01;
            injector = Faults.Injector.config ~seed 15.0;
          }
          p
      in
      (not r.Exec.State.dnc)
      && Vm.Mem.read r.Exec.State.final_mem 0 = workers * iters)

(* --- WAL: pruning and dropping never strand or invent entries -------- *)

(* A plan is a list of appends (by order id) followed by interleaved
   prune/drop operations; the live set must always be exactly the
   appended entries minus the pruned and dropped ones. *)
let wal_plan_gen =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 80) (int_range 0 9))
      (list_size (int_range 0 8) (pair bool (int_range 0 9))))

let prop_wal_no_stranding =
  case "wal: prune_below + drop_for never strand entries" wal_plan_gen
    (fun (orders, cuts) ->
      let w = Wal.create () in
      List.iter
        (fun o -> ignore (Wal.append w ~order:o (Wal.Rol_insert { sub = o })))
        orders;
      let live = ref (List.length orders) in
      let gone_below = ref 0 in
      let dropped = Hashtbl.create 8 in
      List.iter
        (fun (is_prune, o) ->
          if is_prune then begin
            let n = Wal.prune_below w ~order:o in
            live := !live - n;
            gone_below := Stdlib.max !gone_below o
          end
          else begin
            let n = Wal.drop_for w ~orders:(fun o' -> o' = o) in
            live := !live - n;
            if o >= !gone_below then Hashtbl.replace dropped o ()
          end)
        cuts;
      let expect =
        List.length
          (List.filter
             (fun o -> o >= !gone_below && not (Hashtbl.mem dropped o))
             orders)
      in
      Wal.size w = !live && !live = expect
      && Wal.high_water w = List.length orders
      && List.length (Wal.entries_for w ~orders:(fun _ -> true)) = expect)

let prop_wal_entries_newest_first =
  case "wal: entries_for is strictly newest-first in LSN"
    (QCheck2.Gen.list_size
       (QCheck2.Gen.int_range 1 100)
       (QCheck2.Gen.int_range 0 5))
    (fun orders ->
      let w = Wal.create () in
      List.iter
        (fun o -> ignore (Wal.append w ~order:o (Wal.Io_op { file = 0; words = o })))
        orders;
      let rec strictly_desc = function
        | (a : Wal.entry) :: (b :: _ as rest) ->
          a.Wal.lsn > b.Wal.lsn && strictly_desc rest
        | _ -> true
      in
      strictly_desc (Wal.entries_for w ~orders:(fun o -> o mod 2 = 0)))

(* --- Allocator: squash-undo restores the free list exactly ----------- *)

(* The squashed sub-thread allocated random blocks (its frees were
   quarantined, so allocs are the only allocator mutations to undo).
   Undoing them newest-first must restore brk and the coalesced free
   list bit-exactly, from any fragmentation the prologue created. *)
let prop_alloc_undo_exact =
  case "allocator: alloc undo restores free list exactly (coalescing)"
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 30) (pair (int_range 1 16) bool))
        (list_size (int_range 1 30) (int_range 1 24))
        int)
    (fun (prologue, sub_sizes, _seed) ->
      let m = Vm.Mem.create ~words:8192 in
      (* Fragment the arena: retired history the undo must not disturb. *)
      List.iter
        (fun (size, do_free) ->
          let a = Vm.Mem.alloc m size in
          if do_free then Vm.Mem.free m a)
        prologue;
      let before = Vm.Mem.alloc_parts m in
      let blocks = List.map (fun s -> Vm.Mem.alloc m s) sub_sizes in
      List.iter (fun a -> Vm.Mem.undo_alloc m a) (List.rev blocks);
      Vm.Mem.alloc_parts m = before)

let suite =
  [
    prop_prng_bounds;
    prop_prng_copy_independent;
    prop_evq_sorted;
    prop_evq_cancel;
    prop_deque_model;
    prop_fifo_model;
    prop_alloc_no_overlap;
    prop_alloc_free_roundtrip;
    prop_alloc_coalesce;
    prop_mem_image_equiv;
    prop_undo_restores;
    prop_paged_undo_equiv;
    prop_undo_model;
    prop_rol_head_is_min;
    prop_rol_retire_prefix;
    prop_order_grants_eligible;
    prop_order_fair;
    prop_order_memo_fresh;
    prop_weighted_turn_share;
    prop_scheduler_conservation;
    prop_barrier_counters;
    prop_chunks_partition;
    prop_lint_wellformed_clean;
    prop_lint_mutation_caught;
    prop_gprs_recovery_exact;
    prop_cpr_recovery_exact;
    prop_wal_no_stranding;
    prop_wal_entries_newest_first;
    prop_alloc_undo_exact;
  ]
