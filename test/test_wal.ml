(* Unit tests for the write-ahead log and the undo log. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_lsn_monotonic () =
  let w = Wal.create () in
  let l1 = Wal.append w ~order:0 (Wal.Alloc { addr = 1; size = 2 }) in
  let l2 = Wal.append w ~order:0 (Wal.Free { addr = 1; size = 2 }) in
  let l3 = Wal.append w ~order:1 (Wal.Thread_create { tid = 5 }) in
  checkb "increasing" true (l1 < l2 && l2 < l3)

let test_entries_for_newest_first () =
  let w = Wal.create () in
  ignore (Wal.append w ~order:0 (Wal.Alloc { addr = 1; size = 1 }));
  ignore (Wal.append w ~order:1 (Wal.Alloc { addr = 2; size = 1 }));
  ignore (Wal.append w ~order:1 (Wal.Alloc { addr = 3; size = 1 }));
  ignore (Wal.append w ~order:2 (Wal.Alloc { addr = 4; size = 1 }));
  let entries = Wal.entries_for w ~orders:(fun o -> o = 1) in
  check "two entries" 2 (List.length entries);
  match entries with
  | [ a; b ] ->
    checkb "newest first" true (a.Wal.lsn > b.Wal.lsn)
  | _ -> Alcotest.fail "unexpected shape"

let test_drop_for () =
  let w = Wal.create () in
  for i = 0 to 9 do
    ignore (Wal.append w ~order:(i mod 3) (Wal.Rol_insert { sub = i }))
  done;
  check "dropped order-1 entries" 3 (Wal.drop_for w ~orders:(fun o -> o = 1));
  check "rest live" 7 (Wal.size w)

let test_prune_below () =
  let w = Wal.create () in
  for i = 0 to 9 do
    ignore (Wal.append w ~order:i (Wal.Rol_insert { sub = i }))
  done;
  check "pruned" 5 (Wal.prune_below w ~order:5);
  check "live" 5 (Wal.size w);
  check "high water unchanged" 10 (Wal.high_water w)

let test_all_oldest_first () =
  let w = Wal.create () in
  ignore (Wal.append w ~order:0 (Wal.Io_op { file = 0; words = 1 }));
  ignore (Wal.append w ~order:1 (Wal.Io_op { file = 0; words = 2 }));
  match Wal.all w with
  | [ a; b ] -> checkb "oldest first" true (a.Wal.lsn < b.Wal.lsn)
  | _ -> Alcotest.fail "expected two"

(* A volatile log builds no text: an append costs its entry record and
   list cell (7 words); formatting a stable-image line would cost well
   over a hundred. *)
let test_append_volatile_no_text () =
  let w = Wal.create () in
  let op = Wal.Rol_insert { sub = 3 } in
  let n = 1_000 in
  let words =
    Tprog.alloc_words (fun () ->
        for i = 1 to n do
          ignore (Wal.append w ~order:i op)
        done)
  in
  checkb (Printf.sprintf "%d words for %d appends" words n) true (words <= 8 * n);
  check "all logged" n (Wal.size w);
  checkb "no image" true (Wal.stable_image w = None)

(* Pins the stable-image text byte for byte over every record kind. *)
let test_stable_image_golden () =
  let w = Wal.create ~stable:true () in
  let app at order op = ignore (Wal.append w ~at ~order op) in
  app 10 0 (Wal.Alloc { addr = 64; size = 8 });
  app 12 1 (Wal.Thread_create { tid = 1 });
  app 15 1 (Wal.Rol_insert { sub = 3 });
  app 20 2 (Wal.Sched_enqueue { sub = 4 });
  app 21 2 (Wal.Io_op { file = 1; words = 16 });
  ignore (Wal.prune_below w ~order:1);
  app 30 3 (Wal.Free { addr = 64; size = 8 });
  Wal.log_checkpoint w ~min_retired:1 ~active:[ 2; 3 ] ~brk:128
    ~free:[ (64, 8) ] ~used:[ (72, 16) ];
  ignore (Wal.drop_for w ~orders:(fun o -> o = 3));
  ignore (Wal.prune_below w ~order:3);
  let image = Option.get (Wal.stable_image w) in
  Alcotest.(check string) "image"
    "O 0 10 0 A 64 8 aace43cd03d0bfda\n\
     O 1 12 1 T 1 0 f1bff87d8fe029d0\n\
     O 2 15 1 R 3 0 2e423b46a1871dea\n\
     O 3 20 2 S 4 0 11a826a10bac8cc4\n\
     O 4 21 2 I 1 16 efb53846623a113c\n\
     P 5 1 3994882b4a5099db\n\
     O 5 30 3 F 64 8 b1f6f6ed8360986b\n\
     B 6 156b9219b03b4deb\n\
     E 6 1 1 2,3 128 64:8 72:16 a3d3e4601fdda59a\n\
     D 6 3 86038dd9191428ec\n\
     P 6 3 546a752b59c15950\n"
    image;
  check "parses back" 11 (List.length (Wal.parse_image image))

(* Undo log *)

let mk_state () =
  let mem = Vm.Mem.create ~words:64 in
  let atomics = Array.make 4 0 in
  let io = Vm.Io.create () in
  let f = Vm.Io.add_file io ~name:"f" [| 7; 8 |] in
  (mem, atomics, io, f)

let test_undo_first_write_only () =
  let log = Exec.Undo_log.create () in
  checkb "first" true (Exec.Undo_log.note log (Exec.Undo_log.K_mem 3) ~old:10);
  checkb "second ignored" false (Exec.Undo_log.note log (Exec.Undo_log.K_mem 3) ~old:99);
  check "size" 1 (Exec.Undo_log.size log)

let test_undo_replay_restores () =
  let mem, atomics, io, f = mk_state () in
  let log = Exec.Undo_log.create () in
  (* mutate with pre-image capture *)
  ignore (Exec.Undo_log.note log (Exec.Undo_log.K_mem 3) ~old:(Vm.Mem.read mem 3));
  Vm.Mem.write mem 3 42;
  ignore (Exec.Undo_log.note log (Exec.Undo_log.K_atomic 1) ~old:atomics.(1));
  atomics.(1) <- 5;
  ignore (Exec.Undo_log.note log (Exec.Undo_log.K_file_len f) ~old:(Vm.Io.size io f));
  ignore
    (Exec.Undo_log.note log (Exec.Undo_log.K_file (f, 5)) ~old:(Vm.Io.read io f ~off:5));
  Vm.Io.write io f ~off:5 77;
  let restored = Exec.Undo_log.replay ~mem ~atomics ~io log in
  check "restored words" 4 restored;
  check "mem back" 0 (Vm.Mem.read mem 3);
  check "atomic back" 0 atomics.(1);
  check "file len back" 2 (Vm.Io.size io f);
  checkb "log reusable" true (Exec.Undo_log.is_empty log)

let test_undo_reverse_order () =
  (* Two writes to the same location across two logs: merging keeps the
     older pre-image. *)
  let mem, atomics, io, _ = mk_state () in
  Vm.Mem.write mem 0 1;
  let older = Exec.Undo_log.create () in
  ignore (Exec.Undo_log.note older (Exec.Undo_log.K_mem 0) ~old:1);
  Vm.Mem.write mem 0 2;
  let newer = Exec.Undo_log.create () in
  ignore (Exec.Undo_log.note newer (Exec.Undo_log.K_mem 0) ~old:2);
  Vm.Mem.write mem 0 3;
  Exec.Undo_log.merge_newer ~older newer;
  ignore (Exec.Undo_log.replay ~mem ~atomics ~io older);
  check "older pre-image wins" 1 (Vm.Mem.read mem 0)

let test_undo_keys () =
  let log = Exec.Undo_log.create () in
  ignore (Exec.Undo_log.note log (Exec.Undo_log.K_mem 1) ~old:0);
  ignore (Exec.Undo_log.note log (Exec.Undo_log.K_mem 2) ~old:0);
  check "two keys" 2 (List.length (Exec.Undo_log.keys log))

(* A file word's key packs the file id into a fixed-width field: an id
   or offset that does not fit must be refused, not folded onto another
   location. *)
let test_undo_file_key_range () =
  let log = Exec.Undo_log.create () in
  let max_off = (1 lsl 44) - 1 in
  checkb "widest key" true
    (Exec.Undo_log.note log (Exec.Undo_log.K_file (65535, max_off)) ~old:1);
  checkb "distinct from file 0" true
    (Exec.Undo_log.note log (Exec.Undo_log.K_file (0, max_off)) ~old:2);
  Alcotest.(check bool)
    "keys decode" true
    (Exec.Undo_log.keys log
    = [ Exec.Undo_log.K_file (0, max_off); Exec.Undo_log.K_file (65535, max_off) ]);
  let raises key =
    match Exec.Undo_log.note log key ~old:0 with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  checkb "file id 65536" true (raises (Exec.Undo_log.K_file (65536, 0)));
  checkb "file id -1" true (raises (Exec.Undo_log.K_file (-1, 3)));
  checkb "offset 2^44" true (raises (Exec.Undo_log.K_file (0, max_off + 1)));
  checkb "negative offset" true (raises (Exec.Undo_log.K_file (1, -1)));
  check "refused notes add nothing" 2 (Exec.Undo_log.size log)

(* The copy-on-write barrier runs on every tracked store: once a location
   is logged, noting it again must cost nothing, and a recycled log must
   not re-pay the growth of its previous life. *)
let test_undo_repeat_allocates_nothing () =
  let io = Vm.Io.create () in
  let f = Vm.Io.add_file io ~name:"f" [||] in
  let log = Exec.Undo_log.create () in
  let note_all n =
    for i = 0 to n - 1 do
      let k = i mod 1000 in
      ignore
        (match k land 3 with
        | 0 -> Exec.Undo_log.note_mem log k ~old:i
        | 1 -> Exec.Undo_log.note_atomic log k ~old:i
        | 2 -> Exec.Undo_log.note_file log f ~off:k ~old:i
        | _ -> Exec.Undo_log.note_file_len log k ~old:i)
    done
  in
  note_all 1000;
  check "warm-up entries" 1000 (Exec.Undo_log.size log);
  check "10k repeated notes" 0 (Tprog.alloc_words (fun () -> note_all 10_000));
  check "reset then re-note 1k keys" 0
    (Tprog.alloc_words (fun () ->
         Exec.Undo_log.reset log;
         note_all 1000));
  check "entries after re-note" 1000 (Exec.Undo_log.size log)

let suite =
  [
    Alcotest.test_case "lsn monotonic" `Quick test_lsn_monotonic;
    Alcotest.test_case "entries_for newest first" `Quick test_entries_for_newest_first;
    Alcotest.test_case "drop_for" `Quick test_drop_for;
    Alcotest.test_case "prune_below" `Quick test_prune_below;
    Alcotest.test_case "all oldest first" `Quick test_all_oldest_first;
    Alcotest.test_case "volatile append builds no text" `Quick
      test_append_volatile_no_text;
    Alcotest.test_case "stable image golden" `Quick test_stable_image_golden;
    Alcotest.test_case "undo: first write only" `Quick test_undo_first_write_only;
    Alcotest.test_case "undo: replay restores" `Quick test_undo_replay_restores;
    Alcotest.test_case "undo: merge keeps older" `Quick test_undo_reverse_order;
    Alcotest.test_case "undo: keys" `Quick test_undo_keys;
    Alcotest.test_case "undo: file key range checked" `Quick
      test_undo_file_key_range;
    Alcotest.test_case "undo: repeated writes allocate nothing" `Quick
      test_undo_repeat_allocates_nothing;
  ]
