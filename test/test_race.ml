(* Race detection, cross-validated: directed racy fixtures must be
   caught by BOTH the static lockset pass ([Lint.Race]) and the dynamic
   FastTrack sanitizer ([Exec.Tsan]) under every engine; the shipped
   workload suite must be clean on both sides; and qcheck ties the two
   together (dropping a lock from a well-formed generated program is
   flagged statically, and any dynamic report implies a static one).
   The static pass's merge-based set algebra is held against naive
   set-based references, and a golden file pins its output and access
   summaries over the workload matrix. *)

open Vm.Builder

let checkb = Alcotest.(check bool)

let static_diags p = Lint.Race.program p
let static_racy p =
  Lint.Check.has_kind Lint.Diagnostic.Race_unprotected (static_diags p)

(* Dynamic run with the sanitizer forced on; restores the global flag so
   surrounding tests keep their bit-identical off-leg. *)
let run_dyn ~engine ?(contexts = 4) p =
  let was = Exec.Tsan.enabled () in
  Exec.Tsan.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Exec.Tsan.set_enabled was)
    (fun () ->
      match engine with
      | `Pthreads ->
        Exec.Baseline.run
          { Exec.Baseline.default_config with n_contexts = contexts }
          p
      | `Cpr ->
        Cpr.run { Cpr.default_config with n_contexts = contexts } p
      | `Gprs ->
        Gprs.Engine.run ~lint:`Off
          { Gprs.Engine.default_config with n_contexts = contexts }
          p)

let dyn_races ~engine p = (run_dyn ~engine p).Exec.State.races

let engines = [ ("pthreads", `Pthreads); ("cpr", `Cpr); ("gprs", `Gprs) ]

let expect_both_catch name p =
  checkb (name ^ ": static pass flags the race") true (static_racy p);
  List.iter
    (fun (ename, e) ->
      checkb
        (Printf.sprintf "%s: %s sanitizer observes the race" name ename)
        true
        (dyn_races ~engine:e p <> []))
    engines

(* --- directed racy fixtures ------------------------------------------- *)

(* Two instances of the same worker write word 7 with no lock at all:
   the canonical unlocked write/write race. *)
let unlocked_ww_prog () =
  let w = proc "worker" in
  work_const w 5 (fun env -> env.Vm.Env.write 7 env.Vm.Env.tid);
  exit_ w;
  let m = proc "main" in
  fork m ~group:0 ~proc:"worker" ~dst:1 (fun _ -> [||]);
  fork m ~group:0 ~proc:"worker" ~dst:2 (fun _ -> [||]);
  join_reg m 1;
  join_reg m 2;
  exit_ m;
  program ~mem_words:64 ~entry:"main" [ finish m; finish w ]

let unlocked_write_write () =
  expect_both_catch "unlocked w/w" (unlocked_ww_prog ())

(* Writer guards word 7 with mutex 0, reader with mutex 1: both sides
   are locked, but the locksets are disjoint, so nothing orders them. *)
let disjoint_locks_prog () =
  let wr = proc "writer" in
  lock_const wr 0;
  work_const wr 5 (fun env -> env.Vm.Env.write 7 1);
  unlock_const wr 0;
  exit_ wr;
  let rd = proc "reader" in
  lock_const rd 1;
  work_const rd 5 (fun env -> Vm.Env.set env 0 (env.Vm.Env.read 7));
  unlock_const rd 1;
  exit_ rd;
  let m = proc "main" in
  fork m ~group:0 ~proc:"writer" ~dst:1 (fun _ -> [||]);
  fork m ~group:0 ~proc:"reader" ~dst:2 (fun _ -> [||]);
  join_reg m 1;
  join_reg m 2;
  exit_ m;
  program ~mem_words:64 ~n_mutexes:2 ~entry:"main"
    [ finish m; finish wr; finish rd ]

let write_read_disjoint_locks () =
  expect_both_catch "disjoint locks w/r" (disjoint_locks_prog ())

(* The lock id comes in as a fork argument that differs between the two
   instances, so the static pass sees an unresolved (Top) id. An
   unresolved lock must never prove two sites use the SAME mutex —
   and indeed at runtime the instances hold different mutexes while
   both writing word 7. *)
let top_lock_prog () =
  let w = proc "worker" in
  lock w (fun r -> r.(0));
  work_const w 5 (fun env -> env.Vm.Env.write 7 env.Vm.Env.tid);
  unlock w (fun r -> r.(0));
  exit_ w;
  let m = proc "main" in
  fork m ~group:0 ~proc:"worker" ~dst:1 (fun _ -> [| 0 |]);
  fork m ~group:0 ~proc:"worker" ~dst:2 (fun _ -> [| 1 |]);
  join_reg m 1;
  join_reg m 2;
  exit_ m;
  program ~mem_words:64 ~n_mutexes:2 ~entry:"main" [ finish m; finish w ]

let race_behind_top_lock () =
  expect_both_catch "race behind unresolved lock id" (top_lock_prog ())

(* --- fixtures that must stay clean ------------------------------------ *)

let clean_fixtures () =
  List.iter
    (fun (name, p) ->
      checkb (name ^ ": no static race") false (static_racy p);
      checkb (name ^ ": no dynamic race") true (dyn_races ~engine:`Gprs p = []))
    [
      ("locked_counter", Tprog.locked_counter ~workers:3 ~iters:4 ());
      ("pipeline", Tprog.pipeline ~blocks:6 ~consumers:2 ());
      ("fork_join_sum", Tprog.fork_join_sum ~workers:3 ());
      ("nonstd_region", Tprog.nonstd_region ~workers:2 ~iters:3 ());
    ]

(* --- probe fuel degradation ------------------------------------------- *)

let probe_fuel_note () =
  (* The Work body touches memory more times than the probe budget, so
     the summary degrades and the lint must say so rather than stay
     silent about the reduced coverage. *)
  let m = proc "main" in
  work_const m 1 (fun env ->
      let acc = ref 0 in
      for _ = 1 to Lint.Absval.probe_fuel + 10 do
        acc := !acc + env.Vm.Env.read 0
      done;
      Vm.Env.set env 1 !acc);
  exit_ m;
  let p = program ~mem_words:64 ~entry:"main" [ finish m ] in
  checkb "fuel exhaustion surfaces as a finding" true
    (Lint.Check.has_kind Lint.Diagnostic.Probe_fuel (static_diags p));
  checkb "fuel exhaustion alone is not an error" false
    (Lint.Check.has_errors (static_diags p))

(* --- shipped workloads: clean on both sides --------------------------- *)

let workload_sweep_static () =
  List.iter
    (fun spec ->
      let p =
        spec.Workloads.Workload.build ~n_contexts:4
          ~grain:Workloads.Workload.Default ~scale:0.1
      in
      let racy =
        List.filter
          (fun d -> d.Lint.Diagnostic.kind = Lint.Diagnostic.Race_unprotected)
          (static_diags p)
      in
      checkb
        (Printf.sprintf "%s: statically race-free (got %d findings)"
           spec.Workloads.Workload.name (List.length racy))
        true (racy = []))
    Workloads.Suite.all

let workload_sweep_dynamic () =
  List.iter
    (fun spec ->
      let p =
        spec.Workloads.Workload.build ~n_contexts:4
          ~grain:Workloads.Workload.Default ~scale:0.1
      in
      List.iter
        (fun (ename, e) ->
          let rs = dyn_races ~engine:e p in
          checkb
            (Printf.sprintf "%s/%s: dynamically race-free (got %d reports)"
               spec.Workloads.Workload.name ename (List.length rs))
            true (rs = []))
        [ ("pthreads", `Pthreads); ("gprs", `Gprs) ])
    Workloads.Suite.all

(* --- sanitizer plumbing ----------------------------------------------- *)

let disabled_reports_nothing () =
  let was = Exec.Tsan.enabled () in
  Exec.Tsan.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Exec.Tsan.set_enabled was)
    (fun () ->
      let r =
        Exec.Baseline.run
          { Exec.Baseline.default_config with n_contexts = 4 }
          (unlocked_ww_prog ())
      in
      checkb "disabled sanitizer reports nothing even on a racy program"
        true
        (r.Exec.State.races = []))

let report_sites_make_sense () =
  let rs = dyn_races ~engine:`Pthreads (unlocked_ww_prog ()) in
  checkb "at least one report" true (rs <> []);
  List.iter
    (fun r ->
      checkb "report names word 7" true (r.Exec.Tsan.addr = 7);
      checkb "reporting thread is a worker" true
        (r.Exec.Tsan.proc2 = "worker");
      checkb "distinct threads" true (r.Exec.Tsan.tid1 <> r.Exec.Tsan.tid2))
    rs

(* --- qcheck: the two detectors agree ---------------------------------- *)

(* A well-formed program: [n_mut] mutexes, the addr->mutex map is
   [addr mod n_mut], and a worker is a list of segments, each taking one
   mutex and read-modify-writing only addresses it protects. Main forks
   the worker twice and joins both, so every segment races with its twin
   unless the locks order them. [drop] removes the lock/unlock pair of
   one segment. *)
let build_gen_prog ~n_mut ~segs ~drop =
  let w = proc "worker" in
  List.iteri
    (fun i (m, ks) ->
      let addrs = List.map (fun k -> m + (k * n_mut)) ks in
      let dropped = drop = Some i in
      if not dropped then lock_const w m;
      work_const w 3 (fun env ->
          List.iter
            (fun a -> env.Vm.Env.write a (env.Vm.Env.read a + 1))
            addrs);
      if not dropped then unlock_const w m)
    segs;
  exit_ w;
  let main = proc "main" in
  fork main ~group:0 ~proc:"worker" ~dst:1 (fun _ -> [||]);
  fork main ~group:0 ~proc:"worker" ~dst:2 (fun _ -> [||]);
  join_reg main 1;
  join_reg main 2;
  exit_ main;
  program ~mem_words:64 ~n_mutexes:n_mut ~entry:"main"
    [ finish main; finish w ]

let gen_shape =
  QCheck2.Gen.(
    int_range 1 3 >>= fun n_mut ->
    pair (return n_mut)
      (list_size (int_range 1 4)
         (pair
            (int_range 0 (n_mut - 1))
            (list_size (int_range 1 3) (int_range 0 4)))))

let case ?(count = 50) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

let prop_wellformed_clean =
  case "race: well-formed locked program is clean on both sides"
    gen_shape
    (fun (n_mut, segs) ->
      let p = build_gen_prog ~n_mut ~segs ~drop:None in
      (not (static_racy p)) && dyn_races ~engine:`Pthreads p = [])

let prop_dropped_lock_flagged =
  case "race: dropping any one lock is flagged statically"
    QCheck2.Gen.(pair gen_shape (int_range 0 3))
    (fun ((n_mut, segs), which) ->
      let drop = Some (which mod List.length segs) in
      static_racy (build_gen_prog ~n_mut ~segs ~drop))

let prop_dynamic_implies_static =
  case "race: every dynamic report implies a static finding"
    QCheck2.Gen.(pair gen_shape (option (int_range 0 3)))
    (fun ((n_mut, segs), which) ->
      let drop = Option.map (fun i -> i mod List.length segs) which in
      let p = build_gen_prog ~n_mut ~segs ~drop in
      dyn_races ~engine:`Pthreads p = [] || static_racy p)

(* --- merge-based set algebra against naive references ------------------- *)

let page_bits = Lint.Races.page_bits

(* The quadratic set-based definition [Lint.Races.classify] replaced,
   kept here as its reference. *)
let naive_classify ~mem_words ta tb =
  let sorted tbl =
    Hashtbl.fold (fun a () acc -> a :: acc) tbl [] |> List.sort_uniq compare
  in
  let sa = sorted ta and sb = sorted tb in
  let words =
    List.filter (fun a -> List.mem a sb && a >= 0 && a < mem_words) sa
  in
  let leftover s = List.filter (fun a -> not (List.mem a words)) s in
  let la = leftover sa and lb = leftover sb in
  let max_page = (mem_words + (1 lsl page_bits) - 1) lsr page_bits in
  let pages l =
    List.map (fun a -> a lsr page_bits) l
    |> List.sort_uniq compare
    |> List.filter (fun p -> p >= 0 && p < max_page)
  in
  let pb = pages lb in
  let shared = List.filter (fun p -> List.mem p pb) (pages la) in
  let unknown =
    List.length
      (List.filter (fun a -> not (List.mem (a lsr page_bits) shared)) la)
  in
  (words, shared, unknown)

let naive_first_word_in_pages words pages =
  List.find_opt (fun w -> List.mem (w lsr page_bits) pages) words

let naive_region_overlap (w_words, w_pages) (o_words, o_pages) =
  let common a b = List.find_opt (fun x -> List.mem x b) a in
  let page w = Lint.Race.Page (w lsr page_bits) in
  match common w_words o_words with
  | Some w -> Some (Lint.Race.Word w)
  | None -> (
    match naive_first_word_in_pages w_words o_pages with
    | Some w -> Some (page w)
    | None -> (
      match naive_first_word_in_pages o_words w_pages with
      | Some w -> Some (page w)
      | None ->
        Option.map (fun p -> Lint.Race.Page p) (common w_pages o_pages)))

(* The elements of [l] at the set bits of [mask]. *)
let subset mask l =
  List.filteri (fun i _ -> mask land (1 lsl (i mod 30)) <> 0) l

let table l =
  let t = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace t a ()) l;
  t

(* Memory sizes on and off a page multiple, and addresses drawn from
   around zero (negatives included), around every page boundary up to
   just past memory, at and above [mem_words], and anywhere in memory. *)
let gen_mem_words =
  QCheck2.Gen.(
    oneof [ int_range 1 400; map (fun k -> k lsl page_bits) (int_range 1 6) ])

let gen_addr mem_words =
  let page = 1 lsl page_bits in
  QCheck2.Gen.(
    frequency
      [
        (1, int_range (-2 * page) (-1));
        (1, map (fun k -> -(k lsl 40)) (int_range 1 3));
        ( 3,
          map2
            (fun p d -> (p * page) + d)
            (int_range 0 ((mem_words / page) + 1))
            (int_range (-3) 2) );
        (2, int_range mem_words (mem_words + (2 * page)));
        (4, int_range 0 (mem_words - 1));
      ])

(* Probe B's address set relates to probe A's the ways real probes do:
   the same set, a subset or superset of it, A shifted within or across
   pages, or independent. Either side may be empty. *)
let gen_tables =
  QCheck2.Gen.(
    gen_mem_words >>= fun mem_words ->
    let addrs = list_size (int_range 0 40) (gen_addr mem_words) in
    addrs >>= fun a ->
    let b =
      oneof
        [
          return a;
          return [];
          map (fun mask -> subset mask a) (int_bound 0x3FFFFFFF);
          map (fun extra -> a @ extra) addrs;
          map (fun d -> List.map (fun x -> x + d) a) (int_range (-70) 70);
          addrs;
        ]
    in
    map (fun b -> (mem_words, a, b)) b)

let print_tables (mem_words, a, b) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "mem_words=%d a=[%s] b=[%s]" mem_words (ints a) (ints b)

let prop_classify_matches_naive =
  case ~count:1000 ~print:print_tables
    "race: classify = naive set-based classification" gen_tables
    (fun (mem_words, a, b) ->
      Lint.Races.classify ~mem_words (table a) (table b)
      = naive_classify ~mem_words (table a) (table b))

(* Summary-shaped inputs: sorted, distinct, non-negative words and pages
   around a few page boundaries, one side sometimes a subset of the
   other. *)
let gen_region =
  QCheck2.Gen.(
    let sorted n hi =
      map (List.sort_uniq compare) (list_size n (int_range 0 hi))
    in
    pair (sorted (int_range 0 12) 300) (sorted (int_range 0 4) 5))

let gen_regions =
  QCheck2.Gen.(
    gen_region >>= fun ((ww, wp) as w) ->
    oneof
      [
        gen_region;
        return w;
        map2
          (fun mw mp -> (subset mw ww, subset mp wp))
          (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF);
      ]
    >|= fun o -> (w, o))

let print_regions ((ww, wp), (ow, op)) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "w=([%s],[%s]) o=([%s],[%s])" (ints ww) (ints wp) (ints ow)
    (ints op)

let prop_region_overlap_matches_naive =
  case ~count:1000 ~print:print_regions "race: region_overlap = naive overlap"
    gen_regions (fun (w, o) ->
      Lint.Race.region_overlap w o = naive_region_overlap w o
      && Lint.Race.region_overlap o w = naive_region_overlap o w)

let prop_first_word_in_pages_matches_naive =
  case ~count:1000 ~print:print_regions
    "race: first_word_in_pages = naive scan" gen_regions
    (fun ((ww, wp), (ow, op)) ->
      Lint.Race.first_word_in_pages ww op = naive_first_word_in_pages ww op
      && Lint.Race.first_word_in_pages ow wp = naive_first_word_in_pages ow wp)

(* Summaries straight from [classify] over generated tables feed the
   overlap too, so the two halves are checked on each other's shapes. *)
let prop_overlap_of_classified =
  case ~count:300
    ~print:(fun (x, y) -> print_tables x ^ " / " ^ print_tables y)
    "race: region_overlap = naive on classified summaries"
    QCheck2.Gen.(pair gen_tables gen_tables)
    (fun (t1, t2) ->
      let region (mem_words, a, b) =
        let words, pages, _ =
          Lint.Races.classify ~mem_words (table a) (table b)
        in
        (words, pages)
      in
      let r1 = region t1 and r2 = region t2 in
      Lint.Race.region_overlap r1 r2 = naive_region_overlap r1 r2)

let classify_edge_cases () =
  let check name ~mem_words a b =
    Alcotest.(check bool) name true
      (Lint.Races.classify ~mem_words (table a) (table b)
      = naive_classify ~mem_words (table a) (table b))
  in
  check "empty tables" ~mem_words:64 [] [];
  check "one empty side" ~mem_words:64 [ 1; 2; 70 ] [];
  check "negative addresses" ~mem_words:64 [ -1; -64; -65; 3 ] [ -1; -2; 3 ];
  check "at and above mem_words" ~mem_words:100 [ 99; 100; 101; 130 ]
    [ 99; 100; 102; 131 ];
  check "across a page boundary" ~mem_words:256 [ 62; 63; 64; 65 ]
    [ 63; 64; 127; 128 ];
  check "subset" ~mem_words:200 [ 1; 5; 64; 150 ] [ 5; 150 ];
  Alcotest.(check (triple (list int) (list int) int))
    "same page, different words" ([ 7 ], [ 1 ], 1)
    (Lint.Races.classify ~mem_words:256 (table [ 7; 64; 300 ])
       (table [ 7; 65 ]))

(* --- golden diagnostics over the workload matrix ------------------------ *)

(* Every Work site's access summary, rendered and hashed, so the golden
   file pins the summaries too, not only the (clean) race verdicts. *)
let summaries_line (facts : Lint.Check.facts) =
  let sites = facts.Lint.Check.f_accesses in
  let ints l = String.concat "," (List.map string_of_int l) in
  let site (p, pc, _, _, (s : Lint.Races.summary)) =
    Printf.sprintf "%s.%d w[%s] r[%s] wp[%s] rp[%s] u%d/%d%s" p pc
      (ints s.w_words) (ints s.r_words) (ints s.w_pages) (ints s.r_pages)
      s.unknown_writes s.unknown_reads
      (if s.incomplete then " incomplete" else "")
  in
  let total f = List.fold_left (fun acc (_, _, _, _, s) -> acc + f s) 0 sites in
  Printf.sprintf "%d sites, %d words, %d pages, %d unknown, md5 %s"
    (List.length sites)
    (total (fun s -> List.length s.Lint.Races.w_words + List.length s.r_words))
    (total (fun s -> List.length s.Lint.Races.w_pages + List.length s.r_pages))
    (total (fun s -> s.Lint.Races.unknown_writes + s.unknown_reads))
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map site sites))))

(* One header per configuration, then its [Lint.Race.program] findings,
   one per line. *)
let golden_lines () =
  let grains =
    [
      ("default", Workloads.Workload.Default);
      ("fine", Workloads.Workload.Fine);
    ]
  in
  List.concat_map
    (fun spec ->
      List.concat_map
        (fun n ->
          List.concat_map
            (fun (gname, grain) ->
              List.concat_map
                (fun scale ->
                  let p =
                    spec.Workloads.Workload.build ~n_contexts:n ~grain ~scale
                  in
                  let diags = Lint.Race.program p in
                  let _, facts = Lint.Check.program_facts p in
                  Printf.sprintf "== %s contexts=%d grain=%s scale=%g: %s; %s"
                    spec.Workloads.Workload.name n gname scale
                    (Lint.Render.summary diags) (summaries_line facts)
                  :: List.map (Format.asprintf "%a" Lint.Diagnostic.pp) diags)
                [ 0.5; 1.0 ])
            grains)
        [ 2; 8; 24 ])
    Workloads.Suite.all

let golden_file = "fixtures/lint_golden.txt"

let golden_matrix () =
  Tprog.check_golden ~file:golden_file ~out:"lint_golden.actual"
    (golden_lines ())

let suite =
  [
    Alcotest.test_case "unlocked write/write" `Quick unlocked_write_write;
    Alcotest.test_case "write/read under disjoint locks" `Quick
      write_read_disjoint_locks;
    Alcotest.test_case "race behind unresolved lock id" `Quick
      race_behind_top_lock;
    Alcotest.test_case "clean fixtures stay clean" `Quick clean_fixtures;
    Alcotest.test_case "probe fuel note" `Quick probe_fuel_note;
    Alcotest.test_case "workload suite: static race-free" `Quick
      workload_sweep_static;
    Alcotest.test_case "workload suite: dynamic race-free" `Quick
      workload_sweep_dynamic;
    Alcotest.test_case "disabled sanitizer is silent" `Quick
      disabled_reports_nothing;
    Alcotest.test_case "report sites make sense" `Quick
      report_sites_make_sense;
    prop_wellformed_clean;
    prop_dropped_lock_flagged;
    prop_dynamic_implies_static;
    Alcotest.test_case "classify edge cases" `Quick classify_edge_cases;
    prop_classify_matches_naive;
    prop_region_overlap_matches_naive;
    prop_first_word_in_pages_matches_naive;
    prop_overlap_of_classified;
    Alcotest.test_case "lint diagnostics match the golden matrix" `Quick
      golden_matrix;
  ]
