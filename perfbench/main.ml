(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   W is oneshot-mix, faults-crash or service-open. With --trace 0 the
   last line of standard output is a JSON object with every end-to-end
   metric; with --trace 1 the workload runs half untraced and half with
   spans and dispatch profiling on, and the object carries the per-layer
   metrics, each layer's self time and share, and the tracing overhead.
   --record rewrites the workload's reference results (perfbench/ref/);
   it is how the references were made when the benchmark was defined. *)

open Common

type workload = {
  setup : seed:int -> unit -> unit;  (* set up; returns the stop function *)
  measure :
    seconds:float -> ledger -> metric list * metric list * (string * J.t) list * float;
  record : unit -> (string * reference) list;
}

(* Each workload as a set-up that installs its state in [cur]. *)
let make ~setup ~measure ~record ~stop =
  let cur = ref None in
  {
    setup =
      (fun ~seed ->
        let st = setup ~seed in
        cur := Some st;
        fun () -> stop st);
    measure = (fun ~seconds l -> measure (Option.get !cur) ~seconds l);
    record;
  }

let workloads =
  [
    ( "oneshot-mix",
      make ~setup:Oneshot.setup ~measure:Oneshot.measure ~record:Oneshot.record
        ~stop:ignore );
    ( "faults-crash",
      make ~setup:Faults_crash.setup ~measure:Faults_crash.measure
        ~record:Faults_crash.record ~stop:ignore );
    ( "service-open",
      make ~setup:Service.setup ~measure:Service.measure ~record:Service.record
        ~stop:Service.stop );
  ]

(* The per-layer metrics, in BENCHMARK.json order. A layer a workload
   bypasses reports 0. *)
let layers =
  [ "bench"; "workloads"; "vm"; "lint"; "gprs"; "exec"; "cpr"; "wal"; "recovery"; "server" ]

let per_layer_units =
  [
    ("workloads.build_ms", "ms"); ("workloads.build_mwords", "Mwords");
    ("vm.analyze_ms", "ms"); ("lint.check_ms", "ms"); ("lint.race_ms", "ms");
    ("gprs.run_ms", "ms"); ("gprs.mwords", "Mwords"); ("gprs.ns_per_subthread", "ns");
    ("gprs.words_per_subthread", "words"); ("gprs.ns_per_instr", "ns");
    ("gprs.subthreads", "count"); ("gprs.retired", "count"); ("gprs.useful_ratio", "ratio");
    ("gprs.tokens", "count"); ("gprs.sync_parks", "count"); ("gprs.steals", "count");
    ("gprs.rol_depth.max", "count"); ("gprs.squashed_subs", "count");
    ("gprs.restart_subs", "count"); ("gprs.wal_undone", "count");
    ("faults.exceptions", "count"); ("faults.runtime_exceptions", "count");
    ("exec.run_ms", "ms"); ("exec.ctx_switches", "count");
    ("cpr.run_ms", "ms"); ("cpr.checkpoints", "count"); ("cpr.rollbacks", "count");
    ("cpr.cycles", "count"); ("cpr.lost_ratio", "ratio");
    ("wal.high_water.max", "count"); ("wal.image_kb", "KB"); ("wal.parse_ms", "ms");
    ("recovery_ms.p50", "ms"); ("recovery_ms.tail", "ms");
    ("recovery.analyze_ms", "ms"); ("recovery.recover_ms", "ms");
    ("recovery.resume_ms", "ms"); ("recovery.replayed_lsns", "count");
    ("recovery.losers", "count"); ("recovery.redone_ops", "count");
    ("recovery.pilot_ms", "ms");
    ("svc_lat_ms.p50.light", "ms"); ("svc_lat_ms.tail.light", "ms");
    ("svc_lat_ms.p50.heavy", "ms"); ("svc_max_rps", "1/s");
    ("server.queued_ms", "ms"); ("server.start_ms", "ms"); ("server.exec_ms", "ms");
    ("server.cache_lookups", "count"); ("server.cache_hit_ratio", "ratio");
    ("server.evictions", "count"); ("server.coalesced", "count"); ("server.shed", "count");
    ("server.analyses", "count"); ("server.gen_late_ms.max", "ms");
    ("dispatch.total", "count"); ("fuse.hops", "count"); ("compile.entries", "count");
    ("compile.steps", "count"); ("compile.deopt.guard", "count");
    ("compile.deopt.horizon", "count"); ("pool.sub.hits", "count");
    ("pool.sub.lookups", "count"); ("pool.sub.hit_ratio", "ratio");
    ("pool.evq.cells_alloc", "count"); ("pool.evq.cells_recycled", "count");
    ("ops.attempted", "count"); ("fail_ratio", "ratio"); ("trace.overhead", "ratio");
  ]
  @ List.concat_map
      (fun l -> [ (l ^ ".self_ms", "ms"); (l ^ ".self_share", "ratio") ])
      layers

let e2e_units =
  [
    ("setup_s", "s"); ("runs_per_s", "1/s"); ("run_ms.p50", "ms"); ("run_ms.tail", "ms");
    ("minor_mwords", "Mwords"); ("top_heap_mb", "MB");
  ]

(* --- output ----------------------------------------------------------------- *)

let emit ~names l metrics info =
  let value name = List.find_opt (fun x -> x.m_name = name) metrics in
  List.iter
    (fun x ->
      if not (List.mem_assoc x.m_name names) then
        failwith ("metric not declared: " ^ x.m_name))
    metrics;
  List.iter
    (fun (name, unit) ->
      let v = match value name with Some x -> x.m_value | None -> 0. in
      Printf.printf "%-28s %14.4f %s\n" name v unit)
    names;
  Printf.printf "# info %s\n" (J.to_string (J.Obj info));
  let ms =
    List.map
      (fun (name, unit) ->
        let v = match value name with Some x -> x.m_value | None -> 0. in
        (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
      names
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool l.correct);
            ("attempted", J.Int l.attempted);
            ("failed", J.Int l.failed);
            ("metrics", J.Obj ms);
          ]))

let ledger_info l =
  [
    ("attempted", J.Int l.attempted);
    ("failed", J.Int l.failed);
    ("fail_ratio", J.Float (ratio (float_of_int l.failed) (float_of_int l.attempted)));
    ("expected_dnc", J.Int l.expected_dnc);
    ("failures", J.List (List.rev_map (fun s -> J.Str s) l.notes));
  ]

(* --- the two kinds of run ---------------------------------------------------- *)

let setup_repeats = 5

let untraced w ~seed ~seconds l =
  (* set up several times, with calibration samples between; the median
     is the figure, the last set-up the state *)
  let calib = Calib.create () in
  let times =
    List.init setup_repeats (fun i ->
        let t0 = now () in
        let stop = w.setup ~seed in
        let dt = now () -. t0 in
        if i < setup_repeats - 1 then stop () else at_exit stop;
        for _ = 1 to 4 do
          Calib.sample calib
        done;
        dt)
  in
  let e2e, _, info, _ = w.measure ~seconds l in
  ( m "setup_s" "s" (median times *. Calib.factor calib) :: e2e,
    ("raw.setup_s", J.Float (median times)) :: info )

let trace_dir = ".perfbench"

let traced w ~name ~seed ~seconds l =
  let stop = w.setup ~seed in
  at_exit stop;
  let _, _, _, plain_ms = w.measure ~seconds:(seconds /. 2.) l in
  Span.reset ();
  Span.on := true;
  Vm.Block.set_profiling true;
  let ops0 = l.attempted in
  let _, layer_ms, info, traced_ms = w.measure ~seconds:(seconds /. 2.) l in
  Vm.Block.set_profiling false;
  Span.on := false;
  let ops = float_of_int (l.attempted - ops0) in
  let self = Span.self_by_layer () and total = Span.root_total () in
  let self_m =
    List.concat_map
      (fun layer ->
        let s = Option.value ~default:0. (Hashtbl.find_opt self layer) in
        [
          m (layer ^ ".self_ms") "ms" (1000. *. s /. ops);
          m (layer ^ ".self_share") "ratio" (ratio s total);
        ])
      layers
  in
  (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat trace_dir (Printf.sprintf "trace-%s-seed%d.jsonl" name seed) in
  Span.write path;
  ( layer_ms @ self_m
    @ [
        m "ops.attempted" "count" (float_of_int l.attempted);
        m "fail_ratio" "ratio" (ratio (float_of_int l.failed) (float_of_int l.attempted));
        m "trace.overhead" "ratio" (ratio traced_ms plain_ms);
      ],
    info @ [ ("trace_file", J.Str path); ("untraced_op_ms", J.Float plain_ms);
             ("traced_op_ms", J.Float traced_ms) ] )

(* --- command line ------------------------------------------------------------ *)

let usage =
  "main.exe --workload (oneshot-mix|faults-crash|service-open) --seed N \
   --seconds S --trace 0|1 [--record]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--record", Arg.Set record, "rewrite the workload's reference results");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline usage;
      exit 2
  in
  if !record then begin
    save_refs !workload (w.record ());
    Printf.printf "recorded %s\n" (ref_path !workload);
    exit 0
  end;
  (match refusal () with
  | Some why ->
    Printf.eprintf "perfbench: refusing to measure: %s\n" why;
    exit 3
  | None -> ());
  let knobs = knob_state () in
  let l = ledger () in
  let seconds = float_of_int !seconds in
  let metrics, info, names =
    if !trace = 0 then
      let ms, info = untraced w ~seed:!seed ~seconds l in
      (ms, info, e2e_units)
    else
      let ms, info = traced w ~name:!workload ~seed:!seed ~seconds l in
      (ms, info, per_layer_units)
  in
  emit ~names l metrics
    ((("workload", J.Str !workload) :: ("knobs", J.Obj knobs) :: ledger_info l) @ info);
  if not l.correct then exit 1
