(* Workload tests: every benchmark completes under every engine with the
   same schedule-independent digest, plus per-workload structural
   oracles (bin totals, RLE round-trip, conservation, ...). *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let n_contexts = 4
let scale = 0.08

let build (spec : Workloads.Workload.spec) =
  spec.Workloads.Workload.build ~n_contexts ~grain:Workloads.Workload.Default ~scale

let run_baseline spec =
  Exec.Baseline.run { Exec.Baseline.default_config with n_contexts } (build spec)

let run_gprs ?(ordering = Gprs.Order.Balance_aware) spec =
  Gprs.Engine.run
    { Gprs.Engine.default_config with n_contexts; ordering }
    (build spec)

let run_cpr spec =
  Cpr.run
    { Cpr.default_config with n_contexts; checkpoint_interval = 0.01 }
    (build spec)

let test_all_complete_baseline () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let r = run_baseline spec in
      checkb (spec.Workloads.Workload.name ^ " completes") false r.Exec.State.dnc)
    Workloads.Suite.all

let test_digests_engine_independent () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let name = spec.Workloads.Workload.name in
      let d_base = spec.Workloads.Workload.digest (run_baseline spec) in
      let d_gprs = spec.Workloads.Workload.digest (run_gprs spec) in
      let d_cpr = spec.Workloads.Workload.digest (run_cpr spec) in
      checks (name ^ ": gprs = baseline") d_base d_gprs;
      checks (name ^ ": cpr = baseline") d_base d_cpr)
    Workloads.Suite.all

let test_digests_ordering_independent () =
  List.iter
    (fun name ->
      let spec = Workloads.Suite.find name in
      let d_ba = spec.Workloads.Workload.digest (run_gprs spec) in
      let d_rr =
        spec.Workloads.Workload.digest (run_gprs ~ordering:Gprs.Order.Round_robin spec)
      in
      checks (name ^ ": rr = ba") d_ba d_rr)
    [ "pbzip2"; "dedup"; "re"; "reverse-index" ]

let test_fine_grain_same_digest () =
  List.iter
    (fun name ->
      let spec = Workloads.Suite.find name in
      let fine =
        spec.Workloads.Workload.build ~n_contexts ~grain:Workloads.Workload.Fine ~scale
      in
      let r =
        Gprs.Engine.run { Gprs.Engine.default_config with n_contexts } fine
      in
      checks
        (name ^ ": fine digest matches default")
        (spec.Workloads.Workload.digest (run_baseline spec))
        (spec.Workloads.Workload.digest r))
    [ "barnes-hut"; "swaptions"; "canneal" ]

let test_histogram_bins_sum () =
  let spec = Workloads.Suite.find "histogram" in
  let r = run_baseline spec in
  let total = ref 0 in
  for b = 0 to 63 do
    total := !total + Vm.Mem.read r.Exec.State.final_mem b
  done;
  check "bins sum to item count" (int_of_float (80_000.0 *. scale)) !total

let test_wordcount_counts_sum () =
  let spec = Workloads.Suite.find "wordcount" in
  let r = run_baseline spec in
  let total = ref 0 in
  for v = 0 to 127 do
    total := !total + Vm.Mem.read r.Exec.State.final_mem v
  done;
  check "counts sum to word count" (int_of_float (60_000.0 *. scale)) !total

let test_pbzip2_roundtrip () =
  (* Decode the RLE output and compare with the input file. *)
  let spec = Workloads.Suite.find "pbzip2" in
  let p = build spec in
  let input = List.assoc "raw" p.Vm.Isa.input_files in
  let r =
    Exec.Baseline.run { Exec.Baseline.default_config with n_contexts } p
  in
  match r.Exec.State.outputs with
  | [ ("compressed", out) ] ->
    let block_words = 64 in
    let out_slot = (2 * block_words) + 2 in
    let n_blocks = Array.length input / block_words in
    let decoded = Array.make (Array.length input) (-1) in
    for blk = 0 to n_blocks - 1 do
      let base = blk * out_slot in
      let len = out.(base) in
      let pos = ref 0 in
      let k = ref 1 in
      while !k < len do
        let v = out.(base + !k) and run = out.(base + !k + 1) in
        for _ = 1 to run do
          decoded.((blk * block_words) + !pos) <- v;
          incr pos
        done;
        k := !k + 2
      done;
      check (Printf.sprintf "block %d fully decoded" blk) block_words !pos
    done;
    Alcotest.(check (array int)) "round-trip" input decoded
  | _ -> Alcotest.fail "expected compressed output"

let test_dedup_output_canonical () =
  (* Output word i must equal mix(input word i) & 0xFFFF. *)
  let spec = Workloads.Suite.find "dedup" in
  let p = build spec in
  let input = List.assoc "archive" p.Vm.Isa.input_files in
  let r = Exec.Baseline.run { Exec.Baseline.default_config with n_contexts } p in
  match r.Exec.State.outputs with
  | [ ("deduped", out) ] ->
    check "one word per chunk" (Array.length input) (Array.length out);
    Array.iteri
      (fun i v ->
        check
          (Printf.sprintf "chunk %d encoding" i)
          (Workloads.Workload.mix input.(i) land 0xFFFF)
          v)
      out
  | _ -> Alcotest.fail "expected deduped output"

let test_canneal_conserves_elements () =
  let spec = Workloads.Suite.find "canneal" in
  let r = run_gprs spec in
  let n = int_of_float (4096.0 *. scale) in
  check "sum of permutation" (n * (n - 1) / 2) (Vm.Mem.read r.Exec.State.final_mem 0)

let test_re_finds_redundancy () =
  let spec = Workloads.Suite.find "re" in
  let r = run_baseline spec in
  checkb "some redundancy found" true (Vm.Mem.read r.Exec.State.final_mem 128 > 0)

let test_reverse_index_total () =
  let spec = Workloads.Suite.find "reverse-index" in
  let r = run_baseline spec in
  let total = ref 0 in
  for b = 0 to 15 do
    total := !total + Vm.Mem.read r.Exec.State.final_mem b
  done;
  check "all links indexed" (int_of_float (4_000.0 *. scale)) !total

let test_swaptions_prices_filled () =
  let spec = Workloads.Suite.find "swaptions" in
  let r = run_baseline spec in
  let zeroes = ref 0 in
  for s = 0 to 127 do
    if Vm.Mem.read r.Exec.State.final_mem s = 0 then incr zeroes
  done;
  checkb "most prices non-zero" true (!zeroes < 8)

let test_chunk_bounds_cover () =
  List.iter
    (fun (total, parts) ->
      let covered = ref 0 in
      for i = 0 to parts - 1 do
        let lo, hi = Workloads.Workload.chunk_bounds ~total ~parts i in
        checkb "lo<=hi" true (lo <= hi);
        covered := !covered + (hi - lo)
      done;
      check (Printf.sprintf "%d/%d covers" total parts) total !covered)
    [ (10, 3); (7, 7); (100, 24); (5, 8); (0, 4) ]

let test_suite_lookup () =
  check "ten workloads" 10 (List.length Workloads.Suite.all);
  checkb "find works" true
    ((Workloads.Suite.find "pbzip2").Workloads.Workload.name = "pbzip2");
  Alcotest.check_raises "unknown raises"
    (Invalid_argument
       (Printf.sprintf "unknown workload \"nope\" (known: %s)"
          (String.concat ", " Workloads.Suite.names)))
    (fun () -> ignore (Workloads.Suite.find "nope"))

(* Idle contexts used to re-probe every deque after every event, so a
   GPRS run at 1024 contexts did not finish in a minute. The digest is
   schedule-independent: it is the 8-context Pthreads digest at any
   context count. *)
let test_pbzip2_many_contexts () =
  let spec = Workloads.Suite.find "pbzip2" in
  let build n_contexts =
    spec.Workloads.Workload.build ~n_contexts ~grain:Workloads.Workload.Default
      ~scale:0.01
  in
  let digest r = spec.Workloads.Workload.digest r in
  let n_contexts = 1024 in
  checks "pthreads, 8 contexts" "3f0ea7eab16c2a90"
    (digest
       (Exec.Baseline.run { Exec.Baseline.default_config with n_contexts = 8 } (build 8)));
  List.iter
    (fun (engine, run) ->
      let r = run (build n_contexts) in
      checkb (engine ^ " completes") false r.Exec.State.dnc;
      checks (engine ^ ", 1024 contexts") "3f0ea7eab16c2a90" (digest r))
    [
      ("pthreads", Exec.Baseline.run { Exec.Baseline.default_config with n_contexts });
      ("cpr", Cpr.run { Cpr.default_config with n_contexts });
      ("gprs", Gprs.Engine.run ~lint:`Off { Gprs.Engine.default_config with n_contexts });
    ]

let suite =
  [
    Alcotest.test_case "all complete (baseline)" `Quick test_all_complete_baseline;
    Alcotest.test_case "digests engine-independent" `Quick test_digests_engine_independent;
    Alcotest.test_case "digests ordering-independent" `Quick test_digests_ordering_independent;
    Alcotest.test_case "fine grain same digest" `Quick test_fine_grain_same_digest;
    Alcotest.test_case "pbzip2 at 1024 contexts, all engines" `Quick
      test_pbzip2_many_contexts;
    Alcotest.test_case "histogram bins sum" `Quick test_histogram_bins_sum;
    Alcotest.test_case "wordcount counts sum" `Quick test_wordcount_counts_sum;
    Alcotest.test_case "pbzip2 RLE round-trip" `Quick test_pbzip2_roundtrip;
    Alcotest.test_case "dedup canonical output" `Quick test_dedup_output_canonical;
    Alcotest.test_case "canneal conservation" `Quick test_canneal_conserves_elements;
    Alcotest.test_case "re finds redundancy" `Quick test_re_finds_redundancy;
    Alcotest.test_case "reverse-index total" `Quick test_reverse_index_total;
    Alcotest.test_case "swaptions prices" `Quick test_swaptions_prices_filled;
    Alcotest.test_case "chunk bounds cover" `Quick test_chunk_bounds_cover;
    Alcotest.test_case "suite lookup" `Quick test_suite_lookup;
  ]
