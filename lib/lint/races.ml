(* Per-[Work]-block may-read/may-write address summaries.

   The probe sandbox of {!Absval} already executes every [Work] body
   twice, under two filler families that agree on [Known] registers and
   disagree on everything unknown. Recording the addresses each probe
   touches classifies every access by how much of it the analysis
   actually resolved:

   - both probes touch the same address: the address is a function of
     [Known] state only, so the access is *word-precise*;
   - the probes touch different addresses but the same 2^{!page_bits}
     word page (a [Known] base plus a small unknown offset): the access
     is *page-coarse*;
   - the probes diverge entirely (the address is data-dependent on a
     filler — shared memory, a file, the tid, or a [Top] register): the
     access is *unknown* and is dropped from conflict detection, only
     its count is kept.

   Dropping unknown accesses is a deliberate soundness trade: a
   filler-dependent address is almost always thread-private indexing
   (per-worker tables, chunked output slots, allocator blocks), and
   treating it as may-touch-anything would flag every data-parallel
   workload. The dynamic sanitizer ({!Exec.Tsan}) covers the dropped
   accesses with exact addresses at run time; the cross-validation suite
   holds the two sides against each other. *)

(* Matches the interpreter's {!Vm.Mem} dirty-page granularity. *)
let page_bits = 6

type summary = {
  w_words : int list;  (* sorted word-precise may-writes *)
  r_words : int list;  (* sorted word-precise may-reads *)
  w_pages : int list;  (* sorted page-coarse may-writes *)
  r_pages : int list;
  unknown_writes : int;  (* probe-divergent, dropped from conflicts *)
  unknown_reads : int;
  incomplete : bool;  (* a probe aborted: effects beyond these unseen *)
}

let empty_summary =
  {
    w_words = [];
    r_words = [];
    w_pages = [];
    r_pages = [];
    unknown_writes = 0;
    unknown_reads = 0;
    incomplete = false;
  }

let no_accesses s =
  s.w_words = [] && s.r_words = [] && s.w_pages = [] && s.r_pages = []

type probe = {
  regs : Absval.t array;  (* post-state registers, as {!Absval.eval_work} *)
  summary : summary;
  fuel_exhausted : bool;
}

(* --- sorted-int-list set algebra -------------------------------------- *)

let rec inter a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | x :: xs, y :: ys ->
    if x = y then x :: inter xs ys
    else if x < y then inter xs b
    else inter a ys

(* First common element, for diagnostics. *)
let rec common a b =
  match (a, b) with
  | [], _ | _, [] -> None
  | x :: xs, y :: ys ->
    if x = y then Some x
    else if x < y then common xs b
    else common a ys

(* --- the dual probe --------------------------------------------------- *)

(* A probe's address set, sorted descending. The table is only ever
   [Hashtbl.replace]d, so its keys are already distinct. *)
let descending_of_tbl tbl =
  Hashtbl.fold (fun a () acc -> a :: acc) tbl []
  |> List.sort (fun a b -> Int.compare b a)

(* Classify one access class (reads or writes) of the two probes into
   word-precise / page-coarse / unknown, clamped to the program's memory
   so filler-derived garbage addresses cannot collide into findings.
   After one sort per table, every step is a linear merge over sorted
   lists. *)
let classify ~mem_words ta tb =
  (* Merging the two descending sets splits them into the in-range
     common words and each probe's leftovers, every list built
     ascending. *)
  let rec split sa sb words la lb =
    match (sa, sb) with
    | [], _ -> (words, la, List.rev_append sb lb)
    | _, [] -> (words, List.rev_append sa la, lb)
    | x :: sa', y :: sb' ->
      if x = y then
        if x >= 0 && x < mem_words then split sa' sb' (x :: words) la lb
        else split sa' sb' words (x :: la) (x :: lb)
      else if x > y then split sa' sb words (x :: la) lb
      else split sa sb' words la (y :: lb)
  in
  let words, la, lb =
    split (descending_of_tbl ta) (descending_of_tbl tb) [] [] []
  in
  let max_page = (mem_words + (1 lsl page_bits) - 1) lsr page_bits in
  (* Leftovers are ascending, so the pages of the non-negative ones are
     non-decreasing. A negative address's [lsr] page lies beyond the
     [max_page] of any memory the VM can allocate: never a page, always
     unknown. *)
  let pages l =
    List.fold_left
      (fun acc a ->
        let p = a lsr page_bits in
        if p >= max_page then acc
        else match acc with q :: _ when q = p -> acc | _ -> p :: acc)
      [] l
    |> List.rev
  in
  let shared_pages = inter (pages la) (pages lb) in
  let rec unknown n l ps =
    match (l, ps) with
    | [], _ -> n
    | _, [] -> n + List.length l
    | a :: l', _ when a < 0 -> unknown (n + 1) l' ps
    | a :: l', p :: ps' ->
      let q = a lsr page_bits in
      if q < p then unknown (n + 1) l' ps
      else if q = p then unknown n l' ps
      else unknown n l ps'
  in
  (words, shared_pages, unknown 0 la shared_pages)

(* Probe-execute a [Work] body exactly as {!Absval.eval_work} does —
   same fillers, same salts, same fold of any exception to all-[Top]
   registers — additionally recording the addresses each probe touches
   (when [record]) and whether the abort was fuel exhaustion. *)
let probe_work ?(record = true) ~mem_words regs run =
  let ra = Absval.concretize regs Absval.filler_a
  and rb = Absval.concretize regs Absval.filler_b in
  let reads_a = Hashtbl.create 16
  and writes_a = Hashtbl.create 16
  and reads_b = Hashtbl.create 16
  and writes_b = Hashtbl.create 16 in
  let note tbl = if record then fun a -> Hashtbl.replace tbl a () else fun _ -> () in
  let fuel = ref false in
  let aborted = ref false in
  let go salt cregs ~reads ~writes =
    match
      run
        (Absval.sandbox_env ~on_read:(note reads) ~on_write:(note writes)
           ~salt cregs)
    with
    | () -> true
    | exception Absval.Out_of_fuel ->
      fuel := true;
      aborted := true;
      false
    | exception _ ->
      aborted := true;
      false
  in
  let ok_a = go 0x5eed0 ra ~reads:reads_a ~writes:writes_a in
  (* eval_work never runs the second probe once the first throws *)
  let ok_b = ok_a && go 0x7a110 rb ~reads:reads_b ~writes:writes_b in
  let regs' =
    if ok_a && ok_b then
      Array.init (Array.length regs) (fun i ->
          if ra.(i) = rb.(i) then Absval.Known ra.(i) else Absval.Top)
    else Absval.top_regs (Array.length regs)
  in
  let summary =
    if not record then empty_summary
    else if ok_a && ok_b then begin
      let w_words, w_pages, unknown_writes =
        classify ~mem_words writes_a writes_b
      in
      let r_words, r_pages, unknown_reads =
        classify ~mem_words reads_a reads_b
      in
      { w_words; r_words; w_pages; r_pages; unknown_writes; unknown_reads;
        incomplete = false }
    end
    else
      (* An aborted probe leaves no cross-probe agreement to classify:
         count what probe A saw as unknown and flag the hole. *)
      {
        empty_summary with
        unknown_writes = Hashtbl.length writes_a;
        unknown_reads = Hashtbl.length reads_a;
        incomplete = true;
      }
  in
  { regs = regs'; summary; fuel_exhausted = !fuel }
