(* oneshot-mix: a closed loop with one caller, each operation a one-shot
   run the way `gprs_run run` performs it — build, Lint.Check, decode,
   engine call, digest check — with no faults. Each pass also lints every
   distinct program once, the way `gprs_run lint` does: build, then
   Lint.Race. *)

open Common
open Ops

let p ?(grain = Workloads.Workload.Default) ?(scale = 1.0) wl n = { wl; n; grain; scale }
let fine = Workloads.Workload.Fine

(* One pass: (program, engine, runs). The mix is fixed; the seed orders it
   and picks each run's engine seed. Sub-thread-heavy dedup (11k-12k
   sub-threads, a ROL up to 8k deep), dispatch-heavy fine-grain canneal and
   swaptions, tiny wordcount/histogram where build and lint dominate, at
   both 8 and 24 contexts, mostly under GPRS with Pthreads and P-CPR
   legs. *)
let pass_mix =
  [
    (p "dedup" 24, Gprs Gprs.Engine.Selective, 4);
    (p "dedup" 8, Gprs Gprs.Engine.Selective, 3);
    (p "canneal" 24 ~grain:fine, Gprs Gprs.Engine.Selective, 4);
    (p "swaptions" 24 ~grain:fine, Gprs Gprs.Engine.Selective, 4);
    (p "wordcount" 8, Gprs Gprs.Engine.Selective, 3);
    (p "wordcount" 24, Gprs Gprs.Engine.Selective, 3);
    (p "histogram" 8, Gprs Gprs.Engine.Selective, 3);
    (p "histogram" 24, Gprs Gprs.Engine.Selective, 3);
    (p "dedup" 24, Pthreads, 1);
    (p "canneal" 24 ~grain:fine, Pthreads, 1);
    (p "swaptions" 8, Pthreads, 1);
    (p "histogram" 24, Pthreads, 1);
    (p "dedup" 8, Cpr, 1);
    (p "swaptions" 24 ~grain:fine, Cpr, 1);
    (p "wordcount" 8, Cpr, 1);
    (p "canneal" 24 ~grain:fine, Cpr, 1);
  ]

let engine_seeds = 4

type run = { prog : prog; engine : engine; seed : int }
type op = Run of run | Lint of prog

let key o = Printf.sprintf "%s/%s/seed%d" (prog_key o.prog) (engine_name o.engine) o.seed

type state = {
  ops : op list;
  pilots : (string, string * int) Hashtbl.t;  (* prog key -> digest, cycles *)
  refs : (string, reference) Hashtbl.t;
  acc : acc;
}

let distinct_progs () =
  List.sort_uniq compare (List.map (fun (p, _, _) -> p) pass_mix)

let setup ~seed =
  let prng = Sim.Prng.create seed in
  let runs =
    List.concat_map
      (fun (prog, engine, k) -> List.init k (fun _ -> (prog, engine)))
      pass_mix
    |> List.map (fun (prog, engine) ->
           Run { prog; engine; seed = 1 + Sim.Prng.int prng engine_seeds })
  in
  let ops = shuffle prng (runs @ List.map (fun p -> Lint p) (distinct_progs ())) in
  let acc = acc () in
  let pilots = Hashtbl.create 16 in
  List.iter
    (fun pr ->
      let program = build acc pr in
      let blocks = Vm.Block.analyze program in
      Hashtbl.replace pilots (prog_key pr) (pilot acc pr program blocks))
    (distinct_progs ());
  { ops; pilots; refs = load_refs "oneshot-mix"; acc }

(* One one-shot run; returns its result for the caller to check. *)
let run_one st o =
  let acc = st.acc in
  let program = build acc o.prog in
  let diags = Span.timed acc "lint.check" (fun () -> Lint.Check.program program) in
  if Lint.Check.has_errors diags then failwith "lint found error-severity issues";
  let blocks = Span.timed acc "vm.analyze" (fun () -> Vm.Block.analyze program) in
  let _, base = Hashtbl.find st.pilots (prog_key o.prog) in
  run acc ~engine:o.engine ~blocks ~n:o.prog.n ~seed:o.seed
    ~interval:(cpr_interval ~base) ~budget:(budget_of base) program

let do_op st l = function
  | Run o ->
    let r = run_one st o in
    let oracle, _ = Hashtbl.find st.pilots (prog_key o.prog) in
    check l st.refs ~key:(key o) ~oracle ~digest:(digest o.prog r)
      ~cycles:r.Exec.State.sim_cycles ~dnc:r.Exec.State.dnc
  | Lint p ->
    let program = build st.acc p in
    let diags = Span.timed st.acc "lint.race" (fun () -> Lint.Race.program program) in
    if Lint.Check.has_errors diags then fail l (prog_key p ^ ": lint found errors")

let kind = function
  | Run o -> Printf.sprintf "%s/%s" (prog_key o.prog) (engine_name o.engine)
  | Lint p -> prog_key p ^ "/lint"

let pass st l calib =
  List.map
    (fun op ->
      incr Span.op_id;
      l.attempted <- l.attempted + 1;
      let t0 = now () in
      Span.with_ "bench.op" (fun () ->
          try do_op st l op with e -> fail l (kind op ^ ": " ^ Printexc.to_string e));
      let ms = ms_since t0 in
      between calib;
      (kind op, ms))
    st.ops

let measure st ~seconds l =
  let lp = closed_loop ~seconds (pass st l) in
  let e2e, info = loop_metrics lp in
  (e2e, layer_metrics st.acc, info, 1000. *. lp.wall_s /. float_of_int (List.length lp.ops))

(* Reference results for every catalogue entry, recorded when the
   benchmark is defined. *)
let record () =
  let acc = acc () in
  List.sort_uniq compare (List.map (fun (p, e, _) -> (p, e)) pass_mix)
  |> List.concat_map (fun (prog, engine) ->
         List.init engine_seeds (fun i -> { prog; engine; seed = i + 1 }))
  |> List.map (fun o ->
         let program = build acc o.prog in
         let blocks = Vm.Block.analyze program in
         let _, base = pilot acc o.prog program blocks in
         let r =
           run acc ~engine:o.engine ~blocks ~n:o.prog.n ~seed:o.seed
             ~interval:(cpr_interval ~base) ~budget:(budget_of base) program
         in
         ( key o,
           {
             r_digest = digest o.prog r;
             r_cycles = r.Exec.State.sim_cycles;
             r_dnc = r.Exec.State.dnc;
           } ))
