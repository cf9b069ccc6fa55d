(* faults-crash: a closed loop with one caller over programs built and
   decoded once at set-up. Three kinds of run, each checked against the
   fault-free pilot:
   - GPRS with injected exceptions at the paper's Fig. 10 rates, under
     selective restart and basic recovery;
   - P-CPR at the same rates;
   - crash runs: Engine.run with [crash_lsn] at a seeded sample of the
     pilot's WAL points, then Recovery.recover, then resume.
   Hybrid recovery on canneal is left out: at these rates the engine ends
   it with a wrong digest (`gprs_run run -w canneal -e gprs -n 8 --rate
   152` against `-e pthreads`), and the benchmark times only operations
   that succeed. *)

open Common
open Ops

let p wl = { wl; n = 8; grain = Workloads.Workload.Default; scale = 1.0 }

(* Fig. 10's expected exceptions per fault-free run (low, high), as
   Analysis.Experiments sets them. *)
let fig10 = function
  | "blackscholes" -> (6.0, 30.0)
  | "swaptions" -> (2.0, 3.3)
  | "wordcount" -> (6.0, 18.0)
  | _ -> (8.0, 16.0)

(* [Storm]: 40 exceptions per simulated second against a 10 ms checkpoint
   interval, where P-CPR never completes; without a cycle budget the run
   would not end. *)
type level = Low | High | Storm

let level_name = function Low -> "low" | High -> "high" | Storm -> "storm"

(* One pass: injected-exception runs (program, engine, level) ... *)
let fault_mix =
  let sel = Gprs Gprs.Engine.Selective and basic = Gprs Gprs.Engine.Basic in
  List.concat_map
    (fun wl -> [ (p wl, sel, Low); (p wl, sel, High) ])
    [ "pbzip2"; "re"; "reverse-index"; "wordcount"; "swaptions" ]
  @ [
      (p "dedup", sel, Low);
      (p "re", basic, Low);
      (p "swaptions", basic, Low);
      (p "pbzip2", basic, Low);
      (p "swaptions", Cpr, Low);
      (p "pbzip2", Cpr, Low);
      (p "blackscholes", Cpr, Low);
      (p "reverse-index", Cpr, Low);
      (p "dedup", Cpr, Low);
      ({ (p "re") with n = 24 }, Cpr, Storm);
    ]

(* ... and crash runs (program, strata): one crash per stratum of the
   pilot's WAL, at one of [candidates] points near its middle. *)
let crash_mix = [ (p "pbzip2", 4); (p "reverse-index", 4); (p "re", 3); (p "dedup", 6) ]
let candidates = 3

(* Every injected-exception run goes out under each of these injector
   seeds in every pass, so a pass's work does not depend on the draw. *)
let fault_seeds = 2

type op =
  | Fault of { prog : prog; engine : engine; level : level; seed : int }
  | Crash of { prog : prog; stratum : int; cand : int }

let key = function
  | Fault f ->
    Printf.sprintf "%s/%s/%s/seed%d" (prog_key f.prog) (engine_name f.engine)
      (level_name f.level) f.seed
  | Crash c -> Printf.sprintf "%s/crash/s%dc%d" (prog_key c.prog) c.stratum c.cand

(* The slot an op fills in every pass, whatever crash point the run drew
   for it. *)
let kind = function
  | Fault _ as op -> key op
  | Crash c -> Printf.sprintf "%s/crash/s%d" (prog_key c.prog) c.stratum

(* Everything set-up computes once per program. *)
type loaded = {
  program : Vm.Isa.program;
  blocks : Vm.Block.t;
  oracle : string;  (* Pthreads digest *)
  base : int;  (* Pthreads cycles *)
  budget : int;  (* from the fault-free GPRS pilot *)
  points : int array;  (* the pilot's WAL op-record LSNs *)
  strata : int;
}

type state = {
  ops : op list;
  progs : (string, loaded) Hashtbl.t;
  refs : (string, reference) Hashtbl.t;
  acc : acc;
  rec_ms : float list ref;  (* host ms of each cold Recovery.recover *)
  pilot_ms : float list;
}

let all_progs () =
  List.sort_uniq compare
    (List.map (fun (p, _, _) -> p) fault_mix @ List.map fst crash_mix)

let load acc pr =
  let program = build acc pr in
  let blocks = Vm.Block.analyze program in
  let oracle, base = pilot acc pr program blocks in
  let t0 = now () in
  let image, r =
    Recovery.pilot ~cfg:{ Gprs.Engine.default_config with n_contexts = pr.n } program
  in
  let ms = ms_since t0 in
  if digest pr r <> oracle then
    failwith (prog_key pr ^ ": fault-free GPRS pilot disagrees with Pthreads");
  let points =
    Array.of_list (List.map fst (Recovery.analyze image).Recovery.points)
  in
  let strata = Option.value ~default:0 (List.assoc_opt pr crash_mix) in
  ( { program; blocks; oracle; base; budget = budget_of r.Exec.State.sim_cycles; points; strata },
    ms )

(* Candidate [cand] of a stratum sits near its middle, a fiftieth of the
   stratum apart from the next, so the draw moves the crash point but
   hardly the work around it. *)
let crash_lsn ld ~stratum ~cand =
  let np = Array.length ld.points in
  let at =
    (float_of_int stratum +. 0.5 +. (0.02 *. float_of_int (cand - (candidates / 2))))
    /. float_of_int ld.strata
  in
  ld.points.(min (np - 1) (int_of_float (at *. float_of_int np)))

let setup ~seed =
  let prng = Sim.Prng.create seed in
  let acc = acc () in
  let progs = Hashtbl.create 16 in
  let pilot_ms =
    List.map
      (fun pr ->
        let ld, ms = load acc pr in
        Hashtbl.replace progs (prog_key pr) ld;
        ms)
      (all_progs ())
  in
  let faults =
    List.concat_map
      (fun (prog, engine, level) ->
        List.init fault_seeds (fun i -> Fault { prog; engine; level; seed = i + 1 }))
      fault_mix
  in
  let crashes =
    List.concat_map
      (fun (prog, strata) ->
        List.init strata (fun stratum ->
            Crash { prog; stratum; cand = Sim.Prng.int prng candidates }))
      crash_mix
  in
  {
    ops = shuffle prng (faults @ crashes);
    progs;
    refs = load_refs "faults-crash";
    acc;
    rec_ms = ref [];
    pilot_ms;
  }

(* One operation; returns the result to check, with the oracle digest. *)
let run_op st l op =
  let acc = st.acc in
  match op with
  | Fault f ->
    let ld = Hashtbl.find st.progs (prog_key f.prog) in
    let lo, hi = fig10 f.prog.wl in
    let rate, interval =
      match f.level with
      | Low -> (lo /. seconds_of_cycles ld.base, cpr_interval ~base:ld.base)
      | High -> (hi /. seconds_of_cycles ld.base, cpr_interval ~base:ld.base)
      | Storm -> (40., 0.01)
    in
    let r =
      run acc ~engine:f.engine ~blocks:ld.blocks ~n:f.prog.n ~seed:f.seed ~rate ~interval
        ~budget:ld.budget ld.program
    in
    Some (f.prog, ld.oracle, r)
  | Crash c -> (
    let ld = Hashtbl.find st.progs (prog_key c.prog) in
    let lsn = crash_lsn ld ~stratum:c.stratum ~cand:c.cand in
    let cfg =
      {
        Gprs.Engine.default_config with
        n_contexts = c.prog.n;
        max_cycles = Some ld.budget;
        crash_lsn = Some lsn;
      }
    in
    match
      Span.timed acc "gprs.run" (fun () ->
          Gprs.Engine.run ~lint:`Off ~blocks:ld.blocks cfg ld.program)
    with
    | _ ->
      fail l (key op ^ ": crash point never fired");
      None
    | exception Gprs.Engine.Crashed dump ->
      if !Span.on then begin
        let image = Gprs.Engine.dump_wal_image dump in
        add acc "wal.image_bytes" (float_of_int (String.length image));
        add acc "wal.images" 1.;
        ignore (Span.timed acc "wal.parse" (fun () -> Wal.parse_image image));
        ignore (Span.timed acc "recovery.analyze" (fun () -> Recovery.analyze image))
      end;
      let t0 = now () in
      let a, _, resume = Span.timed acc "recovery.recover" (fun () -> Recovery.recover dump) in
      st.rec_ms := ms_since t0 :: !(st.rec_ms);
      if a.Recovery.losers <> Gprs.Engine.dump_active_ids dump then begin
        fail l (key op ^ ": WAL analysis loser set <> live ROL at crash");
        None
      end
      else begin
        let r = Span.timed acc "recovery.resume" resume in
        if !Span.on then begin
          add acc "recovery.crashes" 1.;
          add acc "recovery.replayed_lsns" (float_of_int a.Recovery.replayed);
          add acc "recovery.losers" (float_of_int (List.length a.Recovery.losers));
          add acc "recovery.redone_ops"
            (float_of_int (Sim.Stats.get r.Exec.State.run_stats "recovery.redone_ops"))
        end;
        Some (c.prog, ld.oracle, r)
      end)

let pass st l calib =
  List.map
    (fun op ->
      incr Span.op_id;
      l.attempted <- l.attempted + 1;
      let t0 = now () in
      Span.with_ "bench.op" (fun () ->
          match run_op st l op with
          | Some (prog, oracle, r) ->
            check l st.refs ~key:(key op) ~oracle ~digest:(digest prog r)
              ~cycles:r.Exec.State.sim_cycles ~dnc:r.Exec.State.dnc
          | None -> ()
          | exception e -> fail l (key op ^ ": " ^ Printexc.to_string e));
      let ms = ms_since t0 in
      between calib;
      (kind op, ms))
    st.ops

let recovery_metrics st =
  let t = tail !(st.rec_ms) in
  ( [ m "recovery_ms.p50" "ms" (median !(st.rec_ms)); m "recovery_ms.tail" "ms" t.t_value ],
    [ ("recovery_ms.tail_pct", J.Float t.t_pct); ("recovery_ms.samples", J.Int t.t_n) ] )

let measure st ~seconds l =
  st.rec_ms := [];
  let lp = closed_loop ~seconds (pass st l) in
  let e2e, info = loop_metrics lp in
  let rec_m, rec_info = recovery_metrics st in
  let acc = st.acc in
  let crashes = sum acc "recovery.crashes" in
  let per k = ratio (sum acc k) crashes in
  let ms k = mean (samples acc (k ^ ".ms")) in
  let layers =
    layer_metrics acc @ rec_m
    @ [
        m "wal.image_kb" "KB" (ratio (sum acc "wal.image_bytes") (sum acc "wal.images") /. 1024.);
        m "wal.parse_ms" "ms" (ms "wal.parse");
        m "recovery.analyze_ms" "ms" (ms "recovery.analyze");
        m "recovery.recover_ms" "ms" (ms "recovery.recover");
        m "recovery.resume_ms" "ms" (ms "recovery.resume");
        m "recovery.replayed_lsns" "count" (per "recovery.replayed_lsns");
        m "recovery.losers" "count" (per "recovery.losers");
        m "recovery.redone_ops" "count" (per "recovery.redone_ops");
        m "recovery.pilot_ms" "ms" (mean st.pilot_ms);
      ]
  in
  ( e2e,
    layers,
    info @ rec_info
    @ List.map (fun x -> (x.m_name, J.Float x.m_value)) rec_m,
    1000. *. lp.wall_s /. float_of_int (List.length lp.ops) )

let record () =
  let acc = acc () in
  let progs = Hashtbl.create 16 in
  List.iter (fun pr -> Hashtbl.replace progs (prog_key pr) (fst (load acc pr))) (all_progs ());
  let st =
    { ops = []; progs; refs = Hashtbl.create 1; acc; rec_ms = ref []; pilot_ms = [] }
  in
  let l = ledger () in
  let faults =
    fault_mix
    |> List.concat_map (fun (prog, engine, level) ->
           List.init fault_seeds (fun i -> Fault { prog; engine; level; seed = i + 1 }))
  in
  let crashes =
    List.concat_map
      (fun (prog, strata) ->
        List.concat
          (List.init strata (fun stratum ->
               List.init candidates (fun cand -> Crash { prog; stratum; cand }))))
      crash_mix
  in
  let entries =
    List.filter_map
      (fun op ->
        match run_op st l op with
        | Some (prog, _, r) ->
          Some
            ( key op,
              {
                r_digest = digest prog r;
                r_cycles = r.Exec.State.sim_cycles;
                r_dnc = r.Exec.State.dnc;
              } )
        | None -> None)
      (faults @ crashes)
  in
  if l.failed > 0 then failwith (String.concat "; " l.notes);
  entries
