type 'ev t = {
  program : Vm.Isa.program;
  costs : Vm.Costs.t;
  n_contexts : int;
  mem : Vm.Mem.t;
  io : Vm.Io.t;
  atomics : int array;
  mutexes : mutex array;
  conds : cond array;
  barriers : barrier array;
  mutable threads : Vm.Tcb.t array;
  mutable n_threads : int;
  mutable live_threads : int;
  evq : 'ev Sim.Event_queue.t;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  prng : Sim.Prng.t;
  mutable current_undo : Undo_log.t option;
  cow_words : Sim.Stats.Handle.counter;
  mutable acc_cost : int;
  output_handles : (string * Vm.Io.file) list;
  blocks : Vm.Block.t;
  mutable on_io_grow : (Vm.Io.file -> int -> unit) option;
  tsan : Tsan.t option;
  mutable envs : Vm.Env.t option array;
  mutable cursor : Vm.Block.cursor option;
  mutable last_decode : (Vm.Isa.proc * Vm.Block.proc_blocks) option;
}

and mutex = { mutable holder : int option; mutable mwaiters : Fifo.t }
and cond = { mutable sleepers : Fifo.t }
and barrier = { parties : int; mutable arrived : int list }

exception Deadlock of string

let main_tid = 0

let trace_names =
  {
    Sim.Trace.instr = Vm.Isa.code_name;
    wait =
      (fun code a b ->
        Format.asprintf "%a" Vm.Tcb.pp_wait (Vm.Tcb.wait_of_code code a b));
  }

let create ?(trace_capacity = 4096) ?blocks ~program ~costs ~n_contexts ~seed
    () =
  let open Vm.Isa in
  let mem = Vm.Mem.create ~words:program.mem_words in
  if program.reserved_words > 0 then
    ignore (Vm.Mem.reserve mem program.reserved_words);
  let io = Vm.Io.create () in
  List.iter
    (fun (name, data) -> ignore (Vm.Io.add_file io ~name data))
    program.input_files;
  let output_handles =
    List.map (fun name -> (name, Vm.Io.add_file io ~name [||])) program.output_files
  in
  let main =
    Vm.Tcb.create
      ~n_barriers:(Array.length program.barrier_parties)
      ~tid:main_tid ~group:0
      ~proc:(find_proc program program.entry)
      ~args:[||]
  in
  let threads = Array.make 16 main in
  let stats = Sim.Stats.create () in
  {
    program;
    costs;
    n_contexts;
    mem;
    io;
    atomics = Array.make (Stdlib.max 1 program.n_atomics) 0;
    mutexes =
      Array.init (Stdlib.max 1 program.n_mutexes) (fun _ ->
          { holder = None; mwaiters = Fifo.empty });
    conds =
      Array.init (Stdlib.max 1 program.n_condvars) (fun _ ->
          { sleepers = Fifo.empty });
    barriers =
      Array.init
        (Array.length program.barrier_parties)
        (fun i -> { parties = program.barrier_parties.(i); arrived = [] });
    threads;
    n_threads = 1;
    live_threads = 1;
    evq = Sim.Event_queue.create ();
    stats;
    trace = Sim.Trace.create ~capacity:trace_capacity ~names:trace_names ();
    prng = Sim.Prng.create seed;
    current_undo = None;
    cow_words = Sim.Stats.Handle.counter stats "ckpt.cow_words";
    acc_cost = 0;
    output_handles;
    blocks =
      (* A caller (the service-mode program cache) may hand in the
         pre-analyzed decode so repeated runs of one program skip
         [Vm.Block.analyze]; the blocks value is immutable after analyze,
         so sharing it across runs — even concurrent ones — is sound. *)
      (let b =
         match blocks with Some b -> b | None -> Vm.Block.analyze program
       in
       if !Vm.Block.profiling && Vm.Block.compiling () then
         Sim.Stats.add stats "compile.superblocks" (Vm.Block.n_compiled b);
       b);
    on_io_grow = None;
    tsan =
      (if Tsan.enabled () then
         Some
           (Tsan.create ~mem_words:program.mem_words
              ~n_mutexes:program.n_mutexes ~n_atomics:program.n_atomics
              ~n_barriers:(Array.length program.barrier_parties))
       else None);
    envs = Array.make 16 None;
    cursor = None;
    last_decode = None;
  }

let thread t tid =
  if tid < 0 || tid >= t.n_threads then
    invalid_arg (Printf.sprintf "State.thread: bad tid %d" tid);
  t.threads.(tid)

let spawn t ~group ~proc ~args =
  let tid = t.n_threads in
  let tcb =
    Vm.Tcb.create
      ~n_barriers:(Array.length t.program.Vm.Isa.barrier_parties)
      ~tid ~group
      ~proc:(Vm.Isa.find_proc t.program proc)
      ~args
  in
  if t.n_threads = Array.length t.threads then begin
    let threads' = Array.make (2 * t.n_threads) tcb in
    Array.blit t.threads 0 threads' 0 t.n_threads;
    t.threads <- threads'
  end;
  t.threads.(tid) <- tcb;
  t.n_threads <- t.n_threads + 1;
  t.live_threads <- t.live_threads + 1;
  Sim.Stats.incr t.stats "threads.created";
  tcb

(* Every holder transition goes through here so each TCB's incremental
   held-mutex set ({!Vm.Tcb.held_mutexes}) stays consistent with the
   mutex table — GPRS checkpoints read it instead of scanning all
   mutexes at every sub-thread boundary. *)
let set_holder t m newh =
  let mu = t.mutexes.(m) in
  (match t.tsan with
  | None -> ()
  | Some ts ->
    (* release -> acquire is the happens-before edge; set_holder is the
       single choke point every grant path goes through *)
    (match mu.holder with
    | Some h when Some h <> newh -> Tsan.on_release ts ~tid:h ~m
    | Some _ | None -> ());
    (match newh with
    | Some w when mu.holder <> newh -> Tsan.on_acquire ts ~tid:w ~m
    | Some _ | None -> ()));
  (match mu.holder with
  | Some h when Some h <> newh -> Vm.Tcb.unhold (thread t h) m
  | Some _ | None -> ());
  (match newh with
  | Some h when mu.holder <> newh -> Vm.Tcb.hold (thread t h) m
  | Some _ | None -> ());
  mu.holder <- newh

(* A first write into the open recovery epoch: charge its copy-on-write
   cost (the paper's [cow_first_write]). *)
let first_write t =
  t.acc_cost <- t.acc_cost + t.costs.Vm.Costs.cow_first_write;
  Sim.Stats.Handle.incr t.cow_words

let tsan_access t (tcb : Vm.Tcb.t) hook a =
  match t.tsan with
  | Some ts when not tcb.Vm.Tcb.in_cpr_region ->
    hook ts ~tid:tcb.Vm.Tcb.tid ~pc:tcb.Vm.Tcb.pc
      ~proc:tcb.Vm.Tcb.proc.Vm.Isa.pname ~addr:a
  | Some _ | None -> ()

let make_env t (tcb : Vm.Tcb.t) =
  let costs = t.costs in
  {
    Vm.Env.tid = tcb.Vm.Tcb.tid;
    regs = tcb.Vm.Tcb.regs;
    read =
      (fun a ->
        t.acc_cost <- t.acc_cost + costs.Vm.Costs.mem_access;
        tsan_access t tcb Tsan.on_read a;
        Vm.Mem.read t.mem a);
    write =
      (fun a v ->
        t.acc_cost <- t.acc_cost + costs.Vm.Costs.mem_access;
        tsan_access t tcb Tsan.on_write a;
        (match t.current_undo with
        | Some log ->
          if Undo_log.note_mem log a ~old:(Vm.Mem.read t.mem a) then
            first_write t
        | None -> ());
        Vm.Mem.write t.mem a v);
    file_size = (fun f -> Vm.Io.size t.io f);
    file_read =
      (fun f ~off ->
        t.acc_cost <- t.acc_cost + costs.Vm.Costs.io_per_word;
        Vm.Io.read t.io f ~off);
    file_write =
      (fun f ~off v ->
        t.acc_cost <- t.acc_cost + costs.Vm.Costs.io_per_word;
        let len = Vm.Io.size t.io f in
        if off >= len then begin
          (match t.current_undo with
          | Some log ->
            if Undo_log.note_file_len log f ~old:len then first_write t
          | None -> ());
          match t.on_io_grow with
          | Some g -> g f (off + 1 - len)
          | None -> ()
        end;
        let old = Vm.Io.read t.io f ~off in
        (match t.current_undo with
        | Some log -> if Undo_log.note_file log f ~off ~old then first_write t
        | None -> ());
        Vm.Io.write t.io f ~off v);
  }

(* Envs are memoized per tid: every hook reads the machine's mutable
   state ([current_undo], the CPR flag, [pc]) at call time, so a cached
   env behaves identically to a fresh one — this removes a 7-closure
   allocation per Work instruction on every engine's hot path. The
   physical-equality guard on the register file invalidates the cache if
   a tid is ever rebound to a different TCB (each TCB owns its regs). *)
let env_of t (tcb : Vm.Tcb.t) =
  let tid = tcb.Vm.Tcb.tid in
  if tid >= Array.length t.envs then begin
    let n = Stdlib.max (2 * Array.length t.envs) (tid + 1) in
    let envs' = Array.make n None in
    Array.blit t.envs 0 envs' 0 (Array.length t.envs);
    t.envs <- envs'
  end;
  match t.envs.(tid) with
  | Some e when e.Vm.Env.regs == tcb.Vm.Tcb.regs -> e
  | _ ->
    let e = make_env t tcb in
    t.envs.(tid) <- Some e;
    e

let take_acc_cost t =
  let c = t.acc_cost in
  t.acc_cost <- 0;
  c

(* The trace-compiler cursor is allocated once per state and retargeted
   per hop; compiled closures thread all their execution state through
   it, so entering a superblock allocates nothing. Retargeting is a
   physical-equality check in the common consecutive-hops-same-thread
   case. *)
let cursor t (tcb : Vm.Tcb.t) =
  match t.cursor with
  | Some cu ->
    if cu.Vm.Block.cu_tcb != tcb then begin
      cu.Vm.Block.cu_tcb <- tcb;
      cu.Vm.Block.cu_env <- env_of t tcb
    end;
    cu
  | None ->
    let cu =
      Vm.Block.make_cursor ~tcb ~env:(env_of t tcb)
        ~take_acc:(fun () -> take_acc_cost t)
    in
    t.cursor <- Some cu;
    cu

(* Per-proc fused-block decode with a one-entry memo: consecutive hops
   overwhelmingly stay in one proc, so the common case skips the
   name-keyed hashtable lookup. *)
let decode_of t (proc : Vm.Isa.proc) =
  match t.last_decode with
  | Some (p, info) when p == proc -> info
  | _ ->
    let info = Vm.Block.proc_info t.blocks proc in
    t.last_decode <- Some (proc, info);
    info

let read_atomic t v = t.atomics.(v)

let write_atomic t v x =
  (match t.current_undo with
  | Some log ->
    if Undo_log.note_atomic log v ~old:t.atomics.(v) then first_write t
  | None -> ());
  t.atomics.(v) <- x

let now t = Sim.Event_queue.now t.evq

let all_exited t = t.live_threads = 0

let seconds t c =
  Sim.Time.to_seconds ~cycles_per_second:t.costs.Vm.Costs.cycles_per_second c

type run_result = {
  sim_cycles : Sim.Time.cycles;
  sim_seconds : float;
  dnc : bool;
  run_stats : Sim.Stats.t;
  outputs : (string * int array) list;
  final_mem : Vm.Mem.t;
  races : Tsan.report list;
}

let mk_result t ~dnc =
  {
    sim_cycles = now t;
    sim_seconds = seconds t (now t);
    dnc;
    run_stats = t.stats;
    outputs =
      List.map (fun (name, f) -> (name, Vm.Io.contents t.io f)) t.output_handles;
    final_mem = t.mem;
    races = (match t.tsan with Some ts -> Tsan.reports ts | None -> []);
  }
