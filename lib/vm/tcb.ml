type wait =
  | Runnable
  | On_mutex of int
  | On_cond of { c : int; m : int }
  | Reacquire of int
  | On_barrier of int
  | On_join of int
  | On_token
  | Done

type t = {
  tid : int;
  group : int;
  proc : Isa.proc;
  mutable pc : int;
  regs : int array;
  mutable wait : wait;
  mutable joiners : int list;
  mutable in_cpr_region : bool;
  mutable lock_depth : int;
  mutable held_mutexes : int list;
  barrier_seq : int array;
  barrier_done : int array;
}

(* Flat unboxed snapshot: one int array, blit-copied whole. Layout:
   [0] pc, [1] CPR flag (0/1), [2] lock depth, [3 .. 3+R) registers,
   [3+R ..) barrier_seq. Register and barrier array lengths are fixed
   per program, so the offsets are stable across every snapshot of a
   run. *)
type saved = int array

let regs_off = 3

let create ~n_barriers ~tid ~group ~proc ~args =
  let regs = Array.make Isa.n_registers 0 in
  Array.blit args 0 regs 0 (Stdlib.min (Array.length args) Isa.n_registers);
  {
    tid;
    group;
    proc;
    pc = 0;
    regs;
    wait = Runnable;
    joiners = [];
    in_cpr_region = false;
    lock_depth = 0;
    held_mutexes = [];
    barrier_seq = Array.make n_barriers 0;
    barrier_done = Array.make n_barriers 0;
  }

let current_instr t =
  if t.pc >= 0 && t.pc < Array.length t.proc.Isa.code then
    Some t.proc.Isa.code.(t.pc)
  else None

let copy_state_into t s =
  let r = Array.length t.regs in
  s.(0) <- t.pc;
  s.(1) <- (if t.in_cpr_region then 1 else 0);
  s.(2) <- t.lock_depth;
  Array.blit t.regs 0 s regs_off r;
  Array.blit t.barrier_seq 0 s (regs_off + r) (Array.length t.barrier_seq)

let copy_state t =
  let s =
    Array.make (regs_off + Array.length t.regs + Array.length t.barrier_seq) 0
  in
  copy_state_into t s;
  s

(* The held set is kept sorted by descending mutex index — the order the
   old O(#mutexes) table scan produced — so checkpoint capture can alias
   the list and restore re-grants mutexes in the identical order. *)
let hold t m =
  let rec ins = function
    | [] -> [ m ]
    | x :: _ as l when x < m -> m :: l
    | x :: r when x > m -> x :: ins r
    | l -> l (* already held: holder maps are single-owner, keep idempotent *)
  in
  t.held_mutexes <- ins t.held_mutexes

let unhold t m =
  let rec rm = function
    | [] -> []
    | x :: r -> if x = m then r else x :: rm r
  in
  t.held_mutexes <- rm t.held_mutexes

let restore_state t s =
  let r = Array.length t.regs in
  t.pc <- s.(0);
  t.in_cpr_region <- s.(1) <> 0;
  t.lock_depth <- s.(2);
  Array.blit s regs_off t.regs 0 r;
  Array.blit s (regs_off + r) t.barrier_seq 0 (Array.length t.barrier_seq)

(* pc + regs + barrier_seq + one word for the packed flags — the same
   2 + R + B the boxed snapshot charged, so checkpoint-cost stats are
   unchanged. *)
let saved_words s = Array.length s - 1

(* Trace encoding: a wait as a code and two int arguments. *)
let wait_code = function
  | Runnable -> 0
  | On_mutex _ -> 1
  | On_cond _ -> 2
  | Reacquire _ -> 3
  | On_barrier _ -> 4
  | On_join _ -> 5
  | On_token -> 6
  | Done -> 7

let wait_arg_a = function
  | On_mutex x | Reacquire x | On_barrier x | On_join x | On_cond { c = x; _ } -> x
  | Runnable | On_token | Done -> 0

let wait_arg_b = function On_cond { m; _ } -> m | _ -> 0

let wait_of_code code a b =
  match code with
  | 0 -> Runnable
  | 1 -> On_mutex a
  | 2 -> On_cond { c = a; m = b }
  | 3 -> Reacquire a
  | 4 -> On_barrier a
  | 5 -> On_join a
  | 6 -> On_token
  | _ -> Done

let pp_wait ppf = function
  | Runnable -> Format.pp_print_string ppf "runnable"
  | On_mutex m -> Format.fprintf ppf "on_mutex(%d)" m
  | On_cond { c; m } -> Format.fprintf ppf "on_cond(%d,m%d)" c m
  | Reacquire m -> Format.fprintf ppf "reacquire(%d)" m
  | On_barrier b -> Format.fprintf ppf "on_barrier(%d)" b
  | On_join t -> Format.fprintf ppf "on_join(%d)" t
  | On_token -> Format.pp_print_string ppf "on_token"
  | Done -> Format.pp_print_string ppf "done"
