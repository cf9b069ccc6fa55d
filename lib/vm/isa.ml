type regs = int array

type instr =
  | Work of { cost : regs -> int; run : Env.t -> unit }
  | Goto of int
  | If of { cond : regs -> bool; target : int }
  | Lock of { m : regs -> int }
  | Unlock of { m : regs -> int }
  | Barrier of { b : int }
  | Cond_wait of { c : int; m : int }
  | Cond_signal of { c : int; all : bool }
  | Atomic of { var : regs -> int; rmw : old:int -> regs -> int; dst : int }
  | Nonstd_atomic of { var : regs -> int; rmw : old:int -> regs -> int; dst : int }
  | Fork of { group : int; proc : string; args : regs -> int array; dst : int }
  | Join of { tid : regs -> int }
  | Alloc of { size : regs -> int; dst : int }
  | Free of { addr : regs -> int }
  | Cpr_begin
  | Cpr_end
  | Opaque of { cost : regs -> int; run : Env.t -> unit }
  | Exit

type proc = { pname : string; code : instr array }

type program = {
  procs : (string * proc) list;
  entry : string;
  n_mutexes : int;
  n_condvars : int;
  n_atomics : int;
  barrier_parties : int array;
  n_groups : int;
  group_weights : int array;
  mem_words : int;
  reserved_words : int;
  input_files : (string * int array) list;
  output_files : string list;
}

let n_registers = 32

let find_proc p name =
  match List.assoc_opt name p.procs with
  | Some proc -> proc
  | None -> invalid_arg (Printf.sprintf "Isa.find_proc: unknown proc %S" name)

let names =
  [| "work"; "goto"; "if"; "lock"; "unlock"; "barrier"; "cond_wait";
     "cond_signal"; "cond_broadcast"; "atomic"; "nonstd_atomic"; "fork";
     "join"; "alloc"; "free"; "cpr_begin"; "cpr_end"; "opaque"; "exit" |]

let instr_code = function
  | Work _ -> 0
  | Goto _ -> 1
  | If _ -> 2
  | Lock _ -> 3
  | Unlock _ -> 4
  | Barrier _ -> 5
  | Cond_wait _ -> 6
  | Cond_signal { all = false; _ } -> 7
  | Cond_signal { all = true; _ } -> 8
  | Atomic _ -> 9
  | Nonstd_atomic _ -> 10
  | Fork _ -> 11
  | Join _ -> 12
  | Alloc _ -> 13
  | Free _ -> 14
  | Cpr_begin -> 15
  | Cpr_end -> 16
  | Opaque _ -> 17
  | Exit -> 18

let code_name c = names.(c)
let instr_name i = names.(instr_code i)

let is_sync_point = function
  | Lock _ | Barrier _ | Cond_wait _ | Cond_signal _ | Atomic _ | Fork _
  | Join _ | Exit ->
    true
  | Work _ | Goto _ | If _ | Unlock _ | Nonstd_atomic _ | Alloc _ | Free _
  | Cpr_begin | Cpr_end | Opaque _ ->
    false
