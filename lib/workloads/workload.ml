type grain = Default | Fine

type spec = {
  name : string;
  comp_size : string;
  sync_freq : string;
  crit_size : string;
  pattern : string;
  weights : int array option;
  build : n_contexts:int -> grain:grain -> scale:float -> Vm.Isa.program;
  digest : Exec.State.run_result -> string;
}

let fnv_prime = 0x100000001b3
let fnv_offset = 0x4bf29ce484222325 (* FNV-1a offset basis folded into 63 bits *)

let fnv1a acc v = (acc lxor (v land max_int)) * fnv_prime land max_int

let digest_cells mem ~lo ~n =
  let h = ref fnv_offset in
  for i = lo to lo + n - 1 do
    h := fnv1a !h (Vm.Mem.read mem i)
  done;
  Printf.sprintf "%016x" (!h land max_int)

let digest_outputs (r : Exec.State.run_result) =
  let h = ref fnv_offset in
  List.iter
    (fun (name, data) ->
      String.iter (fun c -> h := fnv1a !h (Char.code c)) name;
      Array.iter (fun v -> h := fnv1a !h v) data)
    r.Exec.State.outputs;
  Printf.sprintf "%016x" (!h land max_int)

let check_contexts n =
  if n >= 1 then Ok () else Error (Printf.sprintf "%d: need at least 1 context" n)

let check_scale x =
  if Float.is_finite x && x > 0. then Ok ()
  else Error (Printf.sprintf "%g: need a finite scale > 0" x)

let chunk_bounds ~total ~parts i =
  let base = total / parts and rem = total mod parts in
  let lo = (i * base) + Stdlib.min i rem in
  let hi = lo + base + if i < rem then 1 else 0 in
  (lo, hi)

let mix x =
  (* SplitMix64-style finalizer over OCaml's 63-bit ints. *)
  let x = x * 0x1E3779B97F4A7C15 land max_int in
  let x = (x lxor (x lsr 30)) * 0x3F58476D1CE4E5B9 land max_int in
  let x = (x lxor (x lsr 27)) * 0x14D049BB133111EB land max_int in
  x lxor (x lsr 31)

let spawn_workers b ~group ~proc:pname ~n ~tids_at ?(extra_args = fun _ _ -> [])
    () =
  let open Vm.Builder in
  for_up b ~reg:0 ~from:(fun _ -> 0) ~until:(fun _ -> n) (fun () ->
      fork b ~group ~proc:pname ~dst:1 (fun regs ->
          Array.of_list (regs.(0) :: extra_args regs.(0) regs));
      work_const b 1 (fun env ->
          env.Vm.Env.write (tids_at + Vm.Env.get env 0) (Vm.Env.get env 1)))

let join_workers b ~n ~tids_at =
  let open Vm.Builder in
  for_up b ~reg:0 ~from:(fun _ -> 0) ~until:(fun _ -> n) (fun () ->
      work_const b 1 (fun env ->
          Vm.Env.set env 1 (env.Vm.Env.read (tids_at + Vm.Env.get env 0)));
      join b (fun regs -> regs.(1)))
