(* Host-speed calibration. Host time on a shared machine drifts by tens
   of percent within minutes, and different code drifts differently. Four
   fixed stdlib-only kernels — hashing into a table of small arrays,
   sorting an array of boxed pairs, sorting a list, and integer
   arithmetic — are timed between operations in the same run. Every
   reported time is scaled by [nominal_ms] over the geometric mean of the
   kernels' lower-quartile times, i.e. expressed in host milliseconds at
   the speed where that mean is [nominal_ms]. The kernels use none of the
   program's code, so a change to the program moves the figures and a
   change in host speed does not. *)

let nominal_ms = 0.8

let k_hash () =
  let h = Hashtbl.create 256 in
  for i = 0 to 10_000 do
    Hashtbl.replace h (i land 2047) (Array.make 6 i)
  done;
  Hashtbl.length h

let k_array () =
  let acc = ref 0 in
  for r = 0 to 1 do
    let l = List.init 1_500 (fun i -> ((i * 7919) + r) land 4095) in
    let a = Array.of_list (List.rev_map (fun x -> (x, float_of_int x)) l) in
    Array.sort compare a;
    acc := !acc + fst a.(r) + int_of_float (snd a.(Array.length a - 1))
  done;
  !acc

let k_list () =
  let acc = ref 0 in
  for r = 0 to 1 do
    let l = List.init 1_500 (fun i -> ((i * 7919) + r) land 4095) in
    let l = List.sort compare (List.rev_map (fun x -> (x, float_of_int x)) l) in
    acc := List.fold_left (fun a (x, f) -> a + x + int_of_float f) !acc l
  done;
  !acc

let k_alu () =
  let x = ref 0 in
  for i = 0 to 1_000_000 do
    x := !x + ((i * i) land 0xff)
  done;
  !x

let kernels = [| k_hash; k_array; k_list; k_alu |]

type t = { samples : float list array; mutable words : float }

let create () = { samples = Array.make (Array.length kernels) []; words = 0. }

(* One run of every kernel; their minor words are kept apart so they can
   be taken out of the program's allocation figures. *)
let sample c =
  let w0 = Common.words () in
  Array.iteri
    (fun i k ->
      let t0 = Common.now () in
      ignore (Sys.opaque_identity (k ()));
      c.samples.(i) <- Common.ms_since t0 :: c.samples.(i))
    kernels;
  c.words <- c.words +. (Common.words () -. w0)

let kernel_ms c =
  let logs =
    Array.map (fun s -> log (Common.pct (Common.sorted s) 25.)) c.samples
  in
  exp (Array.fold_left ( +. ) 0. logs /. float_of_int (Array.length logs))

(* Multiply a host time by this to express it at nominal speed. *)
let factor c = nominal_ms /. kernel_ms c
