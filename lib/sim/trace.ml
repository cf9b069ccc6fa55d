type kind = Make_runnable | Grant | Park | Fill

type names = { instr : int -> string; wait : int -> int -> int -> string }

(* One event is [stride] consecutive ints of [buf]: time, kind, then the
   kind's fields. Make_runnable: tid, flag bits (queued 1, on_ctx 2,
   destroyed 4). Grant/Park: tid, instruction code, pc. Fill: ctx, tid,
   wait code, wait arguments a and b. *)
let stride = 7

type t = {
  mutable buf : int array;  (* [||] until the first record *)
  capacity : int;
  names : names;
  mutable next : int;
  mutable total : int;
  mutable on : bool;
}

let create ?(capacity = 4096) ~names () =
  let capacity = Stdlib.max 1 capacity in
  {
    buf = [||];
    capacity;
    names;
    next = 0;
    total = 0;
    on = true;
  }

let enabled t = t.on
let set_enabled t b = t.on <- b

let kind_code = function Make_runnable -> 0 | Grant -> 1 | Park -> 2 | Fill -> 3
let kind_of_code = function 0 -> Make_runnable | 1 -> Grant | 2 -> Park | _ -> Fill

let push t time kind f0 f1 f2 f3 f4 =
  if t.on then begin
    (* Allocated on first use: engines that never record (Pthreads,
       P-CPR) share [Exec.State] and would otherwise pay for the whole
       ring on every run. *)
    if Array.length t.buf = 0 then t.buf <- Array.make (t.capacity * stride) 0;
    let o = t.next * stride and b = t.buf in
    b.(o) <- time;
    b.(o + 1) <- kind_code kind;
    b.(o + 2) <- f0;
    b.(o + 3) <- f1;
    b.(o + 4) <- f2;
    b.(o + 5) <- f3;
    b.(o + 6) <- f4;
    t.next <- (if t.next + 1 = t.capacity then 0 else t.next + 1);
    t.total <- t.total + 1
  end

let bit b v = if b then v else 0

let make_runnable t time ~tid ~queued ~on_ctx ~destroyed =
  push t time Make_runnable tid
    (bit queued 1 lor bit on_ctx 2 lor bit destroyed 4)
    0 0 0

let grant t time ~tid ~instr ~pc = push t time Grant tid instr pc 0 0
let park t time ~tid ~instr ~pc = push t time Park tid instr pc 0 0

let fill t time ~ctx ~tid ~wait ~a ~b = push t time Fill ctx tid wait a b

let render t slot =
  let b = t.buf and o = slot * stride in
  let f i = b.(o + 2 + i) in
  let text =
    match kind_of_code b.(o + 1) with
    | Make_runnable ->
      Printf.sprintf "make_runnable %d queued=%b on_ctx=%b destroyed=%b" (f 0)
        (f 1 land 1 <> 0) (f 1 land 2 <> 0) (f 1 land 4 <> 0)
    | Grant -> Printf.sprintf "grant %d %s pc=%d" (f 0) (t.names.instr (f 1)) (f 2)
    | Park -> Printf.sprintf "park %d %s pc=%d" (f 0) (t.names.instr (f 1)) (f 2)
    | Fill ->
      Printf.sprintf "fill ctx=%d tid=%d wait=%s" (f 0) (f 1)
        (t.names.wait (f 2) (f 3) (f 4))
  in
  (b.(o), text)

let to_list t =
  let n = Stdlib.min t.total t.capacity in
  let start = if t.total <= t.capacity then 0 else t.next in
  List.init n (fun i -> render t ((start + i) mod t.capacity))

let find t ~substring =
  let contains s sub =
    let ls = String.length s and lsub = String.length sub in
    let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
    lsub = 0 || go 0
  in
  List.find_opt (fun (_, m) -> contains m substring) (to_list t)

let clear t =
  t.next <- 0;
  t.total <- 0
