(* Outside-in spans: recorded by the benchmark around its own calls into
   each layer's public functions, kept in memory, written out when the
   run ends. Off (the untraced run) a span is one branch around [f]. *)

type t = {
  name : string;  (* "<layer>.<call>" *)
  id : int;  (* run or request id shared by one operation's spans *)
  parent : int;  (* index of the enclosing span, -1 for a root *)
  t0 : float;
  mutable t1 : float;
}

let on = ref false
let buf : t array ref = ref [||]
let count = ref 0
let open_stack : int list ref = ref []

(* The id stamped on spans opened from now on. *)
let op_id = ref 0

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let push s =
  let i = !count in
  if i = Array.length !buf then begin
    let bigger = Array.make (max 1024 (2 * i)) s in
    Array.blit !buf 0 bigger 0 i;
    buf := bigger
  end;
  !buf.(i) <- s;
  incr count;
  i

(* A completed interval known from timestamps (the service workload's
   client-side arrival gaps). Returns its index for use as a parent. *)
let add ?(parent = -1) ~id name t0 t1 = push { name; id; parent; t0; t1 }

(* [with_ name f]: time [f] as a child of the innermost open span. *)
let with_ name f =
  if not !on then f ()
  else begin
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    let s = { name; id = !op_id; parent; t0 = Common.now (); t1 = nan } in
    let i = push s in
    open_stack := i :: !open_stack;
    Fun.protect f ~finally:(fun () ->
        open_stack := List.tl !open_stack;
        s.t1 <- Common.now ())
  end

(* [with_] plus the call's host time and main-domain minor words, fed to
   the per-layer accumulator under [name]. *)
let timed acc name f =
  if not !on then f ()
  else begin
    let w0 = Common.words () and t0 = Common.now () in
    Fun.protect
      (fun () -> with_ name f)
      ~finally:(fun () ->
        Common.sample acc (name ^ ".ms") (Common.ms_since t0);
        Common.add acc (name ^ ".words") (Common.words () -. w0))
  end

let reset () =
  buf := [||];
  count := 0;
  open_stack := []

let all () = Array.sub !buf 0 !count

(* Self time per layer, in seconds: a span's duration minus its direct
   children's. *)
let self_by_layer () =
  let a = all () in
  let self = Array.map (fun s -> s.t1 -. s.t0) a in
  Array.iter
    (fun s ->
      if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. (s.t1 -. s.t0))
    a;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let l = layer s.name in
      Hashtbl.replace tbl l
        (self.(i) +. Option.value ~default:0. (Hashtbl.find_opt tbl l)))
    a;
  tbl

let root_total () =
  Array.fold_left
    (fun acc s -> if s.parent < 0 then acc +. (s.t1 -. s.t0) else acc)
    0. (all ())

let write path =
  let module J = Server.Json in
  Out_channel.with_open_bin path (fun oc ->
      Array.iteri
        (fun i s ->
          Out_channel.output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("span", J.Int i);
                    ("name", J.Str s.name);
                    ("id", J.Int s.id);
                    ("parent", J.Int s.parent);
                    ("start_us", J.Float (1e6 *. s.t0));
                    ("end_us", J.Float (1e6 *. s.t1));
                  ]));
          Out_channel.output_char oc '\n')
        (all ()))
