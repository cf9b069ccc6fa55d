type key =
  | K_mem of int
  | K_atomic of int
  | K_file of int * int
  | K_file_len of int

(* --- int key encoding ------------------------------------------------- *)

(* A location is one immediate int: the kind in the low 2 bits (0 memory
   word, 1 atomic, 2 file length, 3 file word), the location above it.
   A file word packs its file id into [file_bits] bits under the offset;
   both fields are range-checked, so two distinct file words can never
   encode to the same key. *)

let file_bits = 16
let max_file = (1 lsl file_bits) - 1
let max_off = (1 lsl (Sys.int_size - 3 - file_bits)) - 1

let enc_mem a = a lsl 2
let enc_atomic v = (v lsl 2) lor 1
let enc_file_len f = (f lsl 2) lor 2

let enc_file f off =
  if f < 0 || f > max_file then
    invalid_arg (Printf.sprintf "Undo_log: file id %d out of range" f);
  if off < 0 || off > max_off then
    invalid_arg (Printf.sprintf "Undo_log: file offset %d out of range" off);
  (((off lsl file_bits) lor f) lsl 2) lor 3

let encode = function
  | K_mem a -> enc_mem a
  | K_atomic v -> enc_atomic v
  | K_file (f, off) -> enc_file f off
  | K_file_len f -> enc_file_len f

let decode k =
  let x = k asr 2 in
  match k land 3 with
  | 0 -> K_mem x
  | 1 -> K_atomic x
  | 2 -> K_file_len x
  | _ -> K_file (x land max_file, x lsr file_bits)

(* --- the log ---------------------------------------------------------- *)

type t = {
  (* Entries in parallel arrays, oldest first: [keys.(i)] was first
     written with pre-image [olds.(i)]. *)
  mutable keys : int array;
  mutable olds : int array;
  mutable n : int;
  (* First-write set: open addressing with linear probing over [slots],
     each slot 0 (empty) or an entry index + 1. At most half full. *)
  mutable slots : int array;
  (* When [paged] is set, memory keys are not materialized as entries:
     first-writes are detected through the memory's per-word dirty epoch
     and only counted, with the data itself restored page-wise by the
     owner through [Vm.Mem.restore_image]. Non-memory keys always take
     the entry path. *)
  paged : Vm.Mem.t option;
  mutable mem_touches : int;
}

(* Arrays are allocated by the first entry: a log that only ever sees
   paged memory touches, or none at all, costs its record alone. *)
let create ?paged () =
  { keys = [||]; olds = [||]; n = 0; slots = [||]; paged; mem_touches = 0 }

let initial_entries = 16

let hash k mask =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land mask

(* Slot holding [k], or the empty slot where it would go. Top-level and
   closure-free, so a probe allocates nothing. *)
let rec probe slots mask keys k i =
  let s = slots.(i) in
  if s = 0 || keys.(s - 1) = k then i
  else probe slots mask keys k ((i + 1) land mask)

let find_slot slots k keys =
  let mask = Array.length slots - 1 in
  probe slots mask keys k (hash k mask)

let grow t =
  let cap = Stdlib.max initial_entries (2 * Array.length t.keys) in
  let keys = Array.make cap 0 and olds = Array.make cap 0 in
  Array.blit t.keys 0 keys 0 t.n;
  Array.blit t.olds 0 olds 0 t.n;
  let slots = Array.make (2 * cap) 0 in
  for i = 0 to t.n - 1 do
    slots.(find_slot slots keys.(i) keys) <- i + 1
  done;
  t.keys <- keys;
  t.olds <- olds;
  t.slots <- slots

let note_entry t k ~old =
  if t.n = Array.length t.keys then grow t;
  let i = find_slot t.slots k t.keys in
  if t.slots.(i) <> 0 then false
  else begin
    let n = t.n in
    t.keys.(n) <- k;
    t.olds.(n) <- old;
    t.slots.(i) <- n + 1;
    t.n <- n + 1;
    true
  end

let note_mem t a ~old =
  match t.paged with
  | Some mem ->
    if Vm.Mem.touch mem a then begin
      t.mem_touches <- t.mem_touches + 1;
      true
    end
    else false
  | None -> note_entry t (enc_mem a) ~old

let note_atomic t v ~old = note_entry t (enc_atomic v) ~old
let note_file t f ~off ~old = note_entry t (enc_file f off) ~old
let note_file_len t f ~old = note_entry t (enc_file_len f) ~old

let note t key ~old =
  match key with
  | K_mem a -> note_mem t a ~old
  | K_atomic _ | K_file _ | K_file_len _ -> note_entry t (encode key) ~old

(* Empty the first-write set in O(entries), newest first: an entry's
   probe run only crosses slots of entries older than itself, which are
   still in place when its own slot is looked up. Capacity is kept, so a
   recycled log does not re-pay the growth of its previous life. *)
let reset t =
  for i = t.n - 1 downto 0 do
    t.slots.(find_slot t.slots t.keys.(i) t.keys) <- 0
  done;
  t.n <- 0;
  t.mem_touches <- 0

let size t = t.mem_touches + t.n
let is_empty t = t.mem_touches = 0 && t.n = 0

let replay ~mem ~atomics ~io t =
  let words = size t in
  for i = t.n - 1 downto 0 do
    let k = t.keys.(i) and old = t.olds.(i) in
    let x = k asr 2 in
    match k land 3 with
    | 0 -> Vm.Mem.write mem x old
    | 1 -> atomics.(x) <- old
    | 2 -> Vm.Io.truncate io x old
    | _ -> Vm.Io.write io (x land max_file) ~off:(x lsr file_bits) old
  done;
  reset t;
  words

let keys t = List.init t.n (fun i -> decode t.keys.(t.n - 1 - i))

let merge_newer ~older t =
  if t.paged <> None || older.paged <> None then
    invalid_arg "Undo_log.merge_newer: paged logs cannot be merged";
  (* Fold the newer log's records in oldest first, after the older log's
     own, keeping the older pre-image on conflicts. *)
  for i = 0 to t.n - 1 do
    ignore (note_entry older t.keys.(i) ~old:t.olds.(i))
  done;
  reset t
