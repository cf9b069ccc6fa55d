type op =
  | Alloc of { addr : int; size : int }
  | Free of { addr : int; size : int }
  | Thread_create of { tid : int }
  | Rol_insert of { sub : int }
  | Sched_enqueue of { sub : int }
  | Io_op of { file : int; words : int }

type entry = { lsn : int; order : int; op : op }

type t = {
  mutable entries : entry list;  (* newest first *)
  mutable next_lsn : int;
  mutable live : int;
  mutable hw : int;
  stable : Buffer.t option;  (* serialized "stable storage" image, or None *)
  mutable on_append : (int -> unit) option;  (* fires after each op record *)
}

let create ?(stable = false) () =
  {
    entries = [];
    next_lsn = 0;
    live = 0;
    hw = 0;
    stable = (if stable then Some (Buffer.create 4096) else None);
    on_append = None;
  }

let stable_armed t = t.stable <> None
let set_on_append t f = t.on_append <- f
let appended t = t.next_lsn

(* --- stable-image record format ---------------------------------------

   One checksummed text line per record, in LSN order:

     O <lsn> <at> <order> <k> <a> <b> <crc>   op record (k: A F T R S I)
     P <lsn> <upto> <crc>                     prune marker (retirement)
     B <lsn> <crc>                            checkpoint begin
     E <lsn> <min_retired> <redo_start> <active> <brk> <free> <used> <crc>

   where <active> is a comma list of live sub-thread orders (or "-"),
   <free>/<used> are comma lists of addr:size allocator blocks (or "-").
   The crc is FNV-1a 64 of the line up to and excluding " <crc>"; a line
   that fails its crc, or a truncated/unparseable line, raises Corrupt.
   P/B/E records reuse the current next_lsn without consuming it, so op
   LSNs stay dense and sweep enumeration can target every op boundary. *)

exception Corrupt of string

type srec =
  | S_op of { at : int; e : entry }
  | S_prune of { lsn : int; upto : int }
  | S_drop of { lsn : int; orders : int list }
  | S_ckpt_begin of { lsn : int }
  | S_ckpt_end of {
      lsn : int;
      min_retired : int;
      redo_start : int;
      active : int list;
      brk : int;
      free : (int * int) list;
      used : (int * int) list;
    }

let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let emit t line =
  match t.stable with
  | None -> ()
  | Some buf ->
    Buffer.add_string buf line;
    Buffer.add_string buf (Printf.sprintf " %Lx\n" (fnv1a line))

let kind_char = function
  | Alloc _ -> 'A'
  | Free _ -> 'F'
  | Thread_create _ -> 'T'
  | Rol_insert _ -> 'R'
  | Sched_enqueue _ -> 'S'
  | Io_op _ -> 'I'

let op_fields = function
  | Alloc { addr; size } | Free { addr; size } -> (addr, size)
  | Thread_create { tid } -> (tid, 0)
  | Rol_insert { sub } | Sched_enqueue { sub } -> (sub, 0)
  | Io_op { file; words } -> (file, words)

let append t ?(at = 0) ~order op =
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  t.entries <- { lsn; order; op } :: t.entries;
  t.live <- t.live + 1;
  if t.live > t.hw then t.hw <- t.live;
  if t.stable <> None then begin
    let a, b = op_fields op in
    emit t (Printf.sprintf "O %d %d %d %c %d %d" lsn at order (kind_char op) a b)
  end;
  (match t.on_append with Some f -> f lsn | None -> ());
  lsn

let size t = t.live
let high_water t = t.hw

let entries_for t ~orders = List.filter (fun e -> orders e.order) t.entries

let drop_for t ~orders =
  let kept, dropped = List.partition (fun e -> not (orders e.order)) t.entries in
  t.entries <- kept;
  let n = List.length dropped in
  t.live <- t.live - n;
  (* Squash-undo is a durable decision: without a drop marker, cold
     recovery would count the squashed sub-threads' operations a second
     time (their undo already ran in the live engine). *)
  if n > 0 && t.stable <> None then begin
    let os =
      List.sort_uniq compare (List.map (fun e -> e.order) dropped)
    in
    emit t
      (Printf.sprintf "D %d %s" t.next_lsn
         (String.concat "," (List.map string_of_int os)))
  end;
  n

let prune_below t ~order =
  let kept, dropped = List.partition (fun e -> e.order >= order) t.entries in
  t.entries <- kept;
  let n = List.length dropped in
  t.live <- t.live - n;
  if n > 0 && t.stable <> None then
    emit t (Printf.sprintf "P %d %d" t.next_lsn order);
  n

(* Redo scan start for the next recovery: the oldest LSN still protected
   by a live (volatile) entry. With no live entries nothing older than
   next_lsn can belong to an unretired sub-thread. *)
let redo_start t =
  List.fold_left (fun acc e -> min acc e.lsn) t.next_lsn t.entries

(* Split begin/end so the engine can expose the B→E window as two fault
   points: a crash landing between them leaves a B without its E, which
   analysis must treat as "checkpoint did not complete". *)
let log_checkpoint_begin t =
  if t.stable <> None then emit t (Printf.sprintf "B %d" t.next_lsn)

let log_checkpoint_end t ~min_retired ~active ~brk ~free ~used =
  if t.stable <> None then begin
    let lsn = t.next_lsn in
    let ints l = if l = [] then "-" else String.concat "," (List.map string_of_int l) in
    let blocks l =
      if l = [] then "-"
      else String.concat "," (List.map (fun (a, s) -> Printf.sprintf "%d:%d" a s) l)
    in
    emit t
      (Printf.sprintf "E %d %d %d %s %d %s %s" lsn min_retired (redo_start t)
         (ints active) brk (blocks free) (blocks used))
  end

let log_checkpoint t ~min_retired ~active ~brk ~free ~used =
  log_checkpoint_begin t;
  log_checkpoint_end t ~min_retired ~active ~brk ~free ~used

(* Torn-write injection: cut the stable image mid-way through its final
   record, the on-disk shape of a write that lost power half-done. At
   least one byte of the final line survives, so the cut never lands on
   a record boundary — parse_image must see it and refuse. *)
let tear_stable t =
  match t.stable with
  | None -> ()
  | Some buf ->
    let s = Buffer.contents buf in
    let n = String.length s in
    if n >= 2 then begin
      let line_start =
        match String.rindex_from_opt s (n - 2) '\n' with
        | Some j -> j + 1
        | None -> 0
      in
      let keep = line_start + Stdlib.max 1 ((n - 1 - line_start) / 2) in
      let torn = String.sub s 0 keep in
      Buffer.clear buf;
      Buffer.add_string buf torn
    end

let stable_image t = Option.map Buffer.contents t.stable

let parse_image image =
  let bad fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt in
  let int s = match int_of_string_opt s with Some v -> v | None -> bad "bad int %S" s in
  let ints = function
    | "-" -> []
    | s -> List.map int (String.split_on_char ',' s)
  in
  let blocks = function
    | "-" -> []
    | s ->
      List.map
        (fun tok ->
          match String.split_on_char ':' tok with
          | [ a; sz ] -> (int a, int sz)
          | _ -> bad "bad block %S" tok)
        (String.split_on_char ',' s)
  in
  let parse_line ln line =
    match String.rindex_opt line ' ' with
    | None -> bad "line %d: no checksum" ln
    | Some i ->
      let body = String.sub line 0 i in
      let crc = String.sub line (i + 1) (String.length line - i - 1) in
      let want = Printf.sprintf "%Lx" (fnv1a body) in
      if not (String.equal crc want) then
        bad "line %d: checksum mismatch (got %s, want %s)" ln crc want;
      (match String.split_on_char ' ' body with
      | [ "O"; lsn; at; order; k; a; b ] ->
        let a = int a and b = int b in
        let op =
          match k with
          | "A" -> Alloc { addr = a; size = b }
          | "F" -> Free { addr = a; size = b }
          | "T" -> Thread_create { tid = a }
          | "R" -> Rol_insert { sub = a }
          | "S" -> Sched_enqueue { sub = a }
          | "I" -> Io_op { file = a; words = b }
          | _ -> bad "line %d: unknown op kind %S" ln k
        in
        S_op { at = int at; e = { lsn = int lsn; order = int order; op } }
      | [ "P"; lsn; upto ] -> S_prune { lsn = int lsn; upto = int upto }
      | [ "D"; lsn; os ] -> S_drop { lsn = int lsn; orders = ints os }
      | [ "B"; lsn ] -> S_ckpt_begin { lsn = int lsn }
      | [ "E"; lsn; min_retired; redo_start; active; brk; free; used ] ->
        S_ckpt_end
          {
            lsn = int lsn;
            min_retired = int min_retired;
            redo_start = int redo_start;
            active = ints active;
            brk = int brk;
            free = blocks free;
            used = blocks used;
          }
      | _ -> bad "line %d: unparseable record %S" ln body)
  in
  let recs = ref [] in
  let n = String.length image in
  let pos = ref 0 and ln = ref 1 in
  while !pos < n do
    let stop = match String.index_from_opt image !pos '\n' with Some j -> j | None -> n in
    let line = String.sub image !pos (stop - !pos) in
    if line <> "" then recs := parse_line !ln line :: !recs;
    incr ln;
    pos := stop + 1
  done;
  List.rev !recs

let all t = List.rev t.entries

let pp_op ppf = function
  | Alloc { addr; size } -> Format.fprintf ppf "alloc(%d,%d)" addr size
  | Free { addr; size } -> Format.fprintf ppf "free(%d,%d)" addr size
  | Thread_create { tid } -> Format.fprintf ppf "thread_create(%d)" tid
  | Rol_insert { sub } -> Format.fprintf ppf "rol_insert(%d)" sub
  | Sched_enqueue { sub } -> Format.fprintf ppf "sched_enqueue(%d)" sub
  | Io_op { file; words } -> Format.fprintf ppf "io(%d,%d)" file words
