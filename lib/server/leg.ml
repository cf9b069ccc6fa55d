(* The experiment "leg": the three runtime knobs that the one-shot CLI
   reads from the environment at process start. A long-lived daemon
   must pin them once, at server start, into an explicit record: the
   knobs are process-global, so if they could drift between requests a
   cached program compiled under one leg could serve a request issued
   under another. The cache key therefore includes [key] of the leg the
   server snapshotted. *)

type t = {
  fuse : bool;  (* GPRS_NO_FUSE unset *)
  compile : bool;  (* GPRS_NO_COMPILE unset *)
  tsan : bool;  (* GPRS_TSAN set *)
}

let capture () =
  {
    fuse = Vm.Block.fusing ();
    compile = Vm.Block.compiling ();
    tsan = Exec.Tsan.enabled ();
  }

let apply l =
  Vm.Block.set_fusing l.fuse;
  Vm.Block.set_compiling l.compile;
  Exec.Tsan.set_enabled l.tsan

let key l =
  Printf.sprintf "f%db%dt%d" (Bool.to_int l.fuse) (Bool.to_int l.compile)
    (Bool.to_int l.tsan)

let to_json l =
  Json.Obj
    [
      ("fuse", Json.Bool l.fuse);
      ("compile", Json.Bool l.compile);
      ("tsan", Json.Bool l.tsan);
    ]
