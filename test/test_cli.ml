(* Bounds on the workload-building options shared by the gprs_run
   subcommands: out-of-range values are usage errors, never an exception
   from inside a workload builder. *)

let parse conv s = Cmdliner.Arg.conv_parser conv s

let accepts conv s =
  match parse conv s with Ok _ -> true | Error _ -> false

let contexts_bounds () =
  let ok = Alcotest.(check (result int reject)) in
  ok "1 context" (Ok 1) (parse Cli.contexts "1");
  ok "24 contexts" (Ok 24) (parse Cli.contexts "24");
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "contexts %S rejected" s) false
        (accepts Cli.contexts s))
    [ "0"; "-3"; "x"; "1.5"; "" ]

let scale_bounds () =
  let ok = Alcotest.(check (result (float 0.) reject)) in
  ok "scale 0.2" (Ok 0.2) (parse Cli.scale "0.2");
  ok "scale 1" (Ok 1.) (parse Cli.scale "1");
  Alcotest.(check bool) "tiny positive scale" true (accepts Cli.scale "1e-9");
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "scale %S rejected" s) false
        (accepts Cli.scale s))
    [ "0"; "-0"; "-1"; "nan"; "inf"; "-inf"; "x"; "" ]

(* The error names the bound, so the usage message says what to fix. *)
let error_messages () =
  let msg conv s =
    match parse conv s with Error (`Msg m) -> m | Ok _ -> "accepted"
  in
  Alcotest.(check string) "contexts message" "0: need at least 1 context"
    (msg Cli.contexts "0");
  Alcotest.(check string) "scale message" "-1: need a finite scale > 0"
    (msg Cli.scale "-1")

let suite =
  [
    Alcotest.test_case "contexts converter bounds" `Quick contexts_bounds;
    Alcotest.test_case "scale converter bounds" `Quick scale_bounds;
    Alcotest.test_case "converter error messages" `Quick error_messages;
  ]
