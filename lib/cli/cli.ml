(* Command-line converters shared by the [gprs_run] subcommands that
   build a workload ([run], [lint], [racecheck], [crashsweep], [client]).
   Bounds are checked here, at the boundary, so a bad value is a usage
   error instead of an exception deep inside a workload builder. *)

open Cmdliner

let contexts =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "%d: need at least 1 context" n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Format.pp_print_int)

let scale =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when Float.is_finite x && x > 0. -> Ok x
    | Ok _ -> Error (`Msg (Printf.sprintf "%s: need a finite scale > 0" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Format.pp_print_float)
