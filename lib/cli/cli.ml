(* Command-line converters shared by the [gprs_run] subcommands that
   build a workload ([run], [lint], [racecheck], [crashsweep], [client]).
   The bounds themselves live with the builders
   ({!Workloads.Workload.check_contexts} / [check_scale]), so the CLI and
   the daemon's request decoder refuse exactly the same values: a bad
   value is a usage error instead of an exception deep inside a workload
   builder. *)

open Cmdliner

let bounded conv check pp =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v -> (
      match check v with Ok () -> Ok v | Error m -> Error (`Msg m))
    | Error _ as e -> e
  in
  Arg.conv (parse, pp)

let contexts =
  bounded Arg.int Workloads.Workload.check_contexts Format.pp_print_int

let scale = bounded Arg.float Workloads.Workload.check_scale Format.pp_print_float
