(* The -p/-w/-m/--iters arguments vprof and vtrace share.  Their docs
   are built from the {!Workloads} name tables, the vocabulary the
   tools resolve names against, so the two cannot drift. *)

open Cmdliner
module W = Workloads

let alts names = String.concat "|" names

let port =
  Arg.(value & opt string "mips" & info [ "p"; "port" ] ~docv:"PORT" ~doc:(alts W.port_names))

let workload ~default =
  Arg.(
    value & opt string default
    & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:(alts (W.workload_names @ [ "asm:NAME" ])))

let mode =
  Arg.(value & opt string "blocks" & info [ "m"; "mode" ] ~docv:"MODE" ~doc:(alts W.mode_names))

let iters ~default =
  Arg.(
    value & opt int default
    & info [ "iters" ] ~docv:"N" ~doc:"workload iterations (router: packets per run)")
