(* vtrace: execution-trace capture, export and cross-mode diffing.

   Built on {!Vmachine.Trace} (the per-simulator retired-instruction
   ring) and the emit-site provenance tables of {!Vcodebase.Gen}: every
   traced address symbolizes back to the client emitter call that
   produced it ("dpf:ldii#12@L3+1" = word 1 past the 12th ldii, inside
   label 3's span of the DPF classifier).

   Two subcommands:

     vtrace capture -p mips -w alu-loop -m blocks --iters 2000 \
            --bin t.vtrc --json t.trace.json
       runs the workload once with tracing on and exports the ring: a
       compact binary dump (Trace.write_binary) and/or a Chrome
       trace_event JSON file loadable in Perfetto / chrome://tracing.

     vtrace diff -p mips -w alu-loop --mode-a off --mode-b blocks
       runs the same port x workload under two engine modes, aligns
       the two retired-instruction streams and reports the first
       divergence with symbolized context — the bisection tool for
       translation-cache bugs.  --inject-hot deliberately corrupts
       mode B's block cache (Block_cache.alias: the hottest entry is
       aliased to the second-hottest block, a stale translation) so a
       divergence exists to find; the exit status is 0 when the
       streams match, 1 when they diverge.

   EXPERIMENTS.md ("Tracing a divergence to its emit site") is a
   worked session.  The port/workload/mode vocabulary is shared with
   vprof and bench through {!Workloads}. *)

module Tel = Vmachine.Telemetry
module Trace = Vmachine.Trace
module W = Workloads

(* Run [workload] traced under [mode]: one untraced-in-spirit priming
   pass (recorded, then discarded with [Trace.reset]) so block
   compilation happens up front, then the measured pass.  Both diff
   sides use the same two-pass discipline, so their streams are
   directly comparable, and [inject] runs between the passes — after
   the block cache is populated, before the measured run.  A fault or
   out-of-fuel exception in the measured pass is reported, not fatal:
   the trace up to that point is exactly what the differ needs. *)
let traced_run (module P : W.PORT) ~workload ~mode ~iters ~cap ~fuel ?(inject_hot = false) () =
  let predecode, blocks, regions = W.mode_exn ~tool:"vtrace" mode in
  let tel = Tel.create () in
  let tr = Trace.create ~capacity_pow2:cap () in
  (* tier-up off: the priming pass translates from the first call, so
     a diff compares the tiers, not their shared interpreted cold
     phase *)
  let m = P.create ~hot_calls:0 ~telemetry:tel ~trace:tr ~predecode ~blocks ~regions () in
  let prep = P.prepare ~tel ~provenance:true ~fuel m ~workload ~iters in
  let abort = ref None in
  let pass () = try prep.W.run () with e -> abort := Some (Printexc.to_string e) in
  pass ();
  (match !abort with
  | Some e -> Printf.ksprintf failwith "vtrace: %s/%s priming pass failed: %s" workload mode e
  | None -> ());
  (* --inject-hot: corrupt the now-populated block cache — alias the
     hottest compiled entry to the second-hottest block, i.e. a stale
     translation exactly where it does the most damage *)
  if inject_hot then begin
    match P.hot_blocks ~limit:2 m with
    | (h1, _) :: (h2, _) :: _ ->
      if not (P.alias_block m ~at:h1 ~from:h2) then
        failwith "vtrace: --inject-hot: alias rejected";
      Printf.printf "  injected: entry 0x%08x now runs the block compiled for 0x%08x\n" h1 h2
    | _ -> failwith "vtrace: --inject-hot needs >=2 compiled blocks (is mode-b \"blocks\"?)"
  end;
  Trace.reset tr;
  P.reset_stats m;
  pass ();
  (tr, prep.W.regions, !abort)

let symbolize regions pc =
  match W.symbol_of regions pc with
  | Some s -> Printf.sprintf "0x%08x  %s" pc s
  | None -> Printf.sprintf "0x%08x" pc

(* ------------------------------------------------------------------ *)
(* capture                                                             *)

let capture port workload mode iters cap fuel bin json =
  let p = W.port_exn ~tool:"vtrace" port in
  let workload = W.workload_exn ~tool:"vtrace" p workload in
  let tr, regions, abort = traced_run p ~workload ~mode ~iters ~cap ~fuel () in
  Printf.printf "vtrace: %s on %s, %s mode (%d iterations)\n" workload port mode iters;
  Printf.printf "  %d records seen, %d retained, %d dropped (ring 2^%d)\n" (Trace.seen tr)
    (Trace.retained tr) (Trace.dropped tr) cap;
  (match abort with
  | Some e -> Printf.printf "  measured pass aborted: %s\n" e
  | None -> ());
  (match bin with
  | None -> ()
  | Some path ->
    let oc = open_out_bin path in
    Trace.write_binary oc ~port ~mode ~workload tr;
    close_out oc;
    Printf.printf "  wrote binary trace to %s\n" path);
  (match json with
  | None -> ()
  | Some path ->
    let b = Buffer.create 65536 in
    Chrome_trace.write_trace b ~symbol:(W.symbol_of regions) ~port ~mode ~workload tr;
    let oc = open_out path in
    Buffer.output_buffer oc b;
    close_out oc;
    Printf.printf "  wrote Chrome trace_event JSON to %s (load in Perfetto)\n" path);
  if bin = None && json = None then begin
    (* no export requested: print the tail as a smoke report *)
    let recs = Trace.records tr in
    let n = Array.length recs in
    let first = max 0 (n - 16) in
    Printf.printf "  last %d records:\n" (n - first);
    for i = first to n - 1 do
      let kind, payload = recs.(i) in
      Printf.printf "    %-12s %s\n" (Trace.kind_name kind) (symbolize regions payload)
    done
  end

(* ------------------------------------------------------------------ *)
(* diff                                                                *)

let stream_context label regions (pcs : int array) ~ordinal ~context =
  let n = Array.length pcs in
  let first = max 0 (ordinal - context) in
  let last = min (n - 1) (ordinal + context) in
  Printf.printf "  %s stream (%d retired):\n" label n;
  if first > 0 then Printf.printf "    ... %d earlier\n" first;
  for i = first to last do
    Printf.printf "  %s %6d  %s\n" (if i = ordinal then ">" else " ") i
      (symbolize regions pcs.(i))
  done;
  if n = 0 then Printf.printf "    (empty)\n"
  else if ordinal >= n then Printf.printf "  > %6d  (stream ended)\n" ordinal

let diff port workload mode_a mode_b iters cap fuel inject context =
  let p = W.port_exn ~tool:"vtrace" port in
  let workload = W.workload_exn ~tool:"vtrace" p workload in
  (* A corrupted run can spin until fuel runs out; if that overflows
     the trace ring, the head of the stream — where the true first
     divergence lives — is lost.  Clamp the per-call budget well under
     the ring capacity (retires plus block-dispatch marks both land in
     it) so the measured stream is always fully retained; raise --cap
     to afford more fuel. *)
  let fuel = min fuel ((1 lsl cap) / 4) in
  Printf.printf "vtrace diff: %s on %s, %s vs %s (%d iterations)\n" workload port mode_a
    mode_b iters;
  let tr_a, regions_a, abort_a = traced_run p ~workload ~mode:mode_a ~iters ~cap ~fuel () in
  let tr_b, regions_b, abort_b =
    traced_run p ~workload ~mode:mode_b ~iters ~cap ~fuel ~inject_hot:inject ()
  in
  (match abort_a with
  | Some e -> Printf.printf "  %s pass aborted: %s\n" mode_a e
  | None -> ());
  (match abort_b with
  | Some e -> Printf.printf "  %s pass aborted: %s\n" mode_b e
  | None -> ());
  let a = Trace.retired_pcs tr_a and b = Trace.retired_pcs tr_b in
  if Trace.dropped tr_a > 0 || Trace.dropped tr_b > 0 then
    Printf.printf
      "  warning: ring overflow (a dropped %d, b dropped %d) — only the tails align;\n\
      \  rerun with a larger --cap for a full-stream diff\n"
      (Trace.dropped tr_a) (Trace.dropped tr_b);
  match Trace.first_divergence a b with
  | None ->
    Printf.printf "  identical: %d retired instructions in both modes\n" (Array.length a);
    exit 0
  | Some d ->
    Printf.printf "\n  FIRST DIVERGENCE at retired instruction %d:\n" d.Trace.ordinal;
    Printf.printf "    %-10s %s\n" mode_a
      (if d.Trace.a_pc < 0 then "(stream ended)" else symbolize regions_a d.Trace.a_pc);
    Printf.printf "    %-10s %s\n\n" mode_b
      (if d.Trace.b_pc < 0 then "(stream ended)" else symbolize regions_b d.Trace.b_pc);
    stream_context mode_a regions_a a ~ordinal:d.Trace.ordinal ~context;
    stream_context mode_b regions_b b ~ordinal:d.Trace.ordinal ~context;
    exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

open Cmdliner

let workload_arg = Cli.workload ~default:"alu-loop"
let iters_arg = Cli.iters ~default:200

let cap_arg =
  Arg.(
    value & opt int 20
    & info [ "cap" ] ~docv:"POW2" ~doc:"trace ring capacity, log2 records (8..24)")

let fuel_arg =
  Arg.(
    value & opt int 50_000_000
    & info [ "fuel" ] ~docv:"N" ~doc:"per-call instruction budget (bounds corrupted runs)")

let capture_cmd =
  let bin_arg =
    Arg.(
      value & opt (some string) None & info [ "bin" ] ~docv:"FILE" ~doc:"binary trace output")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Chrome trace_event JSON output (Perfetto)")
  in
  Cmd.v
    (Cmd.info "capture" ~doc:"run one traced workload and export the ring")
    Term.(
      const capture $ Cli.port $ workload_arg $ Cli.mode $ iters_arg $ cap_arg $ fuel_arg
      $ bin_arg $ json_arg)

let diff_cmd =
  let mode_a_arg =
    Arg.(value & opt string "off" & info [ "mode-a" ] ~docv:"MODE" ~doc:"reference mode")
  in
  let mode_b_arg =
    Arg.(value & opt string "blocks" & info [ "mode-b" ] ~docv:"MODE" ~doc:"candidate mode")
  in
  let inject_arg =
    Arg.(
      value & flag
      & info [ "inject-hot" ]
          ~doc:"corrupt mode-b's block cache (alias hottest entry) before the measured pass")
  in
  let context_arg =
    Arg.(value & opt int 5 & info [ "context" ] ~docv:"N" ~doc:"stream rows around the divergence")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"run two engine modes and report the first retired-instruction divergence")
    Term.(
      const diff $ Cli.port $ workload_arg $ mode_a_arg $ mode_b_arg $ iters_arg $ cap_arg
      $ fuel_arg $ inject_arg $ context_arg)

let () =
  let info =
    Cmd.info "vtrace" ~doc:"execution-trace capture, export and cross-mode diffing"
  in
  exit (Cmd.eval (Cmd.group info [ capture_cmd; diff_cmd ]))
