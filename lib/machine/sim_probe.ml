(* The shared simulator probe: one instrumentation surface used by all
   four CPU simulators, so the ports cannot drift in what or how they
   report.  A probe is created once per simulator instance against a
   {!Telemetry} sink with the port's name and engine mode; every
   counter and distribution id is registered up front, so the calls the
   simulators make are branch-free stores (or, on the per-block path,
   one [enabled] test around a handful of stores).

   Counter names:
     <port>.retired.<mode>   instructions retired (bulk, at run exit)
     <port>.faults           Machine_error / Mem.Fault escapes
     <port>.smc_retires      blocks aborted mid-run by the Retired protocol
     <port>.block_execs      compiled-block executions (chains included)
     <port>.block_chains     direct block-to-block transitions
     <port>.region_execs     compiled-region dispatches (tier 3)
     <port>.region_side_exits  specialized-trace side exits taken
     <port>.cold_calls       calls run in the tier-up cold phase
     <port>.tier_ups         entries crossing the hot-call threshold,
                             plus cold calls escaping past their budget
   Distributions:
     <port>.chain_len        blocks executed per dispatch-loop entry
     <port>.run_ns           host wall-clock nanoseconds per run call *)

type t = {
  tel : Telemetry.t;
  tr : Trace.t; (* fault/abort markers; the disabled sink is scratch *)
  enabled : bool;
  retired : Telemetry.counter;
  faults : Telemetry.counter;
  smc_retires : Telemetry.counter;
  block_execs : Telemetry.counter;
  block_chains : Telemetry.counter;
  region_execs : Telemetry.counter;
  region_side_exits : Telemetry.counter;
  cold_calls : Telemetry.counter;
  tier_ups : Telemetry.counter;
  chain_len : Telemetry.dist;
  run_ns : Telemetry.dist;
  mutable run_len : int; (* blocks executed since the last dispatch *)
}

let mode_name ~predecode ~blocks ~regions =
  if regions then "regions"
  else if blocks then "blocks"
  else if predecode then "predecode"
  else "off"

let create ?(trace = Trace.disabled) tel ~port ~predecode ~blocks ~regions =
  {
    tel;
    tr = trace;
    enabled = Telemetry.is_enabled tel;
    retired =
      Telemetry.counter tel
        (port ^ ".retired." ^ mode_name ~predecode ~blocks ~regions);
    faults = Telemetry.counter tel (port ^ ".faults");
    smc_retires = Telemetry.counter tel (port ^ ".smc_retires");
    block_execs = Telemetry.counter tel (port ^ ".block_execs");
    block_chains = Telemetry.counter tel (port ^ ".block_chains");
    region_execs = Telemetry.counter tel (port ^ ".region_execs");
    region_side_exits = Telemetry.counter tel (port ^ ".region_side_exits");
    cold_calls = Telemetry.counter tel (port ^ ".cold_calls");
    tier_ups = Telemetry.counter tel (port ^ ".tier_ups");
    chain_len = Telemetry.dist tel (port ^ ".chain_len");
    run_ns = Telemetry.dist tel (port ^ ".run_ns");
    run_len = 0;
  }

let enabled p = p.enabled

(* per-run latency: [run_start] at run entry, [run_done] in the run's
   exit path (normal and exceptional), observing the host-time delta
   into <port>.run_ns.  Timers gate on the enabled flag inside
   Telemetry, so the disabled path never reads the clock. *)
let[@inline] run_start p = Telemetry.timer_start p.tel
let[@inline] run_done p t0 = Telemetry.timer_stop p.tel p.run_ns t0

(* bulk, at run exit (normal or exceptional): the retired-instruction
   delta the simulator just reconciled into its cycle count *)
let retired p n = Telemetry.add p.tel p.retired n

(* a fault escaped the run loop *)
let fault p ~pc =
  Telemetry.bump p.tel p.faults;
  Telemetry.event p.tel Telemetry.Trap ~a:pc ~b:0;
  Trace.mark p.tr Trace.Fault pc

(* a running block or region pass aborted via the dirty/Retired
   protocol after retiring instruction [i] (at address [pc]) of the
   run entered at [entry]; a region's constituent blocks need not be
   adjacent, so the engine supplies the real address *)
let abort p ~entry ~i ~pc =
  Telemetry.bump p.tel p.smc_retires;
  Telemetry.event p.tel Telemetry.Block_abort ~a:entry ~b:i;
  Trace.mark p.tr Trace.Smc_abort pc

(* one compiled-block execution ([exec_chain] entry, self-loops
   included); only called when [enabled] *)
let block_exec p ~entry =
  Telemetry.bump p.tel p.block_execs;
  p.run_len <- p.run_len + 1;
  if p.run_len > 1 then begin
    Telemetry.bump p.tel p.block_chains;
    Telemetry.event p.tel Telemetry.Block_chain ~a:entry ~b:p.run_len
  end

(* one compiled-region dispatch (tier 3); counts toward the chained-run
   length like a block execution; only called when [enabled] *)
let region_exec p ~entry =
  Telemetry.bump p.tel p.region_execs;
  p.run_len <- p.run_len + 1;
  if p.run_len > 1 then begin
    Telemetry.bump p.tel p.block_chains;
    Telemetry.event p.tel Telemetry.Block_chain ~a:entry ~b:p.run_len
  end

(* a specialized region took its side exit after retiring instruction
   [i] of the region at [entry] *)
let side_exit p ~entry ~i =
  Telemetry.bump p.tel p.region_side_exits;
  Telemetry.event p.tel Telemetry.Region_side_exit ~a:entry ~b:i

(* the tier-up policy: one call run cold, and one entry or cold call
   going up to the translating tier *)
let[@inline] cold_call p = Telemetry.bump p.tel p.cold_calls
let[@inline] tier_up p = Telemetry.bump p.tel p.tier_ups

(* close the current chained run (next dispatch-loop iteration or run
   exit): record its length *)
let chain_flush p =
  if p.run_len > 0 then begin
    Telemetry.observe p.tel p.chain_len p.run_len;
    p.run_len <- 0
  end
