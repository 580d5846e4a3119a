(** The shared simulator probe: the one instrumentation surface all
    four CPU simulators report through, so the ports cannot drift.
    Registers per-mode retired-instruction and fault counters plus the
    block-execution/chain statistics against a {!Telemetry} sink; the
    calls the simulators make are allocation-free stores. *)

type t

(** [trace] additionally mirrors faults and SMC aborts into a
    {!Trace} ring as [Fault]/[Smc_abort] markers, so the trace streams
    carry the same exceptional events the telemetry ring does;
    defaults to the branch-free disabled sink *)
val create :
  ?trace:Trace.t ->
  Telemetry.t ->
  port:string ->
  predecode:bool ->
  blocks:bool ->
  regions:bool ->
  t

(** whether the underlying sink records anything; simulators use this
    to skip the per-block instrumentation calls entirely *)
val enabled : t -> bool

(** per-run latency stopwatch feeding [<port>.run_ns]: [run_start] at
    run entry, [run_done] on every exit path (the sims call it from
    their shared [finish], so exceptional exits are timed too).  On a
    disabled sink neither touches the clock. *)
val run_start : t -> int

val run_done : t -> int -> unit

(** credit [n] retired instructions to [<port>.retired.<mode>] — bulk,
    at run exit, mirroring the simulators' cycle reconciliation *)
val retired : t -> int -> unit

(** a fault (Machine_error / Mem.Fault) escaped the run loop at [pc]:
    bumps [<port>.faults] and records a [Trap] event *)
val fault : t -> pc:int -> unit

(** a running block or region pass aborted via the dirty/[Retired]
    protocol after retiring instruction [i], at address [pc], of the run
    entered at [entry]: bumps [<port>.smc_retires], records a
    [Block_abort] event and an [Smc_abort] trace marker at [pc] *)
val abort : t -> entry:int -> i:int -> pc:int -> unit

(** one compiled-block execution (chains and self-loops included);
    call only when [enabled] *)
val block_exec : t -> entry:int -> unit

(** one compiled-region dispatch (tier 3; chains included); call only
    when [enabled] *)
val region_exec : t -> entry:int -> unit

(** a specialized region took its side exit after retiring instruction
    [i] of the region at [entry]: bumps [<port>.region_side_exits] and
    records a [Region_side_exit] event *)
val side_exit : t -> entry:int -> i:int -> unit

(** one call run in the tier-up cold phase: bumps [<port>.cold_calls] *)
val cold_call : t -> unit

(** an entry crossed the hot-call threshold, or a cold call escaped
    past its instruction budget: bumps [<port>.tier_ups] *)
val tier_up : t -> unit

(** close the current chained run and record its length in
    [<port>.chain_len]; call at each dispatch-loop re-entry and at run
    exit *)
val chain_flush : t -> unit
