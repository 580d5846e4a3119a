(** Shared Chrome trace_event "JSON object format" writer (Perfetto /
    chrome://tracing loadable): vtrace's retired-instruction export
    and vprof's gauge-timeline export emit through this one code path.

    The low-level surface ({!start} .. {!finish}) appends a top-level
    object with schema/tool/metadata keys and a [traceEvents] array;
    the event emitters append "X" (complete), "i" (instant) and "C"
    (counter) events — each counter name becomes its own Perfetto
    track plotting [args.value] over [ts]. *)

type w

(** open the export: ["schema"], ["tool"], then [meta] string pairs
    and [meta_ints] int pairs in caller order, then the open
    [traceEvents] array *)
val start :
  Buffer.t ->
  tool:string ->
  schema:int ->
  meta:(string * string) list ->
  meta_ints:(string * int) list ->
  w

(** [args] is pre-rendered JSON (an object such as [{"value": 3}]) *)
val complete : w -> name:string -> ts:int -> ?dur:int -> tid:int -> args:string -> unit -> unit

val instant : w -> name:string -> ts:int -> tid:int -> args:string -> unit
val counter : w -> name:string -> ts:int -> value:int -> unit

(** close the [traceEvents] array and the top-level object *)
val finish : w -> unit

(** append the vtrace export of a {!Vmachine.Trace} ring (schema
    {!Vmachine.Trace.json_schema_version}): retired instructions as
    duration-1 "X" events on tid 1 (one [ts] tick per record ordinal),
    block dispatches on tid 2, faults/aborts/invalidations as
    instants.  [symbol] maps a simulated address to an emit-site name;
    addresses it declines render as hex. *)
val write_trace :
  Buffer.t ->
  ?symbol:(int -> string option) ->
  port:string ->
  mode:string ->
  workload:string ->
  Vmachine.Trace.t ->
  unit

(** append the merged timeline export: every retained
    {!Vmachine.Timeline} row becomes one "C" event per gauge at
    [ts =] the row's tick ordinal (counter tracks plotted against
    units of work — packets, runs), and the {!Vmachine.Telemetry}
    event ring becomes "i" events at [ts =] each event's global
    ordinal, so ring events land amid the counter samples they
    perturbed.  The export's ["tool"] is ["vprof"]. *)
val write_timeline :
  Buffer.t ->
  port:string ->
  mode:string ->
  workload:string ->
  Vmachine.Timeline.t ->
  Vmachine.Telemetry.t ->
  unit
