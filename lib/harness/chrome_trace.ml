(* Shared Chrome trace_event "JSON object format" writer (Perfetto /
   chrome://tracing loadable), factored out of Trace so vtrace's
   retired-instruction export and vprof's timeline export emit through
   one code path.

   The format: a top-level object whose [traceEvents] array Perfetto
   renders and whose extra keys it keeps as metadata.  Three event
   shapes are used here: "X" (complete) events with a duration, "i"
   (instant) events, and "C" (counter) events — each counter name
   becomes its own track plotting args.value over ts. *)

module Tel = Vmachine.Telemetry
module Trace = Vmachine.Trace
module Timeline = Vmachine.Timeline

type w = { b : Buffer.t; mutable emitted : int }

(* Open the top-level object: schema and tool first, then string and
   int metadata in caller order, then the traceEvents array.  [finish]
   closes both. *)
let start b ~tool ~schema ~meta ~meta_ints =
  let str v = Report.Str v and int v = Report.Int v in
  Buffer.add_string b "{";
  List.iter
    (fun (k, v) ->
      Report.add b ~indent:0 (str k);
      Buffer.add_string b ": ";
      Report.add b ~indent:0 v;
      Buffer.add_string b ", ")
    ((("schema", int schema) :: ("tool", str tool) :: List.map (fun (k, v) -> (k, str v)) meta)
    @ List.map (fun (k, v) -> (k, int v)) meta_ints
    @ [ ("displayTimeUnit", str "ns") ]);
  Buffer.add_string b "\"traceEvents\": [";
  { b; emitted = 0 }

(* [args] is pre-rendered JSON (an object, e.g. {"value": 3}): the
   writers below own their whole arg payload, and keeping it raw keeps
   the vtrace export byte-compatible with the pre-factoring format. *)
let event w ~name ~ph ~ts ~tid ~extra ~args =
  if w.emitted > 0 then Buffer.add_string w.b ",";
  w.emitted <- w.emitted + 1;
  Buffer.add_string w.b "\n  {\"name\": ";
  Report.add w.b ~indent:0 (Report.Str name);
  Buffer.add_string w.b
    (Printf.sprintf ", \"ph\": \"%s\", \"ts\": %d, %s\"pid\": 1, \"tid\": %d, \"args\": %s}" ph
       ts extra tid args)

let complete w ~name ~ts ?(dur = 1) ~tid ~args () =
  event w ~name ~ph:"X" ~ts ~tid ~extra:(Printf.sprintf "\"dur\": %d, " dur) ~args

let instant w ~name ~ts ~tid ~args = event w ~name ~ph:"i" ~ts ~tid ~extra:"\"s\": \"t\", " ~args

let counter w ~name ~ts ~value =
  event w ~name ~ph:"C" ~ts ~tid:0 ~extra:"" ~args:(Printf.sprintf "{\"value\": %d}" value)

let finish w = Buffer.add_string w.b "\n]}\n"

(* ------------------------------------------------------------------ *)
(* vtrace: the retired-instruction stream                              *)

(* Retired instructions become "X" events of duration 1 on tid 1, one
   tick per record ordinal, so the instruction stream reads
   left-to-right on the timeline; block dispatches land on tid 2;
   faults/aborts/invalidations are instants.  [symbol] maps a
   simulated address to an emit-site name (from {!Vcodebase.Gen}
   provenance); addresses it declines render as hex.  Schema:
   {!Trace.json_schema_version}. *)
let write_trace b ?(symbol = fun _ -> None) ~port ~mode ~workload t =
  let name_of addr =
    match symbol addr with Some s -> s | None -> Printf.sprintf "0x%x" addr
  in
  let w =
    start b ~tool:"vtrace" ~schema:Trace.json_schema_version
      ~meta:[ ("port", port); ("mode", mode); ("workload", workload) ]
      ~meta_ints:[ ("seen", Trace.seen t); ("dropped", Trace.dropped t) ]
  in
  Array.iteri
    (fun ts (k, payload) ->
      let args = Printf.sprintf "{\"addr\": \"0x%x\", \"kind\": \"%s\"}" payload (Trace.kind_name k) in
      match k with
      | Trace.Retire -> complete w ~name:(name_of payload) ~ts ~tid:1 ~args ()
      | Trace.Block_enter -> complete w ~name:(name_of payload) ~ts ~tid:2 ~args ()
      | Trace.Fault | Trace.Smc_abort | Trace.Inval | Trace.Mark ->
        instant w ~name:(Trace.kind_name k) ~ts ~tid:1 ~args)
    (Trace.records t);
  finish w

(* ------------------------------------------------------------------ *)
(* vprof: the merged gauge-timeline + telemetry-event export           *)

let timeline_schema_version = 1

(* Each retained timeline row becomes one "C" event per gauge at
   ts = the row's tick ordinal (so counter tracks are plotted against
   units of work — packets, runs); the Telemetry event ring becomes
   "i" events at ts = the event's global ordinal.  The two share the
   work-ordinal axis: for the router one packet is one tick, so ring
   events land amid the counter samples they perturbed. *)
let write_timeline b ~port ~mode ~workload tl tel =
  let w =
    start b ~tool:"vprof" ~schema:timeline_schema_version
      ~meta:[ ("port", port); ("mode", mode); ("workload", workload) ]
      ~meta_ints:
        [
          ("timeline.ticks", Timeline.ticks tl);
          ("timeline.samples", Timeline.samples_seen tl);
          ("timeline.dropped", Timeline.dropped tl);
          ("timeline.every", Timeline.every tl);
          ("events.seen", Tel.events_seen tel);
        ]
  in
  let names = Array.of_list (Timeline.gauge_names tl) in
  Timeline.iter tl (fun ~tick ~values ->
      Array.iteri (fun g v -> counter w ~name:names.(g) ~ts:tick ~value:v) values);
  let first = Tel.events_seen tel - List.length (Tel.events tel) in
  List.iteri
    (fun j (k, a, bb) ->
      instant w ~name:(Tel.kind_name k) ~ts:(first + j) ~tid:1
        ~args:(Printf.sprintf "{\"a\": \"0x%x\", \"b\": %d, \"kind\": \"%s\"}" a bb (Tel.kind_name k)))
    (Tel.events tel);
  finish w
