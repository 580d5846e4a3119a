(* vprof: the profiler for the simulated evaluation workloads.

   Runs one workload on one of the four simulated ports with an enabled
   {!Vmachine.Telemetry} sink and a {!Vmachine.Timeline} attached, and
   prints one report: the hottest compiled superblocks (per-entry
   execution counts from {!Vmachine.Block_cache}), the per-tier
   dispatch profile, the code-region registry and its hottest tenants
   (router), every registered counter, every distribution with
   interpolated p50/p90/p99/p999 and a log2-bucket sparkline, and the
   timeline accounting.  The *_ns distributions are host-clock
   latencies: server install/replace/evict, per-packet classification,
   per-call simulator runs, block compiles, region promotions.

   [--json FILE] writes the same data machine-readably (schema below,
   validated by bench/json_check.exe); [--perfetto FILE] writes the
   merged Chrome trace_event export (one counter track per timeline
   gauge plus the telemetry event ring as instants), loadable in
   Perfetto / chrome://tracing (see {!Chrome_trace.write_timeline}).

   Examples:
     vprof                                    # dpf-classify, mips, blocks
     vprof -w table4-ash -p sparc -m predecode
     vprof -w alu-loop -p alpha --top 5 --json prof.json
     vprof -w router --iters 20000 --json r.json --perfetto r.perfetto.json
     vprof -w asm:josephus -m regions --runs 200
     vprof -w router -m blocks --hot-calls 16 # tier up after 16 cold calls

   The port/workload/mode vocabulary and the workload fixtures live in
   {!Workloads} (lib/harness), shared with bench/main.exe and
   bin/vtrace.exe.  EXPERIMENTS.md ("Reading a vprof report" and
   "Router tail latency with vprof") walks through both halves of the
   report. *)

module Tel = Vmachine.Telemetry
module Timeline = Vmachine.Timeline
module W = Workloads
module R = Report

(* schema version of the --json document; bump when keys change.
   2: added the per-tier "tiers" object (block/region dispatch counts,
   promotions, side exits and the side-exit rate) and the "regions"
   mode.
   3: added the "registry" object (code-region registry and slab-arena
   gauges from the server.* counters) and the "router" workload.
   4: dist objects grew interpolated "p50"/"p90"/"p99"/"p999" keys
   (from {!Vmachine.Telemetry.quantile_of_stats} over the log2
   buckets), matching the latency timers that now feed *_ns dists.
   5: folded in the former vstat report: the "runs" count, the
   per-tenant "tenants" array (router) and the "timeline" accounting
   object; written through {!Report}, so "side_exit_rate" is a
   shortest-form number rather than four fixed decimals.
   6: the "tiers" object gained the tier-up counters "cold_calls" and
   "tier_ups"; the top level gained "hot_calls", the tier-up threshold
   the run used. *)
let json_schema_version = 6

(* timeline sampling period, in ticks (packets on the router, runs
   otherwise) *)
let timeline_every = 64

type outcome = {
  insns : int;
  cycles : int;
  hot : (int * int) list; (* all entries, hottest first *)
  disasm : int -> string; (* first instruction at an entry address *)
  tenants : (int * int * int * int) list; (* key, packets, total_ns, max_ns *)
  tel : Tel.t;
  tl : Timeline.t;
}

(* A profile section is rows of (JSON key, report label, counter). *)

(* the four-tier dispatch profile, from the port's counters *)
let tier_rows =
  [
    (* tier-up: calls left in the interpreter, entries gone up *)
    ("cold_calls", "cold calls (interpreted)", "cold_calls");
    ("tier_ups", "tier-ups", "tier_ups");
    ("block_execs", "block execs (tier 2)", "block_execs");
    ("block_chains", "block chains", "block_chains");
    ("region_execs", "region execs (tier 3)", "region_execs");
    ("region_promotions", "region promotions", "rc.promotions");
    ("region_invalidations", "region invalidations", "rc.invalidations");
    (* specialized branches that went the other way *)
    ("region_side_exits", "region side exits", "region_side_exits");
  ]

(* the code-region registry profile (router workload), from the
   server.* counters the {!Vserver.Server} instance registers; all zero
   for workloads that don't run a registry *)
let registry_rows =
  [
    ("installs", "installs", "install");
    ("replaces", "replaces", "replace");
    ("evictions", "evictions", "evict");
    (* forced by a full arena or max_live *)
    ("capacity_evictions", "capacity evictions", "evict_capacity");
    ("live_regions", "live regions", "live_regions");
    ("slabs_live", "arena slabs live", "arena.live_slabs");
    ("slabs_free", "arena slabs free", "arena.free_slabs");
    ("bump_words", "arena bump words", "arena.bump_words");
    ("lookup_hits", "lookup hits", "lookup.hit");
    ("lookup_misses", "lookup misses", "lookup.miss");
  ]

let count tel name = Option.value ~default:0 (Tel.find tel name)

let section tel ~prefix rows =
  List.map (fun (key, label, c) -> (key, label, count tel (prefix ^ c))) rows

let side_exit_rate tel ~port =
  let execs = count tel (port ^ ".region_execs") in
  if execs = 0 then 0.0
  else 100.0 *. float_of_int (count tel (port ^ ".region_side_exits")) /. float_of_int execs

let measure (module P : W.PORT) ~workload ~mode ~hot_calls ~iters ~runs ~top =
  let predecode, blocks, regions = W.mode_exn ~tool:"vprof" mode in
  let tel = Tel.create () in
  let tl = Timeline.create ~every:timeline_every ~rows:4096 () in
  let m = P.create ~hot_calls ~telemetry:tel ~predecode ~blocks ~regions () in
  let prep = P.prepare ~tel ~timeline:tl m ~workload ~iters in
  Timeline.sample_now tl;
  for _ = 1 to runs do
    prep.W.run ()
  done;
  Timeline.sample_now tl;
  {
    insns = P.insns m;
    cycles = P.cycles m;
    hot = P.hot_blocks ~limit:max_int m;
    disasm = (fun addr -> P.disasm ~word:(Vmachine.Mem.read_u32 (P.mem m) addr) ~addr);
    tenants = prep.W.top ~k:top;
    tel;
    tl;
  }

let print_rows rows = List.iter (fun (_, label, v) -> Printf.printf "  %-28s %12d\n" label v) rows

let report ~port ~workload ~mode ~hot_calls ~iters ~runs ~top o =
  Printf.printf "vprof: %s on %s, %s mode (%d iterations%s, tier-up after %d calls)\n" workload
    port mode iters
    (if runs > 1 then Printf.sprintf ", %d runs" runs else "")
    hot_calls;
  Printf.printf "  %d simulated instructions retired in %d cycles\n\n" o.insns o.cycles;
  (* hottest compiled superblocks *)
  (match o.hot with
  | [] ->
    Printf.printf "hot blocks: none (superblock mode off or nothing compiled)\n"
  | all ->
    let total = List.fold_left (fun a (_, n) -> a + n) 0 all in
    let shown = List.filteri (fun i _ -> i < top) all in
    Printf.printf "hot blocks (top %d of %d entries, %d executions):\n"
      (List.length shown) (List.length all) total;
    Printf.printf "  %-10s %12s %7s  %s\n" "entry" "execs" "share" "first instruction";
    List.iter
      (fun (addr, n) ->
        Printf.printf "  0x%08x %12d %6.1f%%  %s\n" addr n
          (100.0 *. float_of_int n /. float_of_int total)
          (o.disasm addr))
      shown);
  Printf.printf "\ntiers:\n";
  print_rows (section o.tel ~prefix:(port ^ ".") tier_rows);
  Printf.printf "  %-28s %11.1f%% of region execs\n" "side-exit rate"
    (side_exit_rate o.tel ~port);
  if count o.tel "server.install" > 0 || count o.tel "server.live_regions" > 0 then begin
    Printf.printf "\nregistry:\n";
    print_rows (section o.tel ~prefix:"server." registry_rows);
    Printf.printf "\nhottest tenants (top %d of keys seen, by total classification time):\n" top;
    if o.tenants = [] then Printf.printf "  none (no packets classified)\n"
    else begin
      Printf.printf "  %-10s %9s %12s %9s %9s\n" "key" "packets" "total_ns" "avg_ns" "max_ns";
      List.iter
        (fun (key, pkts, total, mx) ->
          Printf.printf "  %-10d %9d %12d %9d %9d\n" key pkts total (total / max 1 pkts) mx)
        o.tenants
    end
  end;
  (* counters, largest first *)
  let cs = ref [] in
  Tel.iter_counters o.tel (fun k v -> if v > 0 then cs := (k, v) :: !cs);
  Printf.printf "\ncounters (nonzero, largest first):\n";
  List.iter
    (fun (k, v) -> Printf.printf "  %-36s %12d\n" k v)
    (List.stable_sort (fun (_, a) (_, b) -> compare b a) (List.rev !cs));
  (* distribution summaries, with interpolated tail percentiles and a
     log2-bucket sparkline *)
  Printf.printf "\ndistributions:\n";
  Tel.iter_dists o.tel (fun k (st : Tel.dist_stats) ->
      if st.Tel.count > 0 then begin
        let q = Tel.quantile_of_stats st in
        Printf.printf
          "  %-28s count %-9d min %-6d max %-6d avg %-9.1f p50 %-6d p90 %-6d p99 %-6d p999 %d\n"
          k st.Tel.count st.Tel.min st.Tel.max
          (float_of_int st.Tel.sum /. float_of_int st.Tel.count)
          (q 0.5) (q 0.9) (q 0.99) (q 0.999);
        Printf.printf "  %-28s %s\n" "" (R.spark st)
      end);
  Printf.printf
    "\ntimeline: %d samples (%d retained, %d dropped), every %d ticks, %d ticks total\n"
    (Timeline.samples_seen o.tl) (Timeline.retained o.tl) (Timeline.dropped o.tl)
    (Timeline.every o.tl) (Timeline.ticks o.tl);
  Printf.printf "  gauges: %s\n" (String.concat ", " (Timeline.gauge_names o.tl));
  Printf.printf "events recorded: %d\n" (Tel.events_seen o.tel)

let write_json path ~port ~workload ~mode ~hot_calls ~iters ~runs ~top o =
  let ints rows = List.map (fun (k, _, v) -> (k, R.Int v)) rows in
  let tl = o.tl in
  R.to_file path
    (R.Obj
       ([
          ("schema", R.Int json_schema_version);
          ("tool", R.Str "vprof");
          ("port", R.Str port);
          ("mode", R.Str mode);
          ("hot_calls", R.Int hot_calls);
          ("workload", R.Str workload);
          ("iters", R.Int iters);
          ("runs", R.Int runs);
          ("insns", R.Int o.insns);
          ("cycles", R.Int o.cycles);
          ( "hot_blocks",
            R.Arr
              (List.filteri (fun i _ -> i < top) o.hot
              |> List.map (fun (addr, n) ->
                     R.Obj
                       [ ("entry", R.Int addr); ("execs", R.Int n); ("disasm", R.Str (o.disasm addr)) ]))
          );
          ( "tiers",
            R.Obj
              (ints (section o.tel ~prefix:(port ^ ".") tier_rows)
              @ [ ("side_exit_rate", R.Float (side_exit_rate o.tel ~port)) ]) );
          ("registry", R.Obj (ints (section o.tel ~prefix:"server." registry_rows)));
        ]
       @ R.telemetry o.tel
       @ [
           ( "tenants",
             R.Arr
               (List.map
                  (fun (key, pkts, total, mx) ->
                    R.Obj
                      [ ("key", R.Int key); ("packets", R.Int pkts); ("total_ns", R.Int total);
                        ("max_ns", R.Int mx) ])
                  o.tenants) );
           ( "timeline",
             R.Obj
               [
                 ("every", R.Int (Timeline.every tl));
                 ("ticks", R.Int (Timeline.ticks tl));
                 ("samples", R.Int (Timeline.samples_seen tl));
                 ("retained", R.Int (Timeline.retained tl));
                 ("dropped", R.Int (Timeline.dropped tl));
                 ("gauges", R.Arr (List.map (fun n -> R.Str n) (Timeline.gauge_names tl)));
               ] );
         ]));
  Printf.printf "\nwrote %s\n" path

let write_perfetto path ~port ~workload ~mode o =
  let b = Buffer.create 65536 in
  Chrome_trace.write_timeline b ~port ~mode ~workload o.tl o.tel;
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc;
  let gauges = List.length (Timeline.gauge_names o.tl) in
  Printf.printf "wrote %s (%d counter samples over %d gauges)\n" path
    (Timeline.retained o.tl * gauges) gauges

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

open Cmdliner

let runs_arg =
  Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N" ~doc:"workload passes to run")

let top_arg =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"K" ~doc:"hot blocks and (router) hottest tenants to report")

let hot_calls_arg =
  Arg.(
    value
    & opt int Vmachine.Engine.hot_calls
    & info [ "hot-calls" ] ~docv:"N"
        ~doc:
          "tier-up threshold: calls an entry runs in the interpreter before the mode's tier \
           translates it (0: translate on the first call)")

let file_arg name doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let main port workload mode hot_calls iters runs top json perfetto =
  let p = W.port_exn ~tool:"vprof" port in
  let workload = W.workload_exn ~tool:"vprof" p workload in
  if hot_calls < 0 then begin
    Printf.eprintf "vprof: --hot-calls must be at least 0 (got %d)\n" hot_calls;
    exit 1
  end;
  let runs = max 1 runs in
  let o = measure p ~workload ~mode ~hot_calls ~iters ~runs ~top in
  report ~port ~workload ~mode ~hot_calls ~iters ~runs ~top o;
  Option.iter
    (fun path -> write_json path ~port ~workload ~mode ~hot_calls ~iters ~runs ~top o)
    json;
  Option.iter (fun path -> write_perfetto path ~port ~workload ~mode o) perfetto

let () =
  let info = Cmd.info "vprof" ~doc:"telemetry profiler for the simulated workloads" in
  let term =
    Term.(
      const main $ Cli.port
      $ Cli.workload ~default:"dpf-classify"
      $ Cli.mode $ hot_calls_arg
      $ Cli.iters ~default:1000
      $ runs_arg $ top_arg
      $ file_arg "json"
          (Printf.sprintf "also write the report as JSON (schema %d)" json_schema_version)
      $ file_arg "perfetto"
          "write the counter/instant timeline as Chrome trace_event JSON (Perfetto)")
  in
  exit (Cmd.eval (Cmd.v info term))
