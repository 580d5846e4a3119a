(* Telemetry zero-overhead pin.

   The observability layer must never perturb the simulation it
   observes.  Two properties pin that down:

   - *bit identity*: simulated cycle counts, retired-instruction
     counts and icache/dcache hit/miss statistics are identical
     between a simulator built with the default (disabled) sink and
     one built with a live sink — on every port, in every engine
     mode, on the mixed-ALU loop and on the paper's Table 3 (DPF) and
     Table 4 (ASH) workloads.  The generated code run under each sink
     is also compared word for word (codegen never sees the sink;
     [Telemetry.note_gen] harvests post hoc).

   - *no steady-state allocation*: running more simulated
     instructions allocates no additional minor-heap words per
     instruction, with the sink disabled or live — the
     instrumentation is plain int-array stores.  Checked on the MIPS
     port (int register file; the 64-bit ports' Int64 registers box
     independently of telemetry).

   The latency timers (PR 10) raise the stakes on both: the simulators
   now bracket every run/compile/promote with
   [Telemetry.timer_start]/[timer_stop], so the bit-identity matrix
   below re-pins that the stopwatches never touch simulated state, and
   a dedicated case pins the disabled path of the timers and of
   [Timeline.tick] to *exactly* zero minor words — timer_start gates
   on the sink before reading the clock (the clock read would box a
   float), and a disabled timeline's tick is one increment plus a
   never-true compare. *)

open Vcodebase
module Tel = Vmachine.Telemetry

let check = Alcotest.check

(* cycles, insns, icache (hits, misses), dcache (hits, misses) *)
let quad = Alcotest.(pair int (pair int (pair (pair int int) (pair int int))))

(* each run reports its timing quad plus the words of the code it ran *)
type outcome = { stats : int * (int * ((int * int) * (int * int))); code : int array }

let pkt_addr = 0x80000
let src_addr = 0x300000
let dst_addr = 0x312000
let ash_words = 512

module type PORT = sig
  val name : string
  val run_loop : Tel.t option -> predecode:bool -> blocks:bool -> regions:bool -> outcome
  val run_table3 : Tel.t option -> predecode:bool -> blocks:bool -> regions:bool -> outcome
  val run_table4 : Tel.t option -> predecode:bool -> blocks:bool -> regions:bool -> outcome
end

module Make_port (T : Target.S) (S : Workloads.SIM) : PORT = struct
  module V = Vcode.Make (T)
  module DP = Dpf.Make (T)
  module ASH = Ash.Make (T)

  let name = T.desc.Machdesc.name

  let create telemetry ~predecode ~blocks ~regions =
    S.create ?telemetry ~predecode ~blocks ~regions Vmachine.Mconfig.dec5000

  let call_ints m ~entry vals =
    S.call m ~entry (List.map S.int vals);
    S.ret_int m

  let stats (m : S.t) =
    (m.S.cycles, (m.S.insns, (Vmachine.Cache.stats m.S.icache, Vmachine.Cache.stats m.S.dcache)))

  let install m (c : Vcode.code) =
    Vmachine.Mem.install_code m.S.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

  (* same mixed-ALU fixture as the decode/block-cache tests *)
  let gen_loop () =
    let g, args = V.lambda ~base:0x10000 ~leaf:true "%i" in
    let open V.Names in
    let acc = V.getreg_exn g ~cls:`Temp Vtype.I in
    let i = V.getreg_exn g ~cls:`Temp Vtype.I in
    seti g acc 0;
    seti g i 0;
    let top = V.genlabel g and out = V.genlabel g in
    V.label g top;
    bgei g i args.(0) out;
    addi g acc acc i;
    orii g acc acc 3;
    addii g i i 1;
    jv g top;
    V.label g out;
    reti g acc;
    V.end_gen g

  let run_loop tel ~predecode ~blocks ~regions =
    let m = create tel ~predecode ~blocks ~regions in
    let c = gen_loop () in
    install m c;
    let r1 = call_ints m ~entry:c.Vcode.entry_addr [ 500 ] in
    let r2 = call_ints m ~entry:c.Vcode.entry_addr [ 500 ] in
    check Alcotest.int (name ^ ": loop rerun agrees") r1 r2;
    { stats = stats m; code = Codebuf.to_array c.Vcode.gen.Gen.buf }

  let run_table3 tel ~predecode ~blocks ~regions =
    let c = DP.compile ~base:0x1000 ~table_base:0x200000 (Dpf.Filter.tcpip_filters 10) in
    let m = create tel ~predecode ~blocks ~regions in
    install m c.Dpf.code;
    DP.install_tables m.S.mem c;
    for k = 0 to 119 do
      let port = 1000 + (k mod 10) in
      Dpf.Packet.install m.S.mem ~addr:pkt_addr (Dpf.Packet.tcp ~dst_port:port ());
      check Alcotest.int (name ^ ": classified") (port - 1000)
        (call_ints m ~entry:c.Dpf.entry [ pkt_addr; 40 ])
    done;
    { stats = stats m; code = Codebuf.to_array c.Dpf.code.Vcode.gen.Gen.buf }

  let run_table4 tel ~predecode ~blocks ~regions =
    let ash = ASH.gen_ash ~base:0x8000 [ Ash.Copy; Ash.Checksum ] in
    let m = create tel ~predecode ~blocks ~regions in
    install m ash;
    let data = Bytes.init (4 * ash_words) (fun i -> Char.chr ((i * 131) land 0xff)) in
    Vmachine.Mem.blit_bytes m.S.mem ~addr:src_addr data;
    let r1 = call_ints m ~entry:ash.Vcode.entry_addr [ dst_addr; src_addr; ash_words ] in
    let r2 = call_ints m ~entry:ash.Vcode.entry_addr [ dst_addr; src_addr; ash_words ] in
    check Alcotest.int (name ^ ": ash rerun agrees") r1 r2;
    { stats = stats m; code = Codebuf.to_array ash.Vcode.gen.Gen.buf }
end

module Mips_port = Make_port (Vmips.Mips_backend) (Workloads.Sims.Mips)
module Sparc_port = Make_port (Vsparc.Sparc_backend) (Workloads.Sims.Sparc)
module Alpha_port = Make_port (Valpha.Alpha_backend) (Workloads.Sims.Alpha)
module Ppc_port = Make_port (Vppc.Ppc_backend) (Workloads.Sims.Ppc)

(* ------------------------------------------------------------------ *)
(* Bit identity: the full workload × port × mode matrix                *)

let identity_case (module P : PORT)
    (wname, (run : Tel.t option -> predecode:bool -> blocks:bool -> regions:bool -> outcome)) ()
    =
  List.iter
    (fun (label, (predecode, blocks, regions)) ->
      let off = run None ~predecode ~blocks ~regions in
      let live = run (Some (Tel.create ())) ~predecode ~blocks ~regions in
      let here = Printf.sprintf "%s/%s/%s: " P.name wname label in
      check quad (here ^ "cycles/insns/cache stats bit-identical") off.stats live.stats;
      check
        Alcotest.(array int)
        (here ^ "generated code words identical") off.code live.code)
    Workloads.modes

let workloads (module P : PORT) =
  [ ("alu-loop", P.run_loop); ("table3-dpf", P.run_table3); ("table4-ash", P.run_table4) ]

let identity_tests (module P : PORT) =
  List.map
    (fun w ->
      let wname, _ = w in
      Alcotest.test_case (Printf.sprintf "%s %s" P.name wname) `Quick
        (identity_case (module P) w))
    (workloads (module P))

(* ------------------------------------------------------------------ *)
(* Steady-state allocation: zero minor-heap words per simulated
   instruction, whichever sink is installed                            *)

let allocation_in_mode tel (mode, (predecode, blocks, regions)) =
  let module S = Vmips.Mips_sim in
  let m = S.create ?telemetry:tel ~predecode ~blocks ~regions Vmachine.Mconfig.test_config in
  let code =
    let module V = Vcode.Make (Vmips.Mips_backend) in
    let g, args = V.lambda ~base:0x10000 ~leaf:true "%i" in
    let open V.Names in
    let acc = V.getreg_exn g ~cls:`Temp Vtype.I in
    let i = V.getreg_exn g ~cls:`Temp Vtype.I in
    seti g acc 0;
    seti g i 0;
    let top = V.genlabel g and out = V.genlabel g in
    V.label g top;
    bgei g i args.(0) out;
    addi g acc acc i;
    orii g acc acc 3;
    addii g i i 1;
    jv g top;
    V.label g out;
    reti g acc;
    V.end_gen g
  in
  Vmachine.Mem.install_code m.S.mem ~addr:code.Vcode.base code.Vcode.gen.Gen.buf;
  let entry = code.Vcode.entry_addr in
  (* warm up past tier-up (the cold calls run in the interpreter, which
     decodes, and so allocates, each instruction): block compilation,
     closure allocation, cache fills *)
  for _ = 0 to Vmachine.Engine.hot_calls + 1 do
    S.call m ~entry [ S.Int 2000 ]
  done;
  let insns0 = m.S.insns in
  let w0 = Gc.minor_words () in
  for _ = 1 to 20 do
    S.call m ~entry [ S.Int 2000 ]
  done;
  let allocated = Gc.minor_words () -. w0 in
  let retired = m.S.insns - insns0 in
  check Alcotest.bool "ran a meaningful number of instructions" true (retired > 100_000);
  let per_insn = allocated /. float_of_int retired in
  if per_insn >= 0.01 then
    Alcotest.failf "%s: allocates %.4f minor words per simulated instruction (%.0f for %d)"
      mode per_insn allocated retired

(* every tier that predecodes (the off tier decodes, and so allocates,
   each instruction by definition) *)
let allocation_case tel () =
  List.iter (allocation_in_mode tel)
    (List.filter (fun (_, (predecode, _, _)) -> predecode) Workloads.modes)

(* the disabled stopwatch/timeline fast path: exactly zero minor words
   across 100k timer brackets and timeline ticks — not just "small per
   iteration", literally none *)
let disabled_timer_alloc_case () =
  let tel = Tel.disabled in
  let d = Tel.dist tel "probe.loop_ns" in
  let tl = Vmachine.Timeline.disabled in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    let t0 = Tel.timer_start tel in
    Tel.timer_stop tel d t0;
    Vmachine.Timeline.tick tl;
    sink := !sink + t0
  done;
  let allocated = Gc.minor_words () -. w0 in
  check Alcotest.int "disabled timer_start returns 0" 0 !sink;
  check Alcotest.int "disabled timeline records nothing" 0
    (Vmachine.Timeline.samples_seen tl);
  if allocated <> 0.0 then
    Alcotest.failf "disabled timers/timeline allocated %.0f minor words in 100k iterations"
      allocated

(* a live timer must feed the dist it brackets *)
let live_timer_case () =
  let tel = Tel.create () in
  let d = Tel.dist tel "probe.live_ns" in
  for _ = 1 to 50 do
    let t0 = Tel.timer_start tel in
    Tel.timer_stop tel d t0
  done;
  let st = Tel.dist_stats tel d in
  check Alcotest.int "live timer observed every bracket" 50 st.Tel.count;
  check Alcotest.bool "durations are non-negative" true (st.Tel.min >= 0)

let () =
  Alcotest.run "telemetry-overhead"
    [
      ("bit-identity (mips)", identity_tests (module Mips_port));
      ("bit-identity (sparc)", identity_tests (module Sparc_port));
      ("bit-identity (alpha)", identity_tests (module Alpha_port));
      ("bit-identity (ppc)", identity_tests (module Ppc_port));
      ( "steady-state allocation",
        [
          Alcotest.test_case "disabled sink" `Quick (allocation_case None);
          Alcotest.test_case "live sink" `Quick
            (allocation_case (Some (Tel.create ())));
          Alcotest.test_case "disabled timers and timeline" `Quick
            disabled_timer_alloc_case;
          Alcotest.test_case "live timer feeds its dist" `Quick live_timer_case;
        ] );
    ]
