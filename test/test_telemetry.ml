(* Telemetry exactness tests.

   The observability layer (Vmachine.Telemetry + Vmachine.Sim_probe)
   mirrors state the system already keeps — retired-instruction counts,
   Block_cache/Decode_cache statistics, Gen's per-opcode emission
   table — so every mirrored number can be checked for exact agreement
   with its source of truth:

   - the Table 3 DPF workload on all four ports: the per-mode retired
     counter equals the simulator's own [insns]; the block-compile /
     invalidation / predecode-fill counters equal the caches' [stats];
   - per-opcode emission counts harvested by [Telemetry.note_gen]
     partition [Gen.insn_count] exactly, both on a hand-built program
     with known counts and on every function of a real tcc program;
   - the structured event ring records compiles, and the disabled sink
     records nothing. *)

open Vcodebase
module Tel = Vmachine.Telemetry

let check = Alcotest.check

let get tel name =
  match Tel.find tel name with
  | Some v -> v
  | None -> Alcotest.failf "counter %S not registered" name

(* ------------------------------------------------------------------ *)
(* Per-port glue: run the Table 3 DPF workload against a given sink    *)

module type PORT = sig
  type sim

  val name : string
  val run_table3 : Tel.t -> predecode:bool -> blocks:bool -> regions:bool -> packets:int -> sim
  val insns : sim -> int
  val bc_stats : sim -> int * int
  val pdc_stats : sim -> int * int
end

module Make_port (T : Target.S) (S : Workloads.SIM) : PORT = struct
  module DP = Dpf.Make (T)

  type sim = S.t

  let name = T.desc.Machdesc.name
  let insns (m : sim) = m.S.insns
  let bc_stats (m : sim) = Vmachine.Block_cache.stats m.S.bc
  let pdc_stats (m : sim) = Vmachine.Decode_cache.stats m.S.pdc
  let pkt_addr = 0x80000

  let call_ints m ~entry vals =
    S.call m ~entry (List.map S.int vals);
    S.ret_int m

  let run_table3 telemetry ~predecode ~blocks ~regions ~packets =
    let c = DP.compile ~base:0x1000 ~table_base:0x200000 (Dpf.Filter.tcpip_filters 10) in
    let m = S.create ~predecode ~blocks ~regions ~hot_calls:0 ~telemetry Vmachine.Mconfig.dec5000 in
    Vmachine.Mem.install_code m.S.mem ~addr:c.Dpf.code.Vcode.base c.Dpf.code.Vcode.gen.Gen.buf;
    DP.install_tables m.S.mem c;
    for k = 0 to packets - 1 do
      let port = 1000 + (k mod 10) in
      let pkt = Dpf.Packet.to_bytes (Dpf.Packet.tcp ~dst_port:port ()) in
      Vmachine.Mem.blit_bytes m.S.mem ~addr:pkt_addr pkt;
      check Alcotest.int (name ^ ": classified") (port - 1000)
        (call_ints m ~entry:c.Dpf.entry [ pkt_addr; Bytes.length pkt ])
    done;
    m
end

module Mips_port = Make_port (Vmips.Mips_backend) (Workloads.Sims.Mips)
module Sparc_port = Make_port (Vsparc.Sparc_backend) (Workloads.Sims.Sparc)
module Alpha_port = Make_port (Valpha.Alpha_backend) (Workloads.Sims.Alpha)
module Ppc_port = Make_port (Vppc.Ppc_backend) (Workloads.Sims.Ppc)

(* ------------------------------------------------------------------ *)
(* Simulator counters mirror the sources of truth, on every port and
   in every engine mode                                                *)

let exact_port_case (module P : PORT) () =
  List.iter
    (fun (mode, (predecode, blocks, regions)) ->
      let tel = Tel.create () in
      let m = P.run_table3 tel ~predecode ~blocks ~regions ~packets:60 in
      let here = Printf.sprintf "%s/%s: " P.name mode in
      (* retired instructions land on the one per-mode counter *)
      check Alcotest.int (here ^ "retired counter equals sim insns") (P.insns m)
        (get tel (Printf.sprintf "%s.retired.%s" P.name mode));
      List.iter
        (fun (other, _) ->
          if other <> mode then
            (* the probe registers only its own mode's counter *)
            match Tel.find tel (Printf.sprintf "%s.retired.%s" P.name other) with
            | None | Some 0 -> ()
            | Some v ->
              Alcotest.failf "%sretirement credited to mode %s (%d)" here other v)
        Workloads.modes;
      (* cache counters mirror the caches' own stats *)
      let compiles, invals = P.bc_stats m in
      check Alcotest.int (here ^ "bc.compiles mirrors Block_cache.stats") compiles
        (get tel (P.name ^ ".bc.compiles"));
      check Alcotest.int (here ^ "bc.invalidations mirrors Block_cache.stats") invals
        (get tel (P.name ^ ".bc.invalidations"));
      let fills, pinvals = P.pdc_stats m in
      check Alcotest.int (here ^ "pdc.fills mirrors Decode_cache.stats") fills
        (get tel (P.name ^ ".pdc.fills"));
      check Alcotest.int (here ^ "pdc.invalidations mirrors Decode_cache.stats") pinvals
        (get tel (P.name ^ ".pdc.invalidations"));
      (* mode-conditional structure *)
      if blocks then begin
        check Alcotest.bool (here ^ "blocks compiled") true (compiles > 0);
        check Alcotest.bool (here ^ "block executions recorded") true
          (get tel (P.name ^ ".block_execs") > 0);
        let d = Tel.dist_stats tel (Tel.dist tel (P.name ^ ".chain_len")) in
        check Alcotest.bool (here ^ "chain lengths observed") true (d.Tel.count > 0);
        (* the long run floods the bounded ring with chain events... *)
        check Alcotest.bool (here ^ "chain events in the ring") true
          (List.exists (fun (k, _, _) -> k = Tel.Block_chain) (Tel.events tel));
        (* ...so pin compile events on a short run that fits in it *)
        let tel1 = Tel.create () in
        ignore (P.run_table3 tel1 ~predecode ~blocks ~regions ~packets:1);
        check Alcotest.bool (here ^ "compile events in the ring") true
          (List.exists (fun (k, _, _) -> k = Tel.Block_compile) (Tel.events tel1))
      end
      else begin
        check Alcotest.int (here ^ "no block execs outside blocks mode") 0
          (get tel (P.name ^ ".block_execs"));
        check Alcotest.int (here ^ "no compiles outside blocks mode") 0 compiles
      end;
      if not predecode then
        check Alcotest.int (here ^ "no predecode fills with predecode off") 0 fills)
    Workloads.modes

let test_exact_mips () = exact_port_case (module Mips_port) ()
let test_exact_sparc () = exact_port_case (module Sparc_port) ()
let test_exact_alpha () = exact_port_case (module Alpha_port) ()
let test_exact_ppc () = exact_port_case (module Ppc_port) ()

(* ------------------------------------------------------------------ *)
(* Per-opcode emission counts                                          *)

module V = Vcode.Make (Vmips.Mips_backend)

(* a hand-built program with known exact counts *)
let test_known_program_counts () =
  let g, args = V.lambda ~base:0x1000 ~leaf:true "%i" in
  check Alcotest.int "fresh generator counts nothing" 0 g.Gen.insn_count;
  V.arith_imm g Op.Add Vtype.I args.(0) args.(0) 1;
  V.arith_imm g Op.Add Vtype.I args.(0) args.(0) 2;
  V.arith g Op.Sub Vtype.I args.(0) args.(0) args.(0);
  V.ret g Vtype.I (Some args.(0));
  let code = V.end_gen g in
  let g = code.Vcode.gen in
  check Alcotest.int "two addi in the addi slot" 2 (Gen.op_count g (Opk.arith_imm Op.Add));
  check Alcotest.int "one sub in the sub slot" 1 (Gen.op_count g (Opk.arith Op.Sub));
  check Alcotest.int "the ret is counted" 1 (Gen.op_count g Opk.ret);
  check Alcotest.int "insn_count is their sum" 4 g.Gen.insn_count;
  let tel = Tel.create () in
  Tel.note_gen tel ~prefix:"k" g;
  check Alcotest.(option int) "harvested emit.addi" (Some 2) (Tel.find tel "k.emit.addi");
  check Alcotest.(option int) "harvested emit.sub" (Some 1) (Tel.find tel "k.emit.sub");
  check Alcotest.(option int) "harvested emit.ret" (Some 1) (Tel.find tel "k.emit.ret");
  check Alcotest.(option int) "harvested insns" (Some 4) (Tel.find tel "k.insns");
  check
    Alcotest.(option int)
    "harvested code words" (Some (Codebuf.length g.Gen.buf)) (Tel.find tel "k.code_words")

(* every function of a real tcc program: the per-opcode table always
   partitions the instruction count, and note_gen harvests the totals *)
let test_tcc_program_counts () =
  let module TC = Tcc.Tcc_compile.Make (Vmips.Mips_backend) in
  let prog = TC.compile ~base:0x8000 Dpf.Mpf.source in
  List.iter
    (fun (fname, (code : Vcode.code)) ->
      let g = code.Vcode.gen in
      let s = ref 0 in
      for k = 0 to Opk.slots - 1 do
        s := !s + Gen.op_count g k
      done;
      check Alcotest.int (fname ^ ": opcode slots partition insn_count") g.Gen.insn_count !s)
    prog.TC.funcs;
  let tel = Tel.create () in
  List.iter (fun (_, (c : Vcode.code)) -> Tel.note_gen tel ~prefix:"mpf" c.Vcode.gen)
    prog.TC.funcs;
  let total =
    List.fold_left (fun a (_, (c : Vcode.code)) -> a + c.Vcode.gen.Gen.insn_count) 0
      prog.TC.funcs
  in
  check Alcotest.int "mpf.insns accumulates every function" total (get tel "mpf.insns");
  let emit_sum = ref 0 in
  Tel.iter_counters tel (fun k v ->
      if String.length k > 9 && String.sub k 0 9 = "mpf.emit." then emit_sum := !emit_sum + v);
  check Alcotest.int "per-opcode counters partition the total" total !emit_sum

(* ------------------------------------------------------------------ *)
(* Sink mechanics                                                      *)

let test_sink_basics () =
  let tel = Tel.create () in
  let a = Tel.counter tel "a" in
  let a' = Tel.counter tel "a" in
  let b = Tel.counter tel "b" in
  check Alcotest.bool "registration is idempotent" true (a = a');
  check Alcotest.bool "names get distinct ids" true (a <> b);
  Tel.bump tel a;
  Tel.add tel a 41;
  check Alcotest.int "bump+add" 42 (Tel.value tel a);
  check Alcotest.(option int) "find by name" (Some 42) (Tel.find tel "a");
  check Alcotest.(option int) "untouched counter reads 0" (Some 0) (Tel.find tel "b");
  let d = Tel.dist tel "d" in
  List.iter (fun v -> Tel.observe tel d v) [ 1; 2; 3; 100 ];
  let st = Tel.dist_stats tel d in
  check Alcotest.int "dist count" 4 st.Tel.count;
  check Alcotest.int "dist sum" 106 st.Tel.sum;
  check Alcotest.int "dist min" 1 st.Tel.min;
  check Alcotest.int "dist max" 100 st.Tel.max;
  Tel.event tel Tel.Trap ~a:0x44 ~b:0;
  check Alcotest.int "event recorded" 1 (Tel.events_seen tel);
  (match Tel.events tel with
  | [ (Tel.Trap, 0x44, 0) ] -> ()
  | _ -> Alcotest.fail "event ring contents");
  Tel.reset tel;
  check Alcotest.int "reset zeroes counters" 0 (Tel.value tel a);
  check Alcotest.int "reset empties the ring" 0 (Tel.events_seen tel);
  check Alcotest.int "reset zeroes dists" 0 (Tel.dist_stats tel d).Tel.count

let test_ring_overwrites_oldest () =
  let tel = Tel.create () in
  for i = 1 to 600 do
    Tel.event tel Tel.Block_chain ~a:i ~b:0
  done;
  check Alcotest.int "seen keeps the true total" 600 (Tel.events_seen tel);
  let evs = Tel.events tel in
  check Alcotest.int "ring retains 512" 512 (List.length evs);
  (* the retained tail is exactly events 89..600, oldest to newest: the
     ring drops only the overwritten head and never reorders *)
  List.iteri
    (fun idx ev ->
      match ev with
      | Tel.Block_chain, a, 0 when a = 89 + idx -> ()
      | k, a, b ->
        Alcotest.failf "slot %d holds %s a=%d b=%d (want Block_chain a=%d)" idx
          (Tel.kind_name k) a b (89 + idx))
    evs

let test_disabled_sink () =
  let tel = Tel.disabled in
  check Alcotest.bool "disabled sink reports disabled" false (Tel.is_enabled tel);
  let c = Tel.counter tel "x" in
  let d = Tel.dist tel "y" in
  Tel.bump tel c;
  Tel.add tel c 7;
  Tel.observe tel d 3;
  Tel.event tel Tel.Trap ~a:1 ~b:2;
  check Alcotest.(option int) "disabled registers no names" None (Tel.find tel "x");
  let seen = ref 0 in
  Tel.iter_counters tel (fun _ _ -> incr seen);
  Tel.iter_dists tel (fun _ _ -> incr seen);
  check Alcotest.int "disabled iterates nothing" 0 !seen

let () =
  Alcotest.run "telemetry"
    [
      ( "sim-exactness",
        [
          Alcotest.test_case "table3 counters (mips)" `Quick test_exact_mips;
          Alcotest.test_case "table3 counters (sparc)" `Quick test_exact_sparc;
          Alcotest.test_case "table3 counters (alpha)" `Quick test_exact_alpha;
          Alcotest.test_case "table3 counters (ppc)" `Quick test_exact_ppc;
        ] );
      ( "gen-exactness",
        [
          Alcotest.test_case "known program" `Quick test_known_program_counts;
          Alcotest.test_case "tcc program" `Quick test_tcc_program_counts;
        ] );
      ( "sink",
        [
          Alcotest.test_case "counters/dists/events" `Quick test_sink_basics;
          Alcotest.test_case "ring overwrites oldest" `Quick test_ring_overwrites_oldest;
          Alcotest.test_case "disabled sink" `Quick test_disabled_sink;
        ] );
    ]
