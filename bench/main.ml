(* The benchmark harness: regenerates every evaluation artifact of the
   paper.

   - "codegen-cost"  : the headline claim (section 1/5.1, Figure 2):
     dynamic code generation cost per generated instruction, VCODE
     vs. the DCG-style IR baseline (the paper reports ~35x), plus the
     hard-coded-register variant of section 5.3 and heap allocation per
     instruction (the in-place space claim).  Wall-clock, via Bechamel.
   - "table3-dpf"    : Table 3 -- average time to classify TCP/IP headers
     destined for one of ten filters: DPF (compiled) vs PATHFINDER-style
     trie interpreter vs MPF-style per-filter interpreter, all executing
     on the simulated DECstation 5000/200; cycles converted to
     microseconds at its clock rate.
   - "table4-ash"    : Table 4 -- integrated vs non-integrated message
     operations (copy+cksum, copy+cksum+swap) on simulated DEC3100 and
     DEC5000, warm and after a cache flush.
   - "space"         : generation-time memory: VCODE bookkeeping is
     O(labels), DCG state is O(instructions).

   Table 1 and Table 2 are specification tables; `bin/visa.exe` prints
   them from the implementation.  Absolute numbers differ from the
   paper's 1996 hardware; EXPERIMENTS.md records the shape comparison. *)

open Vcodebase
module V = Vcode.Make (Vmips.Mips_backend)
module VU = Vcode.Make_unchecked (Vmips.Mips_backend)
module VP = Vcode.Make_unchecked (Vcode.Make_peephole (Vmips.Mips_backend))
module D = Dcg.Make (Vmips.Mips_backend)
module Sim = Vmips.Mips_sim

let insns_per_body = 200

(* enough buffer for the 200-insn body plus prologue/epilogue, so the
   steady state of every codegen fixture is allocation-free *)
let body_capacity = 320

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every section records its headline numbers
   under a dotted key; --json FILE dumps them as one flat JSON object. *)

let json_results : (string * float) list ref = ref []
let record key v = json_results := (key, v) :: !json_results

(* --telemetry: one enabled sink threaded into the Table 3 / Table 4
   workload simulators and generators; --json then appends its contents
   as a nested "telemetry" object (counters, distribution summaries,
   event total).  Off by default, so plain runs keep the disabled sink
   and its zero-overhead path. *)
let tel_sink : Vmachine.Telemetry.t option ref = ref None
let tel () = match !tel_sink with Some t -> t | None -> Vmachine.Telemetry.disabled

(* version of the --json document layout; bump when keys change.
   bench/json_check.exe --require-schema pins it in the test suite.
     1: pre-schema-field dumps
     2: added this field
     3: sim-throughput regions tier + region-loop workload rows
     4: router section (registry install/demux rates under churn)
     5: peephole section (peephole-on table3/table4 rows, the codegen
        vcode-peephole ladder row, rewrite counters)
     6: corpus section (four-mode rates for the external .asm
        workloads)
     7: tail-latency percentiles — router.install_ns.* and
        router.classify_ns.* (p50/p99/p999 interpolated from the
        telemetry log2 buckets by Telemetry.quantile_of_stats) and
        corpus.mips.<w>.run_ns.* per-run percentiles
     8: written through the shared Report writer: the --telemetry
        object's dists grew interpolated p50/p90/p99/p999 keys *)
let json_schema_version = 8

let write_json path =
  let items = List.rev !json_results in
  let telemetry =
    match !tel_sink with None -> [] | Some t -> [ ("telemetry", Report.Obj (Report.telemetry t)) ]
  in
  Report.to_file path
    (Report.Obj
       ((("schema", Report.Int json_schema_version)
        :: List.map (fun (k, v) -> (k, Report.Float v)) items)
       @ telemetry));
  Printf.printf "wrote %d results to %s\n" (List.length items) path

(* dotted-key path component: lowercase, alphanumeric runs joined by _ *)
let slug s =
  String.map (fun c ->
      match Char.lowercase_ascii c with 'a' .. 'z' | '0' .. '9' -> Char.lowercase_ascii c | _ -> '_')
    s

(* ------------------------------------------------------------------ *)
(* Codegen-cost fixtures: the same 200-instruction function, specified
   through each system.                                                *)

(* A realistic instruction mix: ALU, immediates, loads/stores.  The
   fixtures call the core checked emitters ([arith], [load_imm], ...)
   directly — the paper's v_addii &c. are macros that expand to exactly
   this, and the [Names] aliases are one extra OCaml call the C macros
   don't have. *)
let vcode_body g (r0 : Reg.t) (r1 : Reg.t) (p : Reg.t) =
  for _ = 1 to insns_per_body / 8 do
    V.arith_imm g Op.Add Vtype.I r0 r0 1;
    V.arith g Op.Add Vtype.I r1 r1 r0;
    V.arith_imm g Op.Lsh Vtype.I r0 r0 2;
    V.arith g Op.Xor Vtype.I r0 r0 r1;
    V.load_imm g Vtype.I r1 p 0;
    V.store_imm g Vtype.I r0 p 4;
    V.arith g Op.Sub Vtype.I r0 r0 r1;
    V.arith_imm g Op.Or Vtype.I r1 r1 255
  done

let gen_vcode_checked () =
  let g, args = V.lambda ~base:0x1000 ~leaf:true ~capacity:body_capacity "%i%i%p" in
  vcode_body g args.(0) args.(1) args.(2);
  V.Names.reti g args.(0);
  V.end_gen g

(* the same mix through the unchecked instantiation (checks compiled out) *)
let vcode_body_u g (r0 : Reg.t) (r1 : Reg.t) (p : Reg.t) =
  for _ = 1 to insns_per_body / 8 do
    VU.arith_imm g Op.Add Vtype.I r0 r0 1;
    VU.arith g Op.Add Vtype.I r1 r1 r0;
    VU.arith_imm g Op.Lsh Vtype.I r0 r0 2;
    VU.arith g Op.Xor Vtype.I r0 r0 r1;
    VU.load_imm g Vtype.I r1 p 0;
    VU.store_imm g Vtype.I r0 p 4;
    VU.arith g Op.Sub Vtype.I r0 r0 r1;
    VU.arith_imm g Op.Or Vtype.I r1 r1 255
  done

let gen_vcode_unchecked () =
  let g, args = VU.lambda ~base:0x1000 ~leaf:true ~capacity:body_capacity "%i%i%p" in
  vcode_body_u g args.(0) args.(1) args.(2);
  VU.Names.reti g args.(0);
  VU.end_gen g

(* the same mix through the peephole-wrapped unchecked port: measures
   the sliding-window overhead against the unchecked floor *)
let vcode_body_p g (r0 : Reg.t) (r1 : Reg.t) (p : Reg.t) =
  for _ = 1 to insns_per_body / 8 do
    VP.arith_imm g Op.Add Vtype.I r0 r0 1;
    VP.arith g Op.Add Vtype.I r1 r1 r0;
    VP.arith_imm g Op.Lsh Vtype.I r0 r0 2;
    VP.arith g Op.Xor Vtype.I r0 r0 r1;
    VP.load_imm g Vtype.I r1 p 0;
    VP.store_imm g Vtype.I r0 p 4;
    VP.arith g Op.Sub Vtype.I r0 r0 r1;
    VP.arith_imm g Op.Or Vtype.I r1 r1 255
  done

let gen_vcode_peephole () =
  let g, args = VP.lambda ~base:0x1000 ~leaf:true ~capacity:body_capacity "%i%i%p" in
  vcode_body_p g args.(0) args.(1) args.(2);
  VP.Names.reti g args.(0);
  VP.end_gen g

(* hard-coded register names (section 5.3): no allocator interaction *)
let gen_vcode_hard_regs () =
  let g, args = V.lambda ~base:0x1000 ~leaf:true ~capacity:body_capacity "%p" in
  let r0 = V.treg 0 and r1 = V.treg 1 in
  vcode_body g r0 r1 args.(0);
  V.Names.reti g r0;
  V.end_gen g

(* raw backend emitters, bypassing the checked layer *)
let gen_vcode_raw () =
  let module T = Vmips.Mips_backend in
  let g, args = V.lambda ~base:0x1000 ~leaf:true ~capacity:body_capacity "%i%i%p" in
  let r0 = args.(0) and r1 = args.(1) and p = args.(2) in
  for _ = 1 to insns_per_body / 8 do
    T.arith_imm g Op.Add Vtype.I r0 r0 1;
    T.arith g Op.Add Vtype.I r1 r1 r0;
    T.arith_imm g Op.Lsh Vtype.I r0 r0 2;
    T.arith g Op.Xor Vtype.I r0 r0 r1;
    T.load_imm g Vtype.I r1 p 0;
    T.store_imm g Vtype.I r0 p 4;
    T.arith g Op.Sub Vtype.I r0 r0 r1;
    T.arith_imm g Op.Or Vtype.I r1 r1 255
  done;
  T.ret g Vtype.I (Some r0);
  V.end_gen g

(* the same mix as IR trees, built and consumed at runtime (DCG) *)
let gen_dcg () =
  let c, args = D.lambda ~base:0x1000 ~leaf:true "%i%i%p" in
  let r0 = args.(0) and r1 = args.(1) and p = args.(2) in
  let e0 = Dcg.Regv (Vtype.I, r0) and e1 = Dcg.Regv (Vtype.I, r1) in
  let ep = Dcg.Regv (Vtype.P, p) in
  for _ = 1 to insns_per_body / 8 do
    D.stmt c (Dcg.Sassign (r0, Dcg.Bin (Op.Add, Vtype.I, e0, Dcg.Cnst (Vtype.I, 1L))));
    D.stmt c (Dcg.Sassign (r1, Dcg.Bin (Op.Add, Vtype.I, e1, e0)));
    D.stmt c (Dcg.Sassign (r0, Dcg.Bin (Op.Lsh, Vtype.I, e0, Dcg.Cnst (Vtype.I, 2L))));
    D.stmt c (Dcg.Sassign (r0, Dcg.Bin (Op.Xor, Vtype.I, e0, e1)));
    D.stmt c (Dcg.Sassign (r1, Dcg.Ld (Vtype.I, ep, 0)));
    D.stmt c (Dcg.Sstore (Vtype.I, ep, 4, e0));
    D.stmt c (Dcg.Sassign (r0, Dcg.Bin (Op.Sub, Vtype.I, e0, e1)));
    D.stmt c (Dcg.Sassign (r1, Dcg.Bin (Op.Or, Vtype.I, e1, Dcg.Cnst (Vtype.I, 255L))))
  done;
  D.stmt c (Dcg.Sret (Vtype.I, Some e0));
  D.finish c

(* allocation accounting *)
let minor_words_of f =
  let a = Gc.minor_words () in
  let r = f () in
  ignore (Sys.opaque_identity r);
  Gc.minor_words () -. a

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing                                                   *)

open Bechamel
open Toolkit

let run_benchmarks (tests : Test.t list) =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:3000 ~quota:(Time.second 1.0) ~kde:None () in
  let tbl = Hashtbl.create 17 in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with Some [ x ] -> x | _ -> nan
          in
          Hashtbl.replace tbl (Test.Elt.name elt) ns)
        (Test.elements test))
    tests;
  tbl

(* ------------------------------------------------------------------ *)
(* Section: codegen cost                                               *)

let bench_codegen () =
  Printf.printf "== codegen-cost (Figure 2 / the 6-10 insns-per-insn headline) ==\n";
  Printf.printf "   %d-instruction function, generated repeatedly; wall time per\n"
    insns_per_body;
  Printf.printf "   VCODE instruction, plus heap words allocated per instruction.\n\n";
  let tests =
    [
      Test.make ~name:"vcode" (Staged.stage (fun () -> Sys.opaque_identity (gen_vcode_checked ())));
      Test.make ~name:"vcode-unchecked" (Staged.stage (fun () -> Sys.opaque_identity (gen_vcode_unchecked ())));
      Test.make ~name:"vcode-peephole" (Staged.stage (fun () -> Sys.opaque_identity (gen_vcode_peephole ())));
      Test.make ~name:"vcode-hard-regs" (Staged.stage (fun () -> Sys.opaque_identity (gen_vcode_hard_regs ())));
      Test.make ~name:"vcode-raw-emitters" (Staged.stage (fun () -> Sys.opaque_identity (gen_vcode_raw ())));
      Test.make ~name:"dcg-ir" (Staged.stage (fun () -> Sys.opaque_identity (gen_dcg ())));
    ]
  in
  let tbl = run_benchmarks tests in
  let get n = try Hashtbl.find tbl n with Not_found -> nan in
  let per n = get n /. float_of_int insns_per_body in
  let rows =
    [
      ("vcode (checked API)", per "vcode");
      ("vcode (unchecked API)", per "vcode-unchecked");
      ("vcode (unchecked + peephole)", per "vcode-peephole");
      ("vcode (hard-coded registers)", per "vcode-hard-regs");
      ("vcode (raw backend emitters)", per "vcode-raw-emitters");
      ("dcg (IR build + consume)", per "dcg-ir");
    ]
  in
  List.iter (fun n -> record ("codegen." ^ slug n ^ ".ns_per_insn") (per n))
    [ "vcode"; "vcode-unchecked"; "vcode-peephole"; "vcode-hard-regs";
      "vcode-raw-emitters"; "dcg-ir" ];
  Printf.printf "   %-34s %14s %10s\n" "system" "ns/generated" "vs vcode";
  let base = per "vcode" in
  List.iter
    (fun (name, ns) -> Printf.printf "   %-34s %14.1f %9.2fx\n" name ns (ns /. base))
    rows;
  let per_insn_words f = minor_words_of f /. float_of_int insns_per_body in
  let aw_v = per_insn_words gen_vcode_checked in
  let aw_u = per_insn_words gen_vcode_unchecked in
  let aw_r = per_insn_words gen_vcode_raw in
  let aw_d = per_insn_words gen_dcg in
  Printf.printf
    "\n   heap words allocated per instruction: vcode %.2f, unchecked %.2f, raw %.2f, dcg %.1f (%.1fx)\n"
    aw_v aw_u aw_r aw_d (aw_d /. aw_v);
  Printf.printf "   paper: vcode ~6-10 host insns/insn; DCG ~35x slower than vcode.\n";
  Printf.printf "   (the raw-emitter row is the closest analogue of the paper's C\n";
  Printf.printf "   macros; the unchecked row is its NDEBUG build of v_* macros.)\n\n";
  record "codegen.dcg_vs_vcode" (per "dcg-ir" /. base);
  record "codegen.dcg_vs_raw" (per "dcg-ir" /. per "vcode-raw-emitters");
  record "codegen.unchecked_vs_raw" (per "vcode-unchecked" /. per "vcode-raw-emitters");
  record "codegen.checked_vs_unchecked" (base /. per "vcode-unchecked");
  record "codegen.peephole_vs_unchecked" (per "vcode-peephole" /. per "vcode-unchecked");
  record "codegen.alloc_words_vcode" aw_v;
  record "codegen.alloc_words_vcode_unchecked" aw_u;
  record "codegen.alloc_words_vcode_raw" aw_r;
  record "codegen.alloc_words_dcg" aw_d;
  (per "dcg-ir" /. base, per "dcg-ir" /. per "vcode-raw-emitters", aw_d /. aw_v)

(* ------------------------------------------------------------------ *)
(* Section: Table 3                                                    *)

module DP = Dpf.Make (Vmips.Mips_backend)
module TC = Tcc.Tcc_compile.Make (Vmips.Mips_backend)

let pkt_addr = 0x80000
let prog_addr = 0x100000

let avg_cycles_per_classify ~classify =
  let ports = Array.init 1000 (fun i -> 1000 + (i mod 10)) in
  (* warm instruction cache with one classification *)
  ignore (classify 1000);
  let total = ref 0 in
  Array.iter (fun port -> total := !total + classify port) ports;
  float_of_int !total /. float_of_int (Array.length ports)

let bench_table3 () =
  Printf.printf "== table3-dpf (Table 3: classify TCP/IP headers, 10 filters) ==\n";
  Printf.printf "   1000 packets destined uniformly to the ten filters; average\n";
  Printf.printf "   cycles per classification on the simulated DEC5000/200, in us.\n\n";
  let cfg = Vmachine.Mconfig.dec5000 in
  let filters = Dpf.Filter.tcpip_filters 10 in
  (* DPF *)
  let dpf_us, dpf_code_words =
    let c = DP.compile ~base:0x1000 ~table_base:0x200000 filters in
    Vmachine.Telemetry.note_gen (tel ()) ~prefix:"table3.dpf" c.Dpf.code.Vcode.gen;
    let m = Sim.create ~telemetry:(tel ()) cfg in
    Vmachine.Mem.install_code m.Sim.mem ~addr:c.Dpf.code.Vcode.base
      c.Dpf.code.Vcode.gen.Gen.buf;
    DP.install_tables m.Sim.mem c;
    let classify port =
      Dpf.Packet.install m.Sim.mem ~addr:pkt_addr (Dpf.Packet.tcp ~dst_port:port ());
      Sim.reset_stats m;
      Sim.call m ~entry:c.Dpf.entry [ Sim.Int pkt_addr; Sim.Int 40 ];
      assert (Sim.ret_int m = port - 1000);
      m.Sim.cycles
    in
    let avg = avg_cycles_per_classify ~classify in
    (Vmachine.Mconfig.cycles_to_us cfg (int_of_float avg), c.Dpf.code.Vcode.code_bytes / 4)
  in
  (* interpreter harness *)
  let interp source fname write_image =
    let prog = TC.compile ~base:0x8000 source in
    let m = Sim.create ~telemetry:(tel ()) cfg in
    List.iter
      (fun (_, code) ->
        Vmachine.Mem.install_code m.Sim.mem ~addr:code.Vcode.base code.Vcode.gen.Gen.buf)
      prog.TC.funcs;
    write_image m;
    (m, TC.entry prog fname)
  in
  let write_words m words =
    Array.iteri (fun i w -> Vmachine.Mem.write_u32 m.Sim.mem (prog_addr + (4 * i)) w) words
  in
  let mpf_us =
    let program = Dpf.Filter.mpf_program ~big_endian:false filters in
    let m, entry = interp Dpf.Mpf.source Dpf.Mpf.function_name (fun m -> write_words m program) in
    let classify port =
      Dpf.Packet.install m.Sim.mem ~addr:pkt_addr (Dpf.Packet.tcp ~dst_port:port ());
      Sim.reset_stats m;
      Sim.call m ~entry [ Sim.Int pkt_addr; Sim.Int 40; Sim.Int prog_addr; Sim.Int 1 ];
      assert (Sim.ret_int m = port - 1000);
      m.Sim.cycles
    in
    Vmachine.Mconfig.cycles_to_us cfg (int_of_float (avg_cycles_per_classify ~classify))
  in
  let pf_us =
    let words, root = Dpf.Pathfinder.encode ~big_endian:false filters in
    let m, entry =
      interp Dpf.Pathfinder.source Dpf.Pathfinder.function_name (fun m -> write_words m words)
    in
    let classify port =
      Dpf.Packet.install m.Sim.mem ~addr:pkt_addr (Dpf.Packet.tcp ~dst_port:port ());
      Sim.reset_stats m;
      Sim.call m ~entry
        [ Sim.Int pkt_addr; Sim.Int 40; Sim.Int prog_addr; Sim.Int root; Sim.Int 1 ];
      assert (Sim.ret_int m = port - 1000);
      m.Sim.cycles
    in
    Vmachine.Mconfig.cycles_to_us cfg (int_of_float (avg_cycles_per_classify ~classify))
  in
  Printf.printf "   %-22s %12s %12s %10s\n" "engine" "measured us" "paper us" "vs DPF";
  Printf.printf "   %-22s %12.2f %12s %10s\n" "DPF (compiled)" dpf_us "1.5" "1.0x";
  Printf.printf "   %-22s %12.2f %12s %9.1fx\n" "PATHFINDER (interp)" pf_us "19.0"
    (pf_us /. dpf_us);
  Printf.printf "   %-22s %12.2f %12s %9.1fx\n" "MPF (interp)" mpf_us "35.0" (mpf_us /. dpf_us);
  Printf.printf "\n   paper shape: DPF ~10x faster than PATHFINDER, ~20x faster than MPF.\n";
  Printf.printf "   (DPF classifier: %d words of generated code.)\n\n" dpf_code_words;
  record "table3.dpf_us" dpf_us;
  record "table3.pathfinder_us" pf_us;
  record "table3.mpf_us" mpf_us;
  record "table3.dpf_code_words" (float_of_int dpf_code_words);
  (dpf_us, pf_us, mpf_us)

(* ------------------------------------------------------------------ *)
(* Section: Table 4                                                    *)

module ASH = Ash.Make (Vmips.Mips_backend)

let src_addr = 0x300000
let dst_addr = 0x312000 (* distinct cache sets from src *)

let table4_row cfg ops =
  let nwords = 2048 in
  let m = Sim.create ~telemetry:(tel ()) cfg in
  let passes = ASH.gen_separate ~base:0x1000 ops in
  List.iter
    (fun (_, c) ->
      Vmachine.Mem.install_code m.Sim.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf)
    passes;
  let integ = ASH.gen_integrated ~base:0x8000 ops in
  Vmachine.Mem.install_code m.Sim.mem ~addr:integ.Vcode.base integ.Vcode.gen.Gen.buf;
  let ash = ASH.gen_ash ~base:0xA000 ops in
  Vmachine.Telemetry.note_gen (tel ()) ~prefix:"table4.ash" ash.Vcode.gen;
  Vmachine.Mem.install_code m.Sim.mem ~addr:ash.Vcode.base ash.Vcode.gen.Gen.buf;
  let data = Bytes.init (4 * nwords) (fun i -> Char.chr ((i * 131) land 0xff)) in
  Vmachine.Mem.blit_bytes m.Sim.mem ~addr:src_addr data;
  let call code a b =
    Sim.call m ~entry:code.Vcode.entry_addr [ Sim.Int a; Sim.Int b; Sim.Int nwords ];
    Sim.ret_int m
  in
  let run_separate () =
    List.iter
      (fun (op, c) ->
        match op with
        | Ash.Copy -> ignore (call c dst_addr src_addr)
        | Ash.Checksum | Ash.Byteswap | Ash.Xorkey _ -> ignore (call c dst_addr dst_addr))
      passes
  in
  let measure ~uncached f =
    ignore (f ());
    if uncached then Vmachine.Cache.flush m.Sim.dcache;
    Sim.reset_stats m;
    ignore (f ());
    Vmachine.Mconfig.cycles_to_us cfg m.Sim.cycles
  in
  let sep_u = measure ~uncached:true run_separate in
  let sep = measure ~uncached:false run_separate in
  let integ_c = measure ~uncached:false (fun () -> ignore (call integ dst_addr src_addr)) in
  let ash_c = measure ~uncached:false (fun () -> ignore (call ash dst_addr src_addr)) in
  let ash_u = measure ~uncached:true (fun () -> ignore (call ash dst_addr src_addr)) in
  (sep_u, sep, integ_c, ash_c, ash_u)

let bench_table4 () =
  Printf.printf "== table4-ash (Table 4: integrated message operations, 8KB) ==\n";
  Printf.printf "   times in microseconds at each machine's clock.\n\n";
  let paper =
    [
      (("DEC3100", [ Ash.Copy; Ash.Checksum ]), (1630., 1290., 1120., 1060.));
      (("DEC3100", [ Ash.Copy; Ash.Checksum; Ash.Byteswap ]), (3190., 2230., 1750., 1600.));
      (("DEC5000", [ Ash.Copy; Ash.Checksum ]), (812., 656., 597., 455.));
      (("DEC5000", [ Ash.Copy; Ash.Checksum; Ash.Byteswap ]), (1640., 1280., 976., 836.));
    ]
  in
  Printf.printf "   %-8s %-16s %-18s %10s %10s\n" "machine" "pipeline" "method" "measured"
    "paper";
  List.iter
    (fun ((mname, ops), (p_su, p_s, p_i, p_a)) ->
      let cfg =
        if mname = "DEC3100" then Vmachine.Mconfig.dec3100 else Vmachine.Mconfig.dec5000
      in
      let sep_u, sep, integ, ash, ash_u = table4_row cfg ops in
      let key m_ = Printf.sprintf "table4.%s.%s.%s_us" (slug mname) (slug (Ash.pipeline_name ops)) m_ in
      record (key "separate_uncached") sep_u;
      record (key "separate") sep;
      record (key "c_integrated") integ;
      record (key "ash") ash;
      record (key "ash_uncached") ash_u;
      let pr method_ v p =
        Printf.printf "   %-8s %-16s %-18s %10.0f %10.0f\n" mname (Ash.pipeline_name ops)
          method_ v p
      in
      pr "separate uncached" sep_u p_su;
      pr "separate" sep p_s;
      pr "C integrated" integ p_i;
      pr "ASH" ash p_a;
      Printf.printf "   %-8s %-16s %-18s %10.0f %10s\n" mname (Ash.pipeline_name ops)
        "ASH uncached" ash_u "-")
    paper;
  Printf.printf "\n   paper shape: integration wins 20-50%% warm and ~2x after a flush;\n";
  Printf.printf "   ASH (specialized) beats hand-integrated C.\n\n"

(* ------------------------------------------------------------------ *)
(* Section: peephole (PR 8)                                            *)

(* The Table 3 / Table 4 workloads regenerated through
   [Vcode.Make_peephole]-wrapped ports: same client code, the stage
   interposed at functor application.  Records the peephole-on rows
   next to the unchecked baselines, the code-size delta, and the
   rewrite counters. *)
module DPP = Dpf.Make (Vcode.Make_peephole (Vmips.Mips_backend))
module ASHP = Ash.Make (Vcode.Make_peephole (Vmips.Mips_backend))

let bench_peephole () =
  Printf.printf "== peephole (Make_peephole-wrapped ports on table3/table4) ==\n\n";
  let cfg = Vmachine.Mconfig.dec5000 in
  (* table 3: DPF classifier, raw vs wrapped MIPS port *)
  let run_dpf (compile : Dpf.Filter.t list -> Dpf.compiled)
      ~(install : Vmachine.Mem.t -> Dpf.compiled -> unit) =
    let filters = Dpf.Filter.tcpip_filters 10 in
    let c = compile filters in
    let m = Sim.create ~telemetry:(tel ()) cfg in
    Vmachine.Mem.install_code m.Sim.mem ~addr:c.Dpf.code.Vcode.base
      c.Dpf.code.Vcode.gen.Gen.buf;
    install m.Sim.mem c;
    let classify port =
      Dpf.Packet.install m.Sim.mem ~addr:pkt_addr (Dpf.Packet.tcp ~dst_port:port ());
      Sim.reset_stats m;
      Sim.call m ~entry:c.Dpf.entry [ Sim.Int pkt_addr; Sim.Int 40 ];
      assert (Sim.ret_int m = port - 1000);
      m.Sim.cycles
    in
    let avg = avg_cycles_per_classify ~classify in
    (Vmachine.Mconfig.cycles_to_us cfg (int_of_float avg), c.Dpf.code)
  in
  let dpf_us, dpf_code =
    run_dpf
      (fun fs -> DP.compile ~base:0x1000 ~table_base:0x200000 fs)
      ~install:(fun mem c -> DP.install_tables mem c)
  in
  let dpf_p_us, dpf_p_code =
    run_dpf
      (fun fs -> DPP.compile ~base:0x1000 ~table_base:0x200000 fs)
      ~install:(fun mem c -> DPP.install_tables mem c)
  in
  Vmachine.Telemetry.note_gen (tel ()) ~prefix:"peephole.dpf" dpf_p_code.Vcode.gen;
  let words c = c.Vcode.code_bytes / 4 in
  let p = dpf_p_code.Vcode.gen.Gen.peep in
  Printf.printf "   %-28s %12s %12s\n" "workload" "raw port" "peephole";
  Printf.printf "   %-28s %12.2f %12.2f   (us/classify)\n" "table3 dpf" dpf_us dpf_p_us;
  Printf.printf "   %-28s %12d %12d   (code words)\n" "table3 dpf"
    (words dpf_code) (words dpf_p_code);
  Printf.printf
    "   rewrites: %d moves killed, %d fusions, %d slot fills, %d strength\n"
    p.Peepwin.moves_killed p.Peepwin.fusions p.Peepwin.slot_fills p.Peepwin.strength;
  record "table3.peephole.dpf_us" dpf_p_us;
  record "table3.peephole.dpf_code_words" (float_of_int (words dpf_p_code));
  record "table3.peephole.dpf_code_words_saved"
    (float_of_int (words dpf_code - words dpf_p_code));
  record "peephole.dpf.moves_killed" (float_of_int p.Peepwin.moves_killed);
  record "peephole.dpf.fusions" (float_of_int p.Peepwin.fusions);
  record "peephole.dpf.slot_fills" (float_of_int p.Peepwin.slot_fills);
  record "peephole.dpf.strength" (float_of_int p.Peepwin.strength);
  (* table 4: the ASH pipeline, raw vs wrapped *)
  let ops = [ Ash.Copy; Ash.Checksum; Ash.Byteswap ] in
  let nwords = 2048 in
  let run_ash (ash : Vcode.code) =
    let m = Sim.create ~telemetry:(tel ()) cfg in
    Vmachine.Mem.install_code m.Sim.mem ~addr:ash.Vcode.base ash.Vcode.gen.Gen.buf;
    let data = Bytes.init (4 * nwords) (fun i -> Char.chr ((i * 131) land 0xff)) in
    Vmachine.Mem.blit_bytes m.Sim.mem ~addr:src_addr data;
    let run () =
      Sim.call m ~entry:ash.Vcode.entry_addr
        [ Sim.Int dst_addr; Sim.Int src_addr; Sim.Int nwords ];
      Sim.ret_int m
    in
    ignore (run ());
    Sim.reset_stats m;
    ignore (run ());
    Vmachine.Mconfig.cycles_to_us cfg m.Sim.cycles
  in
  let ash = ASH.gen_ash ~base:0xA000 ops in
  let ash_p = ASHP.gen_ash ~base:0xA000 ops in
  let ash_us = run_ash ash and ash_p_us = run_ash ash_p in
  Vmachine.Telemetry.note_gen (tel ()) ~prefix:"peephole.ash" ash_p.Vcode.gen;
  let pa = ash_p.Vcode.gen.Gen.peep in
  Printf.printf "   %-28s %12.0f %12.0f   (us, DEC5000 cached)\n"
    "table4 ash copy+cksum+bswap" ash_us ash_p_us;
  Printf.printf "   %-28s %12d %12d   (code words)\n" "table4 ash"
    (words ash) (words ash_p);
  Printf.printf
    "   rewrites: %d moves killed, %d fusions, %d slot fills, %d strength\n\n"
    pa.Peepwin.moves_killed pa.Peepwin.fusions pa.Peepwin.slot_fills pa.Peepwin.strength;
  record "table4.peephole.ash_us" ash_p_us;
  record "table4.peephole.ash_baseline_us" ash_us;
  record "table4.peephole.ash_code_words_saved" (float_of_int (words ash - words ash_p));
  record "peephole.ash.slot_fills" (float_of_int pa.Peepwin.slot_fills);
  (dpf_us, dpf_p_us, words dpf_code - words dpf_p_code)

(* ------------------------------------------------------------------ *)
(* Section: generation-space                                           *)

let bench_space () =
  Printf.printf "== space (section 5: in-place generation memory behaviour) ==\n\n";
  let vcode_overhead n =
    let g, args = V.lambda ~base:0x1000 ~leaf:true "%i" in
    for _ = 1 to n do
      V.arith_imm g Op.Add Vtype.I args.(0) args.(0) 1
    done;
    Gen.live_words g - Codebuf.heap_words g.Gen.buf
  in
  let dcg_words n =
    let c, args = D.lambda ~base:0x1000 ~leaf:true "%i" in
    for _ = 1 to n do
      D.stmt c
        (Dcg.Sassign
           ( args.(0),
             Dcg.Bin (Op.Add, Vtype.I, Dcg.Regv (Vtype.I, args.(0)), Dcg.Cnst (Vtype.I, 1L)) ))
    done;
    D.live_words c
  in
  Printf.printf "   %-10s %22s %22s\n" "insns" "vcode non-code words" "dcg live words";
  List.iter
    (fun n ->
      let vw = vcode_overhead n and dw = dcg_words n in
      record (Printf.sprintf "space.vcode_words.%d" n) (float_of_int vw);
      record (Printf.sprintf "space.dcg_words.%d" n) (float_of_int dw);
      Printf.printf "   %-10d %22d %22d\n" n vw dw)
    [ 100; 1000; 10000 ];
  Printf.printf "\n   paper: vcode needs only labels + unresolved jumps; IR systems\n";
  Printf.printf "   need space proportional to the number of instructions.\n\n"

(* ------------------------------------------------------------------ *)
(* Section: ablations for the design choices DESIGN.md calls out       *)

(* DPF dispatch-strategy ablation: the same 10-filter workload compiled
   with each strategy forced (the paper argues for choosing among them
   from the installed values). *)
let bench_ablation_dpf () =
  Printf.printf "== ablation-dpf-dispatch (switch strategy) ==\n\n";
  let cfg = Vmachine.Mconfig.dec5000 in
  let run_set label nf port_of =
    let filters =
      List.init nf (fun i ->
          Dpf.Filter.tcpip_session ~fid:i ~dst_ip:0x0A000001 ~dst_port:(port_of i))
    in
    let measure ?(merge = true) dispatch =
      let c = DP.compile ~base:0x1000 ~table_base:0x200000 ~dispatch ~merge filters in
      let m = Sim.create cfg in
      Vmachine.Mem.install_code m.Sim.mem ~addr:c.Dpf.code.Vcode.base
        c.Dpf.code.Vcode.gen.Gen.buf;
      DP.install_tables m.Sim.mem c;
      let classify i =
        Dpf.Packet.install m.Sim.mem ~addr:pkt_addr
          (Dpf.Packet.tcp ~dst_port:(port_of i) ());
        Sim.reset_stats m;
        Sim.call m ~entry:c.Dpf.entry [ Sim.Int pkt_addr; Sim.Int 40 ];
        assert (Sim.ret_int m = i);
        m.Sim.cycles
      in
      ignore (classify 0);
      let total = ref 0 in
      for k = 0 to 999 do
        total := !total + classify (k mod nf)
      done;
      (float_of_int !total /. 1000., c.Dpf.code.Vcode.code_bytes / 4)
    in
    Printf.printf "   -- %s --\n" label;
    Printf.printf "   %-22s %14s %12s\n" "strategy" "cycles/packet" "code words";
    List.iter
      (fun (name, d) ->
        let cyc, words = measure d in
        record (Printf.sprintf "ablation_dpf.%s.%s.cycles" (slug label) (slug name)) cyc;
        ignore words;
        Printf.printf "   %-22s %14.1f %12d\n" name cyc words)
      [
        ("auto", Dpf.Auto);
        ("forced linear chain", Dpf.Force_linear);
        ("forced binary search", Dpf.Force_bsearch);
        ("forced hash", Dpf.Force_hash);
      ];
    let cyc, words = measure ~merge:false Dpf.Auto in
    Printf.printf "   %-22s %14.1f %12d\n" "no trie merging" cyc words;
    Printf.printf "\n"
  in
  run_set "10 filters, contiguous ports" 10 (fun i -> 1000 + i);
  run_set "32 filters, sparse ports" 32 (fun i -> 1000 + (371 * i));
  Printf.printf "   the paper's point: with the installed values known at codegen\n";
  Printf.printf "   time, DPF picks the dispatch that wins for this filter set.\n\n"

(* virtual-register layer ablation (section 6.2: "roughly a factor of
   two" on generation cost) *)
let bench_ablation_vregs () =
  Printf.printf "== ablation-vregs (section 6.2 virtual-register layer) ==\n\n";
  let gen_virt () =
    let g, args = V.lambda ~base:0x1000 ~leaf:true "%i%i%p" in
    let vs = V.Virt.start g in
    let r0 = V.Virt.vreg vs Vtype.I and r1 = V.Virt.vreg vs Vtype.I in
    V.Virt.mov_in vs Vtype.I r0 args.(0);
    V.Virt.mov_in vs Vtype.I r1 args.(1);
    for _ = 1 to insns_per_body / 8 do
      V.Virt.arith_imm vs Op.Add Vtype.I r0 r0 1;
      V.Virt.arith vs Op.Add Vtype.I r1 r1 r0;
      V.Virt.arith_imm vs Op.Lsh Vtype.I r0 r0 2;
      V.Virt.arith vs Op.Xor Vtype.I r0 r0 r1;
      V.Virt.arith_imm vs Op.Or Vtype.I r1 r1 255;
      V.Virt.arith vs Op.Sub Vtype.I r0 r0 r1;
      V.Virt.arith_imm vs Op.And Vtype.I r1 r1 4095;
      V.Virt.arith vs Op.Add Vtype.I r0 r0 r1
    done;
    V.Virt.ret vs Vtype.I r0;
    V.end_gen g
  in
  let tbl =
    run_benchmarks
      [
        Test.make ~name:"direct" (Staged.stage (fun () -> Sys.opaque_identity (gen_vcode_checked ())));
        Test.make ~name:"virt" (Staged.stage (fun () -> Sys.opaque_identity (gen_virt ())));
      ]
  in
  let get n = try Hashtbl.find tbl n with Not_found -> nan in
  Printf.printf "   physical registers: %8.1f ns/insn\n"
    (get "direct" /. float_of_int insns_per_body);
  Printf.printf "   virtual registers:  %8.1f ns/insn (%.2fx)\n"
    (get "virt" /. float_of_int insns_per_body)
    (get "virt" /. get "direct");
  record "ablation_vregs.ratio" (get "virt" /. get "direct");
  Printf.printf "   paper: the optional layer costs roughly a factor of two.\n\n"

(* strength-reduction ablation (section 5.4): generated-code quality of
   multiply-by-constant through the reducer vs the multiply unit *)
let bench_ablation_strength () =
  Printf.printf "== ablation-strength (section 5.4 strength reducer) ==\n\n";
  let cfg = Vmachine.Mconfig.dec5000 in
  let measure c reduce =
    (* f(x) = x * c executed 1000 times in a generated loop *)
    let g, args = V.lambda ~base:0x1000 ~leaf:true "%i" in
    let open V.Names in
    let acc = V.getreg_exn g ~cls:`Temp Vtype.I in
    let i = V.getreg_exn g ~cls:`Temp Vtype.I in
    let t = V.getreg_exn g ~cls:`Temp Vtype.I in
    seti g acc 0;
    seti g i 0;
    let top = V.genlabel g and out = V.genlabel g in
    V.label g top;
    bgeii g i 1000 out;
    (if reduce then V.Strength.mul g Vtype.I t args.(0) c
     else V.arith_imm g Op.Mul Vtype.I t args.(0) c);
    addi g acc acc t;
    addii g i i 1;
    jv g top;
    V.label g out;
    reti g acc;
    let code = V.end_gen g in
    let m = Sim.create cfg in
    Vmachine.Mem.install_code m.Sim.mem ~addr:code.Vcode.base code.Vcode.gen.Gen.buf;
    Sim.call m ~entry:code.Vcode.entry_addr [ Sim.Int 37 ];
    ignore (Sim.ret_int m);
    Sim.reset_stats m;
    Sim.call m ~entry:code.Vcode.entry_addr [ Sim.Int 37 ];
    m.Sim.cycles
  in
  Printf.printf "   %-14s %14s %14s %8s\n" "constant" "mult unit" "reduced" "speedup";
  List.iter
    (fun c ->
      let plain = measure c false and red = measure c true in
      record (Printf.sprintf "ablation_strength.mul_%d.speedup" c)
        (float_of_int plain /. float_of_int red);
      Printf.printf "   x * %-10d %14d %14d %7.2fx\n" c plain red
        (float_of_int plain /. float_of_int red))
    [ 2; 10; 1024; 100; 7 ];
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* Section: sim-throughput -- host-side simulator speed (simulated
   instructions retired per host second) in four engine modes:
   plain interpretation ("off"), the shared predecode layer
   (Vmachine.Decode_cache, "predecode"), superblock translation on
   top of predecode (Vmachine.Block_cache, "blocks"), and hot-trace
   region recompilation on top of blocks (Vmachine.Region_cache,
   "regions").  This measures the harness itself, not the paper: the
   simulated cycle counts are bit-identical in all four modes
   (test/test_decode_cache.ml, test/test_block_cache.ml and
   test/test_smc_fuzz.ml pin that). *)

(* (interpreter, predecode, +blocks, +regions) insns/sec *)
type tput_rates = { r_off : float; r_pre : float; r_blk : float; r_reg : float }

(* The port adapters and workload fixtures live in {!Workloads}
   (lib/harness), shared with bin/vprof.exe and bin/vtrace.exe; this
   section only keeps the timing discipline.

   One ~0.15s measurement window returns insns/sec.  The modes are
   measured in interleaved rounds (off, predecode, blocks, off, ...)
   and each reports its best window: that way CPU-frequency drift or
   scheduler noise hits every mode alike instead of skewing whichever
   happened to run last, and a bad window can only deflate a single
   round. *)
let tput_rates (module P : Workloads.PORT) ~cfg ~workload ~iters =
  let setup ~predecode ~blocks ~regions =
    let m = P.create ~cfg ~predecode ~blocks ~regions () in
    let prep = P.prepare m ~workload ~iters in
    prep.Workloads.run ();
    (* warm *)
    (m, prep.Workloads.run)
  in
  let measure_window (m, run) =
    P.reset_stats m;
    let t0 = Sys.time () in
    let elapsed = ref 0.0 in
    while !elapsed < 0.15 do
      run ();
      elapsed := Sys.time () -. t0
    done;
    float_of_int (P.insns m) /. !elapsed
  in
  let m_off = setup ~predecode:false ~blocks:false ~regions:false in
  let m_pre = setup ~predecode:true ~blocks:false ~regions:false in
  let m_blk = setup ~predecode:true ~blocks:true ~regions:false in
  let m_reg = setup ~predecode:true ~blocks:true ~regions:true in
  let best_off = ref 0.0 and best_pre = ref 0.0 in
  let best_blk = ref 0.0 and best_reg = ref 0.0 in
  for _ = 1 to 3 do
    let r = measure_window m_off in
    if r > !best_off then best_off := r;
    let r = measure_window m_pre in
    if r > !best_pre then best_pre := r;
    let r = measure_window m_blk in
    if r > !best_blk then best_blk := r;
    let r = measure_window m_reg in
    if r > !best_reg then best_reg := r
  done;
  { r_off = !best_off; r_pre = !best_pre; r_blk = !best_blk; r_reg = !best_reg }

(* rates executing a tight generated ALU loop *)
let loop_rates p = tput_rates p ~cfg:Vmachine.Mconfig.test_config ~workload:"alu-loop" ~iters:10_000

(* the MIPS DPF classify workload (the Table 3 fixture) end-to-end;
   classifications are short (~50 insns), so the workload batches 1000
   per window to keep the clock reads off the measured path *)
let dpf_classify_rates () =
  tput_rates
    (module Workloads.Mips_port)
    ~cfg:Vmachine.Mconfig.dec5000 ~workload:"dpf-classify" ~iters:1000

(* rates executing the nested region-friendly loop (hot superblock
   chains with heavily-biased interior branches — the tier-3 showcase) *)
let region_loop_rates p =
  tput_rates p ~cfg:Vmachine.Mconfig.test_config ~workload:"region-loop" ~iters:20_000

let bench_sim_throughput () =
  Printf.printf "== sim-throughput (simulated insns per host second) ==\n";
  Printf.printf "   predecode memoizes instruction decode by code address; blocks\n";
  Printf.printf "   compiles decoded runs into chained closures; regions recompile\n";
  Printf.printf "   hot superblock chains into fused traces.  Simulated cycle\n";
  Printf.printf "   counts are identical in all four modes.\n\n";
  Printf.printf "   %-8s %-14s %10s %10s %10s %10s %8s %8s\n" "target" "workload" "off (M/s)"
    "pre (M/s)" "blk (M/s)" "reg (M/s)" "blk/pre" "reg/blk";
  let row target workload (r : tput_rates) =
    let key m_ = Printf.sprintf "sim_throughput.%s.%s.%s" (slug target) (slug workload) m_ in
    record (key "off_insns_per_sec") r.r_off;
    record (key "predecode_insns_per_sec") r.r_pre;
    record (key "blocks_insns_per_sec") r.r_blk;
    record (key "regions_insns_per_sec") r.r_reg;
    record (key "predecode_speedup") (r.r_pre /. r.r_off);
    record (key "blocks_speedup") (r.r_blk /. r.r_pre);
    record (key "blocks_total_speedup") (r.r_blk /. r.r_off);
    record (key "regions_speedup") (r.r_reg /. r.r_blk);
    record (key "regions_total_speedup") (r.r_reg /. r.r_off);
    Printf.printf "   %-8s %-14s %10.2f %10.2f %10.2f %10.2f %7.2fx %7.2fx\n" target workload
      (r.r_off /. 1e6) (r.r_pre /. 1e6) (r.r_blk /. 1e6) (r.r_reg /. 1e6)
      (r.r_blk /. r.r_pre) (r.r_reg /. r.r_blk)
  in
  List.iter
    (fun (name, p) -> row name "alu-loop" (loop_rates p))
    Workloads.ports;
  List.iter
    (fun (name, p) -> row name "region-loop" (region_loop_rates p))
    Workloads.ports;
  row "mips" "dpf-classify" (dpf_classify_rates ());
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* Section: corpus — the external .asm workloads (workloads/*.asm,
   assembled by the lib/asm front-end) through the same interleaved
   best-window timing discipline as sim-throughput.  These are real
   guest programs (recursion, in-place sorts, indirect-jump state
   machines) rather than generated fixtures, so the four engine tiers
   are measured against control flow the generators never emit.  The
   corpus lives outside the binary; a checkout without workloads/ (or
   a bare install) skips the section rather than failing. *)

let corpus_rows = [ ("josephus", 64); ("sort", 96); ("statemach", 512) ]

let bench_corpus () =
  Printf.printf "== corpus (external .asm workloads on simulated mips) ==\n";
  Printf.printf "   assembled from workloads/*.asm by lib/asm; same modes and\n";
  Printf.printf "   timing windows as sim-throughput.\n\n";
  match Workloads.corpus_dir () with
  | None -> Printf.printf "   workloads/ directory not found; section skipped\n\n"
  | Some _ ->
    Printf.printf "   %-8s %-14s %10s %10s %10s %10s %8s %8s\n" "target" "workload"
      "off (M/s)" "pre (M/s)" "blk (M/s)" "reg (M/s)" "blk/pre" "reg/blk";
    List.iter
      (fun (workload, iters) ->
        let r =
          tput_rates
            (module Workloads.Mips_port)
            ~cfg:Vmachine.Mconfig.dec5000 ~workload:("asm:" ^ workload) ~iters
        in
        let key m_ = Printf.sprintf "corpus.mips.%s.%s" (slug workload) m_ in
        record (key "off_insns_per_sec") r.r_off;
        record (key "predecode_insns_per_sec") r.r_pre;
        record (key "blocks_insns_per_sec") r.r_blk;
        record (key "regions_insns_per_sec") r.r_reg;
        record (key "regions_total_speedup") (r.r_reg /. r.r_off);
        Printf.printf "   %-8s %-14s %10.2f %10.2f %10.2f %10.2f %7.2fx %7.2fx\n" "mips"
          workload (r.r_off /. 1e6) (r.r_pre /. 1e6) (r.r_blk /. 1e6) (r.r_reg /. 1e6)
          (r.r_blk /. r.r_pre) (r.r_reg /. r.r_blk))
      corpus_rows;
    (* per-run tail latency: an enabled sink over 200 blocks-tier
       timed run calls feeds the mips.run_ns stopwatch dist (the
       throughput rows above keep the disabled sink's zero-cost path) *)
    let module T = Vmachine.Telemetry in
    Printf.printf "\n   per-run latency (host ns, blocks tier, 200 runs):\n";
    Printf.printf "   %-14s %10s %10s %10s\n" "workload" "p50" "p99" "p999";
    List.iter
      (fun (workload, iters) ->
        let module P = Workloads.Mips_port in
        let tel_l = T.create () in
        let m =
          P.create ~cfg:Vmachine.Mconfig.dec5000 ~telemetry:tel_l ~predecode:true
            ~blocks:true ~regions:false ()
        in
        let prep = P.prepare ~tel:tel_l m ~workload:("asm:" ^ workload) ~iters in
        for _ = 1 to 200 do
          prep.Workloads.run ()
        done;
        let st = T.dist_stats tel_l (T.dist tel_l "mips.run_ns") in
        let q x = T.quantile_of_stats st x in
        let key m_ = Printf.sprintf "corpus.mips.%s.run_ns.%s" (slug workload) m_ in
        record (key "p50") (float_of_int (q 0.5));
        record (key "p99") (float_of_int (q 0.99));
        record (key "p999") (float_of_int (q 0.999));
        Printf.printf "   %-14s %10d %10d %10d\n" workload (q 0.5) (q 0.99) (q 0.999))
      corpus_rows;
    Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* Section: router — the multi-tenant registry (lib/server) as a
   synthetic packet router: 10k compiled DPF filters installed into
   slab arenas, then a packet stream demultiplexed against them under
   continuous churn (evict-oldest + install-fresh every 32 packets).
   Two headline rates: filter installs per host second (single-buffer
   vs the batched scratch-buffer compile queue) and packets per host
   second per engine tier.  Every classification is checked against
   the installed fid, so these numbers only exist if eviction never
   leaks a stale translation. *)

let router_nfilters = 10_000

let bench_router () =
  Printf.printf "== router (registry service: %d DPF filters under churn) ==\n"
    router_nfilters;
  Printf.printf "   install = compile filter + place in slab arena + publish;\n";
  Printf.printf "   batched reuses one scratch code buffer across the queue and\n";
  Printf.printf "   clears capacity evictions one scan per chunk, not per install.\n\n";
  let module P = Workloads.Mips_port in
  let cfg = Vmachine.Mconfig.router in
  let fresh ?arena_slabs ~predecode ~blocks ~regions () =
    let m = P.create ~cfg ~telemetry:(tel ()) ~predecode ~blocks ~regions () in
    P.router ~tel:(tel ()) ?arena_slabs m
  in
  (* Install throughput, measured where a service actually lives: at
     capacity.  Both registries' code windows hold exactly the fleet
     (10k single-filter slabs), both are filled, and then further
     installs of fresh endpoints are timed — every one forces a
     capacity eviction.  One-at-a-time installs pay a full O(live)
     coldest scan per install; the batched queue clears its chunk's
     worth of coldest regions in one scan (identical eviction order)
     and reuses one scratch code buffer across the compiles.  The two
     paths are interleaved at chunk granularity over the same
     allocator/GC state, and each side reports its median per-chunk
     rate, so a descheduled chunk inflates one sample, not the
     estimate.  Interpreter-tier machines: the engine tier only
     changes how invalidation traffic is consumed, not the install
     path itself. *)
  let median a =
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let chunk = 256 in
  let mk_full () =
    let r =
      fresh ~arena_slabs:router_nfilters ~predecode:false ~blocks:false ~regions:false ()
    in
    r.Workloads.rt_install ~n:router_nfilters ~batched:true;
    r
  in
  let measure_churn_installs () =
    let rs = mk_full () and rb = mk_full () in
    let nchunks = 12 in
    let ts = Array.make nchunks 0.0 and tb = Array.make nchunks 0.0 in
    for i = 0 to nchunks - 1 do
      let t0 = Unix.gettimeofday () in
      rs.Workloads.rt_install ~n:chunk ~batched:false;
      let t1 = Unix.gettimeofday () in
      rb.Workloads.rt_install ~n:chunk ~batched:true;
      let t2 = Unix.gettimeofday () in
      ts.(i) <- t1 -. t0;
      tb.(i) <- t2 -. t1
    done;
    (float_of_int chunk /. median ts, float_of_int chunk /. median tb)
  in
  (* fleet build rate: empty registry to 10k resident, batched queue *)
  let build_rate =
    let r = fresh ~predecode:false ~blocks:false ~regions:false () in
    let t0 = Unix.gettimeofday () in
    r.Workloads.rt_install ~n:router_nfilters ~batched:true;
    float_of_int router_nfilters /. (Unix.gettimeofday () -. t0)
  in
  ignore (measure_churn_installs () : float * float) (* warm caches/allocator *);
  let inst_single, inst_batched = measure_churn_installs () in
  let batch_speedup = inst_batched /. inst_single in
  record "router.nfilters" (float_of_int router_nfilters);
  record "router.installs_per_sec_build" build_rate;
  record "router.installs_per_sec_single" inst_single;
  record "router.installs_per_sec_batched" inst_batched;
  record "router.installs_per_sec" inst_batched;
  record "router.batch_speedup" batch_speedup;
  Printf.printf "   fleet build (batched, empty arena): %.0f installs/sec\n" build_rate;
  Printf.printf
    "   at capacity (every install evicts): single %.0f   batched %.0f   (batch speedup %.2fx)\n\n"
    inst_single inst_batched batch_speedup;
  (* demux throughput per engine tier, same interleaving-free best-of-3
     window discipline as sim-throughput *)
  Printf.printf "   %-10s %14s %10s\n" "mode" "packets/s" "drops";
  let demux name (predecode, blocks, regions) =
    let r = fresh ~predecode ~blocks ~regions () in
    r.Workloads.rt_install ~n:router_nfilters ~batched:true;
    r.Workloads.rt_packets ~n:2000 ~churn_every:32 (* warm *);
    let best = ref 0.0 in
    for _ = 1 to 3 do
      let t0 = Sys.time () in
      let total = ref 0 and elapsed = ref 0.0 in
      while !elapsed < 0.15 do
        r.Workloads.rt_packets ~n:1000 ~churn_every:32;
        total := !total + 1000;
        elapsed := Sys.time () -. t0
      done;
      let rate = float_of_int !total /. !elapsed in
      if rate > !best then best := rate
    done;
    r.Workloads.rt_sync ();
    record (Printf.sprintf "router.packets_per_sec.%s" (slug name)) !best;
    Printf.printf "   %-10s %14.0f %10d\n" name !best (r.Workloads.rt_drops ());
    !best
  in
  let rates = List.map (fun (name, flags) -> demux name flags) Workloads.modes in
  (* headline: the blocks tier, the default engine recommendation *)
  (match rates with
  | [ _; _; blk; _ ] -> record "router.packets_per_sec" blk
  | _ -> ());
  (* tail latency: a dedicated enabled sink (independent of
     --telemetry, so the throughput sections above keep their
     zero-overhead disabled path) feeds the install/classify stopwatch
     dists; percentiles interpolated from the log2 buckets.  bin/vprof
     is the interactive view of the same distributions. *)
  let module T = Vmachine.Telemetry in
  let tel_l = T.create () in
  let m = P.create ~cfg ~telemetry:tel_l ~predecode:true ~blocks:true ~regions:false () in
  let r = P.router ~tel:tel_l m in
  r.Workloads.rt_install ~n:2000 ~batched:true;
  r.Workloads.rt_packets ~n:8000 ~churn_every:32;
  r.Workloads.rt_sync ();
  Printf.printf "   tail latency (host ns, blocks tier, 8000 packets, churn/32):\n";
  Printf.printf "   %-22s %10s %10s %10s\n" "op" "p50" "p99" "p999";
  List.iter
    (fun (dist_name, key) ->
      let st = T.dist_stats tel_l (T.dist tel_l dist_name) in
      let q x = T.quantile_of_stats st x in
      let p50 = q 0.5 and p99 = q 0.99 and p999 = q 0.999 in
      record (Printf.sprintf "router.%s.p50" key) (float_of_int p50);
      record (Printf.sprintf "router.%s.p99" key) (float_of_int p99);
      record (Printf.sprintf "router.%s.p999" key) (float_of_int p999);
      Printf.printf "   %-22s %10d %10d %10d\n" dist_name p50 p99 p999)
    [ ("server.install_ns", "install_ns"); ("router.classify_ns", "classify_ns") ];
  Printf.printf "\n";
  (inst_single, inst_batched, batch_speedup)

(* ------------------------------------------------------------------ *)
(* Section: json-selftest -- deliberately record non-finite values so a
   `--json FILE` run exercises the null fallback in [Report.json_float]; the
   json_check tool then verifies the file is strictly parseable. *)

let bench_json_selftest () =
  Printf.printf "== json-selftest (non-finite values must serialize as null) ==\n\n";
  record "json_selftest.nan" Float.nan;
  record "json_selftest.pos_inf" Float.infinity;
  record "json_selftest.neg_inf" Float.neg_infinity;
  record "json_selftest.finite" 1.5;
  record "json_selftest.tiny" 1e-300;
  record "json_selftest.huge" 1e300;
  Printf.printf "   recorded nan/inf/-inf/finite probes under json_selftest.*\n\n"

(* ------------------------------------------------------------------ *)

let run_all () =
  let dcg_ratio, dcg_raw_ratio, alloc_ratio = bench_codegen () in
  let dpf_us, pf_us, mpf_us = bench_table3 () in
  bench_table4 ();
  let _, dpf_peep_us, dpf_words_saved = bench_peephole () in
  bench_space ();
  bench_ablation_dpf ();
  bench_ablation_vregs ();
  bench_ablation_strength ();
  bench_sim_throughput ();
  bench_corpus ();
  let _, _, batch = bench_router () in
  Printf.printf "== summary ==\n";
  Printf.printf "   router: batched installs %.2fx single-buffer installs\n" batch;
  Printf.printf
    "   codegen: dcg/vcode %.1fx (vs raw emitters %.1fx; paper ~35x), alloc ratio %.1fx\n"
    dcg_ratio dcg_raw_ratio alloc_ratio;
  Printf.printf "   table 3: DPF %.2fus, PATHFINDER %.2fus (%.1fx), MPF %.2fus (%.1fx)\n"
    dpf_us pf_us (pf_us /. dpf_us) mpf_us (mpf_us /. dpf_us);
  Printf.printf "   peephole: dpf %.2fus, %d code words saved\n" dpf_peep_us
    dpf_words_saved

let usage () =
  prerr_endline
    "usage: main.exe [--json FILE] [--telemetry] [MODE...]\n\
     modes: all (default) codegen table3 table4 peephole space ablations\n\
     \       sim-throughput corpus router json-selftest";
  exit 2

let run_mode = function
  | "all" -> run_all ()
  | "codegen" -> ignore (bench_codegen ())
  | "table3" -> ignore (bench_table3 ())
  | "table4" -> bench_table4 ()
  | "peephole" -> ignore (bench_peephole () : float * float * int)
  | "space" -> bench_space ()
  | "ablations" ->
      bench_ablation_dpf ();
      bench_ablation_vregs ();
      bench_ablation_strength ()
  | "sim-throughput" -> bench_sim_throughput ()
  | "corpus" -> bench_corpus ()
  | "router" -> ignore (bench_router () : float * float * float)
  | "json-selftest" -> bench_json_selftest ()
  | m ->
      Printf.eprintf "unknown mode %S\n" m;
      usage ()

let () =
  let rec parse modes json = function
    | [] -> (List.rev modes, json)
    | "--json" :: path :: rest -> parse modes (Some path) rest
    | "--telemetry" :: rest ->
        if !tel_sink = None then tel_sink := Some (Vmachine.Telemetry.create ());
        parse modes json rest
    | [ "--json" ] ->
        prerr_endline "--json requires a file path";
        usage ()
    | ("--help" | "-h") :: _ -> usage ()
    | m :: rest -> parse (m :: modes) json rest
  in
  let modes, json = parse [] None (List.tl (Array.to_list Sys.argv)) in
  let modes = if modes = [] then [ "all" ] else modes in
  Printf.printf "VCODE reproduction benchmarks\n";
  Printf.printf "=============================\n\n";
  List.iter run_mode modes;
  match json with None -> () | Some path -> write_json path
