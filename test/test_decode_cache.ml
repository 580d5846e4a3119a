(* Decode-cache coherence and timing-neutrality tests.

   The predecode layer (Vmachine.Decode_cache) memoizes instruction
   decode by code address.  VCODE's whole point is regenerating code at
   runtime, so the dangerous bug class is a stale translation: code is
   regenerated at the same address (install_code) or patched by a store
   (self-modifying code) and the simulator keeps executing the old
   decoded instructions.  These tests construct exactly those scenarios
   on every port and assert the *new* behaviour is observed; they fail
   against any implementation that caches without invalidating.

   The second half pins down timing neutrality: simulated cycle counts
   and cache hit/miss statistics on the Table 3 (DPF) and Table 4 (ASH)
   workloads must be bit-identical with predecoding on and off, because
   the predecode cache is a host-side accelerator, not a machine-model
   change. *)

open Vcodebase

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Per-port glue                                                       *)

module type PORT = sig
  type sim

  val name : string
  val create : predecode:bool -> sim
  val install : sim -> Vcode.code -> unit
  val call_ints : sim -> entry:int -> int list -> int
  val flush_caches : sim -> unit

  (* cycles, insns, icache (hits, misses), dcache (hits, misses) *)
  val stats : sim -> int * int * (int * int) * (int * int)

  (* decode-cache fills so far: nonzero once a call ran translated *)
  val pdc_fills : sim -> int
end

module Make_port
    (T : Target.S)
    (S : sig
      type t

      val create : predecode:bool -> t
      val install : t -> Vcode.code -> unit
      val call_ints : t -> entry:int -> int list -> int
      val flush_caches : t -> unit
      val stats : t -> int * int * (int * int) * (int * int)
      val pdc_fills : t -> int
    end) =
struct
  module V = Vcode.Make (T)

  type sim = S.t

  let name = T.desc.Machdesc.name
  let base = 0x10000

  let create = S.create
  let install = S.install
  let call_ints = S.call_ints
  let flush_caches = S.flush_caches
  let stats = S.stats
  let pdc_fills = S.pdc_fills

  (* f () = k, regenerated with different constants at the same base *)
  let gen_const k =
    let g, _ = V.lambda ~base ~leaf:true "%i" in
    let r = V.getreg_exn g ~cls:`Temp Vtype.I in
    V.set g Vtype.I r (Int64.of_int k);
    V.ret g Vtype.I (Some r);
    V.end_gen g

  (* f (n) = sum of a short mixed-ALU loop body executed n times *)
  let gen_loop () =
    let g, args = V.lambda ~base ~leaf:true "%i" in
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
end

module Mips_port =
  Make_port
    (Vmips.Mips_backend)
    (struct
      module S = Vmips.Mips_sim

      type t = S.t

      let create ~predecode = S.create ~predecode ~hot_calls:0 Vmachine.Mconfig.test_config

      let install m (c : Vcode.code) =
        Vmachine.Mem.install_code m.S.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

      let call_ints m ~entry vals =
        S.call m ~entry (List.map (fun v -> S.Int v) vals);
        S.ret_int m

      let flush_caches = S.flush_caches

      let stats (m : t) =
        (m.S.cycles, m.S.insns, Vmachine.Cache.stats m.S.icache, Vmachine.Cache.stats m.S.dcache)

      let pdc_fills (m : t) = fst (Vmachine.Decode_cache.stats m.S.pdc)
    end)

module Sparc_port =
  Make_port
    (Vsparc.Sparc_backend)
    (struct
      module S = Vsparc.Sparc_sim

      type t = S.t

      let create ~predecode = S.create ~predecode ~hot_calls:0 Vmachine.Mconfig.test_config

      let install m (c : Vcode.code) =
        Vmachine.Mem.install_code m.S.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

      let call_ints m ~entry vals =
        S.call m ~entry (List.map (fun v -> S.Int v) vals);
        S.ret_int m

      let flush_caches = S.flush_caches

      let stats (m : t) =
        (m.S.cycles, m.S.insns, Vmachine.Cache.stats m.S.icache, Vmachine.Cache.stats m.S.dcache)

      let pdc_fills (m : t) = fst (Vmachine.Decode_cache.stats m.S.pdc)
    end)

module Alpha_port =
  Make_port
    (Valpha.Alpha_backend)
    (struct
      module S = Valpha.Alpha_sim

      type t = S.t

      let create ~predecode = S.create ~predecode ~hot_calls:0 Vmachine.Mconfig.test_config

      let install m (c : Vcode.code) =
        Vmachine.Mem.install_code m.S.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

      let call_ints m ~entry vals =
        S.call m ~entry (List.map (fun v -> S.Int v) vals);
        S.ret_int m

      let flush_caches = S.flush_caches

      let stats (m : t) =
        (m.S.cycles, m.S.insns, Vmachine.Cache.stats m.S.icache, Vmachine.Cache.stats m.S.dcache)

      let pdc_fills (m : t) = fst (Vmachine.Decode_cache.stats m.S.pdc)
    end)

module Ppc_port =
  Make_port
    (Vppc.Ppc_backend)
    (struct
      module S = Vppc.Ppc_sim

      type t = S.t

      let create ~predecode = S.create ~predecode ~hot_calls:0 Vmachine.Mconfig.test_config

      let install m (c : Vcode.code) =
        Vmachine.Mem.install_code m.S.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

      let call_ints m ~entry vals =
        S.call m ~entry (List.map (fun v -> S.Int v) vals);
        S.ret_int m

      let flush_caches = S.flush_caches

      let stats (m : t) =
        (m.S.cycles, m.S.insns, Vmachine.Cache.stats m.S.icache, Vmachine.Cache.stats m.S.dcache)

      let pdc_fills (m : t) = fst (Vmachine.Decode_cache.stats m.S.pdc)
    end)

(* ------------------------------------------------------------------ *)
(* Regenerated code at the same address must never execute stale       *)

let regen_case (type s) (module P : PORT with type sim = s) gen_const =
  let m = P.create ~predecode:true in
  let c1 = gen_const 17 in
  P.install m c1;
  let entry = c1.Vcode.entry_addr in
  check Alcotest.int (P.name ^ ": first generation") 17 (P.call_ints m ~entry [ 0 ]);
  check Alcotest.int (P.name ^ ": first generation, warm") 17 (P.call_ints m ~entry [ 0 ]);
  (* the ports create with tier-up off, so the first call already ran
     translated: the checks below really can meet a stale translation *)
  check Alcotest.bool (P.name ^ ": first generation ran translated") true (P.pdc_fills m > 0);
  (* regenerate different code at the same base; a stale-translation bug
     would keep returning 17 *)
  let c2 = gen_const 42 in
  P.install m c2;
  check Alcotest.int (P.name ^ ": regenerated code observed") 42
    (P.call_ints m ~entry:c2.Vcode.entry_addr [ 0 ]);
  (* and again after an explicit v_end-style flush *)
  let c3 = gen_const 7 in
  P.install m c3;
  P.flush_caches m;
  check Alcotest.int (P.name ^ ": regenerated after flush_caches") 7
    (P.call_ints m ~entry:c3.Vcode.entry_addr [ 0 ])

let test_regen_mips () = regen_case (module Mips_port) Mips_port.gen_const
let test_regen_sparc () = regen_case (module Sparc_port) Sparc_port.gen_const
let test_regen_alpha () = regen_case (module Alpha_port) Alpha_port.gen_const
let test_regen_ppc () = regen_case (module Ppc_port) Ppc_port.gen_const

(* ------------------------------------------------------------------ *)
(* Self-modifying code: a store executed by the simulated program that
   rewrites an already-predecoded instruction must be honoured.        *)

let test_self_modifying_store () =
  let module S = Vmips.Mips_sim in
  let module A = Vmips.Mips_asm in
  (* tier-up off: every call runs translated, so a stale predecode or
     block would be executed *)
  let m = S.create ~hot_calls:0 Vmachine.Mconfig.test_config in
  let base = 0x1000 in
  (* f(p, w): mem[p] <- w; ...; v0 <- <insn at 0x100c>; return.
     $a0 = 4, $a1 = 5, $v0 = 2, $ra = 31. *)
  let words =
    [
      A.Sw (5, 4, 0);      (* 0x1000: store the new instruction word  *)
      A.Nop;               (* 0x1004 *)
      A.Nop;               (* 0x1008 *)
      A.Addiu (2, 0, 1);   (* 0x100c: the patch target                *)
      A.Jr 31;             (* 0x1010 *)
      A.Nop;               (* 0x1014: delay slot                      *)
    ]
  in
  List.iteri
    (fun i insn -> Vmachine.Mem.write_u32 m.S.mem (base + (4 * i)) (A.encode insn))
    words;
  let patch_addr = base + 12 in
  let call w =
    S.call m ~entry:base [ S.Int patch_addr; S.Int w ];
    S.ret_int m
  in
  (* first run predecodes the whole function (the store rewrites the
     same word, so behaviour is unchanged) *)
  check Alcotest.int "initial body" 1 (call (A.encode (A.Addiu (2, 0, 1))));
  check Alcotest.bool "initial body ran translated" true
    (fst (Vmachine.Decode_cache.stats m.S.pdc) > 0);
  (* now the program patches its own instruction stream; stale predecode
     would still return 1 *)
  check Alcotest.int "self-modified body" 42 (call (A.encode (A.Addiu (2, 0, 42))));
  check Alcotest.int "re-modified body" 9 (call (A.encode (A.Addiu (2, 0, 9))))

(* the predecode cache must actually be engaged: with tier-up off
   ([~hot_calls:0]) the first call fills
   one entry per static instruction, and every later call is served
   entirely from the cache (fills stay flat while insns grow) *)
let test_predecode_engaged () =
  let module S = Vmips.Mips_sim in
  let m = S.create ~hot_calls:0 Vmachine.Mconfig.test_config in
  let code = Mips_port.gen_const 5 in
  Vmachine.Mem.install_code m.S.mem ~addr:code.Vcode.base code.Vcode.gen.Gen.buf;
  S.call m ~entry:code.Vcode.entry_addr [ S.Int 0 ];
  let fills1, _inv = Vmachine.Decode_cache.stats m.S.pdc in
  check Alcotest.bool "first call fills the cache" true (fills1 > 0);
  let insns1 = m.S.insns in
  for _ = 1 to 50 do
    S.call m ~entry:code.Vcode.entry_addr [ S.Int 0 ]
  done;
  check Alcotest.bool "later calls retire instructions" true (m.S.insns > 50 * insns1 / 2);
  let fills51, inv51 = Vmachine.Decode_cache.stats m.S.pdc in
  check Alcotest.int "no refills on later calls" fills1 fills51;
  check Alcotest.int "no spurious invalidations" 0 inv51;
  (* and a disabled cache never fills *)
  let m0 = S.create ~predecode:false Vmachine.Mconfig.test_config in
  Vmachine.Mem.install_code m0.S.mem ~addr:code.Vcode.base code.Vcode.gen.Gen.buf;
  S.call m0 ~entry:code.Vcode.entry_addr [ S.Int 0 ];
  let fills0, _ = Vmachine.Decode_cache.stats m0.S.pdc in
  check Alcotest.int "no fills when disabled" 0 fills0

(* ------------------------------------------------------------------ *)
(* Timing neutrality: cycles and cache stats identical with and
   without predecoding                                                 *)

let stat_pair (type s) (module P : PORT with type sim = s) gen_loop n =
  let run ~predecode =
    let m = P.create ~predecode in
    let code = gen_loop () in
    P.install m code;
    let entry = code.Vcode.entry_addr in
    let r1 = P.call_ints m ~entry [ n ] in
    let r2 = P.call_ints m ~entry [ n ] in
    P.flush_caches m;
    let r3 = P.call_ints m ~entry [ n ] in
    check Alcotest.int (P.name ^ ": warm rerun agrees") r1 r2;
    check Alcotest.int (P.name ^ ": post-flush rerun agrees") r1 r3;
    P.stats m
  in
  (run ~predecode:true, run ~predecode:false)

let quad =
  Alcotest.(pair int (pair int (pair (pair int int) (pair int int))))

let as_quad (a, b, c, d) = (a, (b, (c, d)))

let loop_timing_case (type s) (module P : PORT with type sim = s) gen_loop () =
  let with_pd, without_pd = stat_pair (module P) gen_loop 500 in
  check quad
    (P.name ^ ": cycles/insns/cache stats identical with and without predecode")
    (as_quad without_pd) (as_quad with_pd)

let test_timing_mips () = loop_timing_case (module Mips_port) Mips_port.gen_loop ()
let test_timing_sparc () = loop_timing_case (module Sparc_port) Sparc_port.gen_loop ()
let test_timing_alpha () = loop_timing_case (module Alpha_port) Alpha_port.gen_loop ()
let test_timing_ppc () = loop_timing_case (module Ppc_port) Ppc_port.gen_loop ()

(* Table 3 workload: DPF packet classification on the simulated DEC5000 *)
let test_timing_table3_dpf () =
  let module DP = Dpf.Make (Vmips.Mips_backend) in
  let module S = Vmips.Mips_sim in
  let pkt_addr = 0x80000 in
  let run ~predecode =
    let cfg = Vmachine.Mconfig.dec5000 in
    let filters = Dpf.Filter.tcpip_filters 10 in
    let c = DP.compile ~base:0x1000 ~table_base:0x200000 filters in
    let m = S.create ~predecode cfg in
    Vmachine.Mem.install_code m.S.mem ~addr:c.Dpf.code.Vcode.base c.Dpf.code.Vcode.gen.Gen.buf;
    DP.install_tables m.S.mem c;
    let total = ref 0 in
    for k = 0 to 199 do
      let port = 1000 + (k mod 10) in
      Dpf.Packet.install m.S.mem ~addr:pkt_addr (Dpf.Packet.tcp ~dst_port:port ());
      S.reset_stats m;
      S.call m ~entry:c.Dpf.entry [ S.Int pkt_addr; S.Int 40 ];
      Alcotest.(check int) "classified" (port - 1000) (S.ret_int m);
      total := !total + m.S.cycles
    done;
    let ih, im = Vmachine.Cache.stats m.S.icache in
    let dh, dm = Vmachine.Cache.stats m.S.dcache in
    (!total, (m.S.insns, ((ih, im), (dh, dm))))
  in
  check quad "table3 DPF cycles identical" (run ~predecode:false) (run ~predecode:true)

(* Table 4 workload: integrated ASH pipeline on the simulated DEC5000 *)
let test_timing_table4_ash () =
  let module ASH = Ash.Make (Vmips.Mips_backend) in
  let module S = Vmips.Mips_sim in
  let src_addr = 0x300000 and dst_addr = 0x312000 in
  let run ~predecode =
    let cfg = Vmachine.Mconfig.dec5000 in
    let m = S.create ~predecode cfg in
    let ash = ASH.gen_ash ~base:0x8000 [ Ash.Copy; Ash.Checksum ] in
    Vmachine.Mem.install_code m.S.mem ~addr:ash.Vcode.base ash.Vcode.gen.Gen.buf;
    let data = Bytes.init (4 * 2048) (fun i -> Char.chr ((i * 131) land 0xff)) in
    Vmachine.Mem.blit_bytes m.S.mem ~addr:src_addr data;
    let call () =
      S.call m ~entry:ash.Vcode.entry_addr [ S.Int dst_addr; S.Int src_addr; S.Int 2048 ];
      S.ret_int m
    in
    let warm = call () in
    Vmachine.Cache.flush m.S.dcache;
    S.reset_stats m;
    let r = call () in
    Alcotest.(check int) "ash result stable" warm r;
    let ih, im = Vmachine.Cache.stats m.S.icache in
    let dh, dm = Vmachine.Cache.stats m.S.dcache in
    (m.S.cycles, (m.S.insns, ((ih, im), (dh, dm))))
  in
  check quad "table4 ASH cycles identical" (run ~predecode:false) (run ~predecode:true)

(* ------------------------------------------------------------------ *)
(* Decode_cache unit behaviour                                         *)

let test_unit_invalidate () =
  let dc = Vmachine.Decode_cache.create ~mem_bytes:(1 lsl 20) () in
  check Alcotest.(option int) "empty" None (Vmachine.Decode_cache.find dc 0x100);
  Vmachine.Decode_cache.set dc 0x100 11;
  Vmachine.Decode_cache.set dc 0x104 22;
  Vmachine.Decode_cache.set dc 0x40000 33 (* beyond the initial array: growth *);
  check Alcotest.(option int) "hit" (Some 11) (Vmachine.Decode_cache.find dc 0x100);
  check Alcotest.(option int) "hit high" (Some 33) (Vmachine.Decode_cache.find dc 0x40000);
  check Alcotest.(option int) "misaligned misses" None (Vmachine.Decode_cache.find dc 0x102);
  check Alcotest.(option int) "out of range misses" None
    (Vmachine.Decode_cache.find dc (1 lsl 21));
  (* a byte store into the middle of a word drops exactly that word *)
  Vmachine.Decode_cache.invalidate dc 0x105 1;
  check Alcotest.(option int) "overlap dropped" None (Vmachine.Decode_cache.find dc 0x104);
  check Alcotest.(option int) "neighbour kept" (Some 11) (Vmachine.Decode_cache.find dc 0x100);
  (* a write entirely outside the filled span is O(1) and drops nothing *)
  Vmachine.Decode_cache.invalidate dc 0x50000 64;
  check Alcotest.(option int) "unrelated write keeps entries" (Some 11)
    (Vmachine.Decode_cache.find dc 0x100);
  Vmachine.Decode_cache.clear dc;
  check Alcotest.(option int) "clear drops all" None (Vmachine.Decode_cache.find dc 0x100);
  check Alcotest.(option int) "clear drops high" None (Vmachine.Decode_cache.find dc 0x40000)

let () =
  Alcotest.run "decode-cache"
    [
      ( "invalidation",
        [
          Alcotest.test_case "regenerate at same address (mips)" `Quick test_regen_mips;
          Alcotest.test_case "regenerate at same address (sparc)" `Quick test_regen_sparc;
          Alcotest.test_case "regenerate at same address (alpha)" `Quick test_regen_alpha;
          Alcotest.test_case "regenerate at same address (ppc)" `Quick test_regen_ppc;
          Alcotest.test_case "self-modifying store" `Quick test_self_modifying_store;
          Alcotest.test_case "predecode engaged" `Quick test_predecode_engaged;
          Alcotest.test_case "unit invalidate/clear" `Quick test_unit_invalidate;
        ] );
      ( "timing-neutral",
        [
          Alcotest.test_case "loop (mips)" `Quick test_timing_mips;
          Alcotest.test_case "loop (sparc)" `Quick test_timing_sparc;
          Alcotest.test_case "loop (alpha)" `Quick test_timing_alpha;
          Alcotest.test_case "loop (ppc)" `Quick test_timing_ppc;
          Alcotest.test_case "table3 dpf workload" `Quick test_timing_table3_dpf;
          Alcotest.test_case "table4 ash workload" `Quick test_timing_table4_ash;
        ] );
    ]
