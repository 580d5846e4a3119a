(* Block-cache (superblock translation) tests.

   The translation layer (Vmachine.Block_cache) compiles decoded
   straight-line runs into chained closures; it is a host-side
   accelerator only, so the load-bearing property is *timing
   neutrality*: simulated cycle counts and cache hit/miss statistics
   must be bit-identical across all four engine modes — plain
   interpretation, predecode only, predecode + blocks, and the
   region tier on top — on every port.  The first half pins that on the mixed-ALU loop and on the
   paper's Table 3 (DPF) and Table 4 (ASH) workloads; the second half
   covers the Block_cache unit contract (overlap invalidation, the
   dirty/Retired protocol's flag) and the composable Mem write
   watchers the invalidation rides on. *)

open Vcodebase

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Per-port glue: create takes both engine switches                    *)

module type PORT = sig
  type sim

  val name : string
  val create : predecode:bool -> blocks:bool -> regions:bool -> sim
  val install : sim -> Vcode.code -> unit
  val call_ints : sim -> entry:int -> int list -> int
  val flush_caches : sim -> unit

  (* cycles, insns, icache (hits, misses), dcache (hits, misses) *)
  val stats : sim -> int * int * (int * int) * (int * int)
end

module Make_port
    (T : Target.S)
    (S : sig
      type t

      val create : predecode:bool -> blocks:bool -> regions:bool -> t
      val install : t -> Vcode.code -> unit
      val call_ints : t -> entry:int -> int list -> int
      val flush_caches : t -> unit
      val stats : t -> int * int * (int * int) * (int * int)
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

  (* f (n) = sum of a short mixed-ALU loop body executed n times; same
     fixture as the decode-cache tests *)
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

      let create ~predecode ~blocks ~regions =
        S.create ~predecode ~blocks ~regions Vmachine.Mconfig.test_config

      let install m (c : Vcode.code) =
        Vmachine.Mem.install_code m.S.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

      let call_ints m ~entry vals =
        S.call m ~entry (List.map (fun v -> S.Int v) vals);
        S.ret_int m

      let flush_caches = S.flush_caches

      let stats (m : t) =
        (m.S.cycles, m.S.insns, Vmachine.Cache.stats m.S.icache, Vmachine.Cache.stats m.S.dcache)
    end)

module Sparc_port =
  Make_port
    (Vsparc.Sparc_backend)
    (struct
      module S = Vsparc.Sparc_sim

      type t = S.t

      let create ~predecode ~blocks ~regions =
        S.create ~predecode ~blocks ~regions Vmachine.Mconfig.test_config

      let install m (c : Vcode.code) =
        Vmachine.Mem.install_code m.S.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

      let call_ints m ~entry vals =
        S.call m ~entry (List.map (fun v -> S.Int v) vals);
        S.ret_int m

      let flush_caches = S.flush_caches

      let stats (m : t) =
        (m.S.cycles, m.S.insns, Vmachine.Cache.stats m.S.icache, Vmachine.Cache.stats m.S.dcache)
    end)

module Alpha_port =
  Make_port
    (Valpha.Alpha_backend)
    (struct
      module S = Valpha.Alpha_sim

      type t = S.t

      let create ~predecode ~blocks ~regions =
        S.create ~predecode ~blocks ~regions Vmachine.Mconfig.test_config

      let install m (c : Vcode.code) =
        Vmachine.Mem.install_code m.S.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

      let call_ints m ~entry vals =
        S.call m ~entry (List.map (fun v -> S.Int v) vals);
        S.ret_int m

      let flush_caches = S.flush_caches

      let stats (m : t) =
        (m.S.cycles, m.S.insns, Vmachine.Cache.stats m.S.icache, Vmachine.Cache.stats m.S.dcache)
    end)

module Ppc_port =
  Make_port
    (Vppc.Ppc_backend)
    (struct
      module S = Vppc.Ppc_sim

      type t = S.t

      let create ~predecode ~blocks ~regions =
        S.create ~predecode ~blocks ~regions Vmachine.Mconfig.test_config

      let install m (c : Vcode.code) =
        Vmachine.Mem.install_code m.S.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

      let call_ints m ~entry vals =
        S.call m ~entry (List.map (fun v -> S.Int v) vals);
        S.ret_int m

      let flush_caches = S.flush_caches

      let stats (m : t) =
        (m.S.cycles, m.S.insns, Vmachine.Cache.stats m.S.icache, Vmachine.Cache.stats m.S.dcache)
    end)

(* ------------------------------------------------------------------ *)
(* Three-way timing identity                                           *)

(* the four engine modes of interest (predecode, blocks, regions) *)
let modes =
  [ ("off", (false, false, false));
    ("predecode", (true, false, false));
    ("blocks", (true, true, false));
    ("regions", (true, true, true)) ]

let quad = Alcotest.(pair int (pair int (pair (pair int int) (pair int int))))
let as_quad (a, b, c, d) = (a, (b, (c, d)))

let loop_timing_case (type s) (module P : PORT with type sim = s) gen_loop () =
  let run (predecode, blocks, regions) =
    let m = P.create ~predecode ~blocks ~regions in
    let code = gen_loop () in
    P.install m code;
    let entry = code.Vcode.entry_addr in
    let r1 = P.call_ints m ~entry [ 500 ] in
    let r2 = P.call_ints m ~entry [ 500 ] in
    P.flush_caches m;
    let r3 = P.call_ints m ~entry [ 500 ] in
    check Alcotest.int (P.name ^ ": warm rerun agrees") r1 r2;
    check Alcotest.int (P.name ^ ": post-flush rerun agrees") r1 r3;
    P.stats m
  in
  let baseline = run (List.assoc "off" modes) in
  List.iter
    (fun (label, mode) ->
      check quad
        (Printf.sprintf "%s: cycles/insns/cache stats identical (%s vs off)" P.name label)
        (as_quad baseline) (as_quad (run mode)))
    modes

let test_timing_mips () = loop_timing_case (module Mips_port) Mips_port.gen_loop ()
let test_timing_sparc () = loop_timing_case (module Sparc_port) Sparc_port.gen_loop ()
let test_timing_alpha () = loop_timing_case (module Alpha_port) Alpha_port.gen_loop ()
let test_timing_ppc () = loop_timing_case (module Ppc_port) Ppc_port.gen_loop ()

(* Table 3 workload: DPF packet classification on the simulated DEC5000 *)
let test_timing_table3_dpf () =
  let module DP = Dpf.Make (Vmips.Mips_backend) in
  let module S = Vmips.Mips_sim in
  let pkt_addr = 0x80000 in
  let run (predecode, blocks, regions) =
    let cfg = Vmachine.Mconfig.dec5000 in
    let filters = Dpf.Filter.tcpip_filters 10 in
    let c = DP.compile ~base:0x1000 ~table_base:0x200000 filters in
    let m = S.create ~predecode ~blocks ~regions cfg in
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
  let baseline = run (List.assoc "off" modes) in
  List.iter
    (fun (label, mode) ->
      check quad (Printf.sprintf "table3 DPF cycles identical (%s)" label) baseline (run mode))
    modes

(* Table 4 workload: integrated ASH pipeline on the simulated DEC5000 *)
let test_timing_table4_ash () =
  let module ASH = Ash.Make (Vmips.Mips_backend) in
  let module S = Vmips.Mips_sim in
  let src_addr = 0x300000 and dst_addr = 0x312000 in
  let run (predecode, blocks, regions) =
    let cfg = Vmachine.Mconfig.dec5000 in
    let m = S.create ~predecode ~blocks ~regions cfg in
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
  let baseline = run (List.assoc "off" modes) in
  List.iter
    (fun (label, mode) ->
      check quad (Printf.sprintf "table4 ASH cycles identical (%s)" label) baseline (run mode))
    modes

(* ------------------------------------------------------------------ *)
(* The translation must actually be engaged: with tier-up off
   ([~hot_calls:0]) compiles happen on first touch, then stay flat while later calls retire instructions from
   resident blocks.                                                    *)

let test_blocks_engaged () =
  let module S = Vmips.Mips_sim in
  let m = S.create ~hot_calls:0 Vmachine.Mconfig.test_config in
  let code = Mips_port.gen_loop () in
  Vmachine.Mem.install_code m.S.mem ~addr:code.Vcode.base code.Vcode.gen.Gen.buf;
  let entry = code.Vcode.entry_addr in
  S.call m ~entry [ S.Int 100 ];
  let compiles1, _ = Vmachine.Block_cache.stats m.S.bc in
  check Alcotest.bool "first call compiles blocks" true (compiles1 > 0);
  let insns1 = m.S.insns in
  for _ = 1 to 50 do
    S.call m ~entry [ S.Int 100 ]
  done;
  check Alcotest.bool "later calls retire instructions" true (m.S.insns > 50 * insns1 / 2);
  let compiles51, inv51 = Vmachine.Block_cache.stats m.S.bc in
  check Alcotest.int "no recompiles on later calls" compiles1 compiles51;
  check Alcotest.int "no spurious invalidations" 0 inv51;
  (* and a disabled translation never compiles *)
  let m0 = S.create ~blocks:false Vmachine.Mconfig.test_config in
  Vmachine.Mem.install_code m0.S.mem ~addr:code.Vcode.base code.Vcode.gen.Gen.buf;
  S.call m0 ~entry [ S.Int 100 ];
  let compiles0, _ = Vmachine.Block_cache.stats m0.S.bc in
  check Alcotest.int "no compiles when disabled" 0 compiles0

(* ------------------------------------------------------------------ *)
(* Block_cache unit behaviour                                          *)

(* test blocks are (entry, len_bytes) pairs *)
let mk_bc () = Vmachine.Block_cache.create ~mem_bytes:(1 lsl 20) ~len_bytes:snd ()

let find_entry bc addr = Option.map fst (Vmachine.Block_cache.find bc addr)

let test_unit_invalidate () =
  let module B = Vmachine.Block_cache in
  let bc = mk_bc () in
  check Alcotest.(option int) "empty" None (find_entry bc 0x100);
  B.set bc 0x100 (1, 16) (* covers [0x100, 0x110) *);
  B.set bc 0x200 (2, 4 * B.max_insns) (* a maximum-length block *);
  B.set bc 0x40000 (3, 8) (* beyond the initial array: growth *);
  check Alcotest.(option int) "hit" (Some 1) (find_entry bc 0x100);
  check Alcotest.(option int) "hit high" (Some 3) (find_entry bc 0x40000);
  check Alcotest.(option int) "misaligned misses" None (find_entry bc 0x102);
  check Alcotest.(option int) "out of range misses" None (find_entry bc (1 lsl 21));
  check Alcotest.(option int) "no block at interior address" None (find_entry bc 0x104);
  (* a one-byte store into a block's interior drops it — and only it *)
  B.begin_block bc;
  check Alcotest.bool "dirty cleared by begin_block" false (B.dirty bc);
  B.invalidate bc 0x10f 1;
  check Alcotest.(option int) "overlapped block dropped" None (find_entry bc 0x100);
  check Alcotest.(option int) "neighbour kept" (Some 2) (find_entry bc 0x200);
  check Alcotest.bool "drop sets dirty" true (B.dirty bc);
  (* a store into the *last* word of a max-length block still finds it:
     the scan window reaches back max_insns instructions *)
  B.begin_block bc;
  B.invalidate bc (0x200 + (4 * B.max_insns) - 1) 1;
  check Alcotest.(option int) "store at far end drops long block" None (find_entry bc 0x200);
  check Alcotest.bool "far-end drop sets dirty" true (B.dirty bc);
  (* a store just past a block's covered range drops nothing *)
  B.set bc 0x300 (4, 12);
  B.begin_block bc;
  B.invalidate bc 0x30c 4;
  check Alcotest.(option int) "adjacent store keeps block" (Some 4) (find_entry bc 0x300);
  check Alcotest.bool "no drop leaves dirty clear" false (B.dirty bc);
  (* a write entirely outside the filled span is rejected by the span
     check and drops nothing *)
  B.invalidate bc 0x80000 64;
  check Alcotest.(option int) "unrelated write keeps entries" (Some 4) (find_entry bc 0x300);
  let compiles, invalidations = B.stats bc in
  check Alcotest.int "compile count" 4 compiles;
  check Alcotest.int "invalidation count" 2 invalidations;
  B.clear bc;
  check Alcotest.(option int) "clear drops all" None (find_entry bc 0x300);
  check Alcotest.(option int) "clear drops high" None (find_entry bc 0x40000);
  check Alcotest.bool "clear sets dirty" true (B.dirty bc)

(* ------------------------------------------------------------------ *)
(* hot_blocks ordering: execution count descending, entry address
   ascending on ties — documented and load-bearing, because the list
   doubles as the region-promotion scan and vtrace's --inject-hot
   victim choice.                                                      *)

let test_unit_hot_blocks () =
  let module B = Vmachine.Block_cache in
  let bc =
    B.create ~tel:(Vmachine.Telemetry.create ()) ~mem_bytes:(1 lsl 20) ~len_bytes:snd ()
  in
  List.iter (fun e -> B.set bc e (e, 8)) [ 0x100; 0x200; 0x300; 0x400; 0x500 ];
  let bump e n = for _ = 1 to n do B.note_exec bc e done in
  bump 0x100 3;
  bump 0x200 7;
  bump 0x300 3;
  bump 0x400 7;
  bump 0x500 1;
  check
    Alcotest.(list (pair int int))
    "count descending, address ascending on ties"
    [ (0x200, 7); (0x400, 7); (0x100, 3); (0x300, 3); (0x500, 1) ]
    (B.hot_blocks bc);
  check
    Alcotest.(list (pair int int))
    "limit truncates the same ordering"
    [ (0x200, 7); (0x400, 7); (0x100, 3) ]
    (B.hot_blocks ~limit:3 bc);
  check Alcotest.(list (pair int int)) "no executions, no rows" [] (B.hot_blocks ~limit:0 bc)

(* ------------------------------------------------------------------ *)
(* Composable write watchers: both registered watchers observe one
   store (the contract the double registration of Decode_cache and
   Block_cache invalidation relies on).                                *)

let test_add_write_watcher () =
  let module M = Vmachine.Mem in
  let mem = M.create ~size:4096 () in
  let log = ref [] in
  let w1 = M.add_write_watcher mem (fun addr len -> log := ("first", addr, len) :: !log) in
  let _w2 = M.add_write_watcher mem (fun addr len -> log := ("second", addr, len) :: !log) in
  M.write_u32 mem 0x40 0xdeadbeef;
  check
    Alcotest.(list (triple string int int))
    "both watchers fire, in registration order"
    [ ("first", 0x40, 4); ("second", 0x40, 4) ]
    (List.rev !log);
  log := [];
  M.write_u8 mem 0x91 7;
  check
    Alcotest.(list (triple string int int))
    "byte store reported to both"
    [ ("first", 0x91, 1); ("second", 0x91, 1) ]
    (List.rev !log);
  (* removing the first leaves only the second on the store path *)
  log := [];
  M.remove_write_watcher mem w1;
  M.write_u32 mem 0x44 1;
  check
    Alcotest.(list (triple string int int))
    "removed watcher no longer fires"
    [ ("second", 0x44, 4) ]
    (List.rev !log);
  (* removal is idempotent *)
  M.remove_write_watcher mem w1;
  Alcotest.(check int) "one live watcher" 1 (M.watcher_count mem);
  (* set_write_watcher still replaces everything *)
  log := [];
  M.set_write_watcher mem (fun addr len -> log := ("only", addr, len) :: !log);
  M.write_u16 mem 0x10 3;
  check
    Alcotest.(list (triple string int int))
    "set_write_watcher replaces previous watchers"
    [ ("only", 0x10, 2) ]
    (List.rev !log);
  Alcotest.(check int) "set leaves one live watcher" 1 (M.watcher_count mem);
  (* N add/remove cycles leave the store path flat: after churn only the
     survivor fires, exactly once per store, and the live count is 1 —
     the dispatcher is rebuilt from live watchers, not wrapped per
     historical registration *)
  let fires = ref 0 in
  M.set_write_watcher mem (fun _ _ -> incr fires);
  for _ = 1 to 1000 do
    let w = M.add_write_watcher mem (fun _ _ -> ()) in
    M.remove_write_watcher mem w
  done;
  Alcotest.(check int) "churn leaves one live watcher" 1 (M.watcher_count mem);
  M.write_u32 mem 0x80 5;
  Alcotest.(check int) "survivor fires exactly once after churn" 1 !fires

let () =
  Alcotest.run "block-cache"
    [
      ( "timing-neutral",
        [
          Alcotest.test_case "loop (mips)" `Quick test_timing_mips;
          Alcotest.test_case "loop (sparc)" `Quick test_timing_sparc;
          Alcotest.test_case "loop (alpha)" `Quick test_timing_alpha;
          Alcotest.test_case "loop (ppc)" `Quick test_timing_ppc;
          Alcotest.test_case "table3 dpf workload" `Quick test_timing_table3_dpf;
          Alcotest.test_case "table4 ash workload" `Quick test_timing_table4_ash;
        ] );
      ( "unit",
        [
          Alcotest.test_case "blocks engaged" `Quick test_blocks_engaged;
          Alcotest.test_case "invalidate/clear/dirty" `Quick test_unit_invalidate;
          Alcotest.test_case "hot_blocks ordering" `Quick test_unit_hot_blocks;
          Alcotest.test_case "composable write watchers" `Quick test_add_write_watcher;
        ] );
    ]
