(* The code-region registry: arena slab accounting, the
   install/replace/evict/lookup service, and — the point of the whole
   exercise — an install/evict/reinstall-at-reused-address lockstep
   fuzz across all four engine modes, pinning that no stale
   translation ever executes after its region is evicted or
   replaced. *)

module A = Vserver.Arena
module SV = Vserver.Server.Make (Vmips.Mips_backend)
module S = Vmips.Mips_sim
module Filter = Dpf.Filter
module Packet = Dpf.Packet
module Mem = Vmachine.Mem

let check = Alcotest.check

let pkt_addr = 0x80000

(* ------------------------------------------------------------------ *)
(* Arena                                                               *)

let test_arena_classes () =
  let base = 0x100000 in
  let a = A.create ~base ~limit:(base + 0x10000) () in
  (match A.alloc a ~words:1 with
  | Some (addr, slab) ->
    check Alcotest.int "first slab at base" base addr;
    check Alcotest.int "1 word -> smallest class" A.class_sizes.(0) slab
  | None -> Alcotest.fail "alloc 1 word");
  (match A.alloc a ~words:(A.class_sizes.(0) + 1) with
  | Some (addr, slab) ->
    check Alcotest.int "bumped past the first slab" (base + (4 * A.class_sizes.(0))) addr;
    check Alcotest.int "rounds up to the next class" A.class_sizes.(1) slab
  | None -> Alcotest.fail "alloc class-1 slab");
  check
    Alcotest.(option int)
    "slab_words sees the live slab"
    (Some A.class_sizes.(0))
    (A.slab_words a base);
  let biggest = A.class_sizes.(Array.length A.class_sizes - 1) in
  check
    Alcotest.(option (pair int int))
    "oversize allocation refused" None
    (A.alloc a ~words:(biggest + 1));
  let st = A.stats a in
  check Alcotest.int "two live slabs" 2 st.A.live_slabs;
  check Alcotest.int "bump frontier moved by both slabs"
    (A.class_sizes.(0) + A.class_sizes.(1))
    st.A.bump_words

let test_arena_lifo_reuse () =
  let base = 0x100000 in
  let a = A.create ~base ~limit:(base + 0x10000) () in
  let alloc words =
    match A.alloc a ~words with
    | Some (addr, _) -> addr
    | None -> Alcotest.fail "arena unexpectedly full"
  in
  let a1 = alloc 10 and a2 = alloc 10 and a3 = alloc 10 in
  check Alcotest.bool "distinct slabs" true (a1 <> a2 && a2 <> a3 && a1 <> a3);
  A.free a a1;
  A.free a a2;
  (* LIFO: the most recently freed slab (the hottest address) is the
     next one handed out — the address-reuse hazard the engine
     invalidation protocol must survive. *)
  check Alcotest.int "last freed, first reused" a2 (alloc 10);
  check Alcotest.int "then the earlier free" a1 (alloc 10);
  (* a fresh allocation after the free list drained bumps, not reuses *)
  check Alcotest.bool "frontier resumes past a3" true (alloc 10 > a3);
  Alcotest.check_raises "free of a dead address"
    (Invalid_argument (Printf.sprintf "Arena.free: 0x%x is not a live slab" 0xdead0))
    (fun () -> A.free a 0xdead0)

let test_arena_exhaustion () =
  let base = 0x100000 in
  let cls = A.class_sizes.(0) in
  (* window holds exactly two smallest-class slabs *)
  let a = A.create ~base ~limit:(base + (4 * 2 * cls)) () in
  let a1 =
    match A.alloc a ~words:cls with Some (x, _) -> x | None -> Alcotest.fail "slab 1"
  in
  (match A.alloc a ~words:cls with None -> Alcotest.fail "slab 2" | Some _ -> ());
  check Alcotest.(option (pair int int)) "window exhausted" None (A.alloc a ~words:cls);
  A.free a a1;
  (match A.alloc a ~words:cls with
  | Some (x, _) -> check Alcotest.int "free list rescues a full window" a1 x
  | None -> Alcotest.fail "post-free alloc");
  let st = A.stats a in
  check Alcotest.int "live count survived the cycle" 2 st.A.live_slabs

(* ------------------------------------------------------------------ *)
(* Registry service                                                    *)

let filter_for ~fid ~port = Filter.tcpip_session ~fid ~dst_ip:0x0A000001 ~dst_port:port

(* classify the resident packet after pointing its dst_port at [port] *)
let classify m ~entry ~port =
  Mem.write_u8 m.S.mem (pkt_addr + 22) ((port lsr 8) land 0xff);
  Mem.write_u8 m.S.mem (pkt_addr + 23) (port land 0xff);
  S.call m ~entry [ S.Int pkt_addr; S.Int 40 ];
  S.ret_int m

(* Tier-up is off by default ([hot_calls] 0): a filter runs translated
   from its first call, so a stale translation over a reused slab would
   be executed rather than bypassed by a cold call. *)
let mk_machine ?(predecode = true) ?(blocks = true) ?(regions = false) ?(hot_calls = 0) () =
  let m = S.create ~predecode ~blocks ~regions ~hot_calls Vmachine.Mconfig.test_config in
  Packet.install m.S.mem ~addr:pkt_addr (Packet.tcp ());
  m

let test_server_basic () =
  let m = mk_machine () in
  let sv = SV.create m.S.mem in
  let e1 = SV.install sv ~key:1 (filter_for ~fid:101 ~port:2001) in
  let e2 = SV.install sv ~key:2 (filter_for ~fid:102 ~port:2002) in
  check Alcotest.int "live" 2 (SV.live sv);
  check Alcotest.(option int) "lookup 1" (Some e1) (SV.lookup sv 1);
  check Alcotest.(option int) "lookup 2" (Some e2) (SV.lookup sv 2);
  check Alcotest.(option int) "lookup miss" None (SV.lookup sv 3);
  check Alcotest.int "filter 1 classifies" 101 (classify m ~entry:e1 ~port:2001);
  check Alcotest.int "filter 2 classifies" 102 (classify m ~entry:e2 ~port:2002);
  check Alcotest.int "filter 2 rejects filter 1's packet" (-1)
    (classify m ~entry:e2 ~port:2001);
  (match SV.find sv 1 with
  | None -> Alcotest.fail "find 1"
  | Some i ->
    check Alcotest.int "info fid" 101 i.SV.fid;
    check Alcotest.int "info entry" e1 i.SV.entry;
    check Alcotest.int "one lookup counted" 1 i.SV.hits;
    check Alcotest.bool "code fits its slab" true
      (i.SV.code_words > 0 && i.SV.code_words <= i.SV.slab_words));
  (* replace: same key, new fid and port; old translation must be gone *)
  let compiles0, _ = Vmachine.Block_cache.stats m.S.bc in
  check Alcotest.bool "filters ran as compiled blocks" true (compiles0 > 0);
  let e1' = SV.install sv ~key:1 (filter_for ~fid:201 ~port:3001) in
  check Alcotest.int "replacement classifies as the new fid" 201
    (classify m ~entry:e1' ~port:3001);
  check Alcotest.bool "replacement ran as freshly compiled blocks" true
    (fst (Vmachine.Block_cache.stats m.S.bc) > compiles0);
  check Alcotest.int "old port no longer accepted" (-1) (classify m ~entry:e1' ~port:2001);
  check Alcotest.bool "evict removes" true (SV.evict sv 2);
  check Alcotest.bool "evict is once" false (SV.evict sv 2);
  check Alcotest.(option int) "evicted key gone" None (SV.lookup sv 2);
  let st = SV.stats sv in
  check Alcotest.int "installs" 3 st.SV.installs;
  check Alcotest.int "replaces" 1 st.SV.replaces;
  check Alcotest.int "evictions" 1 st.SV.evictions;
  check Alcotest.int "lookup hits" 2 st.SV.lookup_hits;
  check Alcotest.int "lookup misses" 2 st.SV.lookup_misses;
  check Alcotest.int "live after churn" 1 (SV.live sv)

let test_server_batch_matches_single () =
  let m1 = mk_machine () and m2 = mk_machine () in
  let sv1 = SV.create m1.S.mem and sv2 = SV.create m2.S.mem in
  let kfs = List.init 20 (fun i -> (i, filter_for ~fid:(500 + i) ~port:(4000 + i))) in
  List.iter (fun (k, f) -> ignore (SV.install sv1 ~key:k f : int)) kfs;
  SV.install_batch sv2 kfs;
  check Alcotest.int "same live count" (SV.live sv1) (SV.live sv2);
  List.iter
    (fun (k, _) ->
      match (SV.find sv1 k, SV.find sv2 k) with
      | Some a, Some b ->
        check Alcotest.int "same base" a.SV.base b.SV.base;
        check Alcotest.int "same entry" a.SV.entry b.SV.entry;
        check Alcotest.int "same code size" a.SV.code_words b.SV.code_words;
        check Alcotest.int "batch region classifies" (500 + k)
          (classify m2 ~entry:b.SV.entry ~port:(4000 + k))
      | _ -> Alcotest.fail "region missing")
    kfs

let test_server_capacity_eviction () =
  let m = mk_machine () in
  (* a tcpip_session lands in the 128-word class; leave room for
     exactly four such slabs so the fifth install must evict *)
  let base = 0x100000 in
  let sv = SV.create ~arena_base:base ~arena_limit:(base + (4 * 4 * 128)) m.S.mem in
  for k = 0 to 3 do
    ignore (SV.install sv ~key:k (filter_for ~fid:(100 + k) ~port:(2000 + k)) : int)
  done;
  (* heat keys 1..3; key 0 stays coldest *)
  for _ = 1 to 3 do
    List.iter (fun k -> ignore (SV.lookup sv k : int option)) [ 1; 2; 3 ]
  done;
  let e4 = SV.install sv ~key:4 (filter_for ~fid:104 ~port:2004) in
  check Alcotest.int "still four live" 4 (SV.live sv);
  check Alcotest.(option int) "coldest key evicted" None (SV.lookup sv 0);
  check Alcotest.int "capacity evictions" 1 (SV.stats sv).SV.capacity_evictions;
  check Alcotest.int "newcomer classifies" 104 (classify m ~entry:e4 ~port:2004);
  (* the reclaimed slab is the one the newcomer got (LIFO reuse) *)
  (match SV.find sv 4 with
  | Some i -> check Alcotest.int "slab address reused" base i.SV.base
  | None -> Alcotest.fail "find 4");
  List.iter
    (fun k ->
      match SV.find sv k with
      | Some i ->
        check Alcotest.int "survivor still classifies" (100 + k)
          (classify m ~entry:i.SV.entry ~port:(2000 + k))
      | None -> Alcotest.fail "survivor missing")
    [ 1; 2; 3 ]

(* The batched queue's bulk eviction (one scan clears the chunk's worth
   of coldest regions) must pick exactly the set that one-at-a-time
   coldest eviction would: same resident keys afterwards. *)
let test_server_bulk_eviction_policy () =
  let m1 = mk_machine () and m2 = mk_machine () in
  let base = 0x100000 in
  let mk m = SV.create ~arena_base:base ~arena_limit:(base + (4 * 6 * 128)) m.S.mem in
  let sv1 = mk m1 and sv2 = mk m2 in
  let fill sv =
    for k = 0 to 5 do
      ignore (SV.install sv ~key:k (filter_for ~fid:(100 + k) ~port:(2000 + k)) : int)
    done;
    (* heat 2..5; 0 and 1 stay coldest *)
    List.iter (fun k -> ignore (SV.lookup sv k : int option)) [ 2; 3; 4; 5 ]
  in
  fill sv1;
  fill sv2;
  let overflow = List.init 2 (fun i -> (10 + i, filter_for ~fid:(110 + i) ~port:(3000 + i))) in
  List.iter (fun (k, f) -> ignore (SV.install sv1 ~key:k f : int)) overflow;
  SV.install_batch sv2 overflow;
  check Alcotest.int "same eviction count" (SV.stats sv1).SV.capacity_evictions
    (SV.stats sv2).SV.capacity_evictions;
  for k = 0 to 11 do
    check Alcotest.bool
      (Printf.sprintf "key %d residency agrees" k)
      (SV.find sv1 k <> None)
      (SV.find sv2 k <> None)
  done;
  (* and it was the cold pair that died *)
  check Alcotest.bool "cold key 0 evicted" true (SV.find sv2 0 = None);
  check Alcotest.bool "cold key 1 evicted" true (SV.find sv2 1 = None);
  check Alcotest.bool "hot key 2 resident" true (SV.find sv2 2 <> None)

let test_server_max_live () =
  let m = mk_machine () in
  let sv = SV.create ~max_live:2 m.S.mem in
  for k = 0 to 4 do
    ignore (SV.install sv ~key:k (filter_for ~fid:k ~port:(5000 + k)) : int)
  done;
  check Alcotest.int "cap respected" 2 (SV.live sv);
  check Alcotest.int "cap evictions" 3 (SV.stats sv).SV.capacity_evictions;
  (* the two newest keys survive monotonic cold eviction *)
  check Alcotest.bool "newest resident" true (SV.lookup sv 4 <> None);
  check Alcotest.bool "oldest gone" true (SV.lookup sv 0 = None)

(* A filter too big for the largest slab class must be refused before
   it displaces anything: no capacity eviction, no lost tenant, and a
   replacement leaves the old region under its key.  [Cmp] atoms cost
   about 5.6 words each, so 200 of them (1127 words) fail the
   pre-compile size estimate.  Alternating [Shift]/[Cmp] atoms cost
   about 9 words each, so 120 of them pass the estimate (784 words) and
   only overflow the 1024-word class once compiled. *)
let test_server_oversized_install () =
  let m = mk_machine () in
  let sv = SV.create m.S.mem in
  for k = 0 to 99 do
    ignore (SV.install sv ~key:k (filter_for ~fid:(100 + k) ~port:(2000 + k)) : int)
  done;
  ignore (SV.lookup sv 3 : int option);
  let before = (SV.stats sv, SV.find sv 3) in
  let cmp_heavy =
    Filter.make ~fid:999
      (List.init 200 (fun i -> Filter.Cmp { offset = i mod 40; size = 1; mask = 0xff; value = i }))
  in
  let shift_heavy =
    Filter.make ~fid:998
      (List.init 120 (fun i ->
           if i mod 2 = 0 then Filter.Shift { offset = 0; size = 1; mask = 0x0f; shift = 2 }
           else Filter.Cmp { offset = 4; size = 4; mask = 0xffffffff; value = i }))
  in
  let refused what f =
    (match f () with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s: oversized filter was installed" what);
    let st, info3 = before in
    let st' = SV.stats sv in
    check Alcotest.int (what ^ ": live unchanged") st.SV.live st'.SV.live;
    check Alcotest.int (what ^ ": no capacity evictions") st.SV.capacity_evictions
      st'.SV.capacity_evictions;
    check Alcotest.int (what ^ ": installs unchanged") st.SV.installs st'.SV.installs;
    check Alcotest.bool (what ^ ": key 3 untouched") true (SV.find sv 3 = info3);
    SV.check_invariants sv
  in
  refused "fresh key" (fun () -> SV.install sv ~key:1000 cmp_heavy);
  refused "replace" (fun () -> SV.install sv ~key:3 cmp_heavy);
  refused "batched" (fun () -> SV.install_batch sv [ (1000, cmp_heavy) ]);
  refused "post-compile" (fun () -> SV.install sv ~key:1000 shift_heavy);
  check Alcotest.int "key 3 still classifies" 103
    (match SV.find sv 3 with
    | Some i -> classify m ~entry:i.SV.entry ~port:2003
    | None -> Alcotest.fail "key 3 lost")

(* Capacity eviction against an independent reference: the original
   policy, a full sort of every resident key by the (hits, epoch, base)
   that [find] reports.  A seeded churn of lookups, explicit evicts and
   replaces over a 500-slab arena scrambles hotness and the registry's
   internal layout; the arena is then refilled to capacity.  The
   reference must predict which keys a batched install and a run of
   single installs evict, and, through the arena's LIFO free list, the
   slab each new key lands on. *)
let test_server_eviction_oracle () =
  let n = 500 and batch = 64 in
  let run seed =
    let m = mk_machine ~predecode:false ~blocks:false () in
    let base = 0x100000 in
    let sv = SV.create ~arena_base:base ~arena_limit:(base + (4 * 128 * n)) m.S.mem in
    let rs = Random.State.make [| seed |] in
    let next = ref 0 in
    let fresh () =
      let k = !next in
      incr next;
      (k, filter_for ~fid:k ~port:(1 + (k mod 60000)))
    in
    let install (k, f) = ignore (SV.install sv ~key:k f : int) in
    let resident () =
      List.filter_map
        (fun k -> Option.map (fun i -> (i.SV.hits, i.SV.epoch, i.SV.base, k)) (SV.find sv k))
        (List.init !next Fun.id)
    in
    let coldest () = List.sort compare (resident ()) in
    let pick_resident () =
      let r = resident () in
      let _, _, _, k = List.nth r (Random.State.int rs (List.length r)) in
      k
    in
    SV.install_batch sv (List.init n (fun _ -> fresh ()));
    for _ = 1 to 3000 do
      (match Random.State.int rs 20 with
      | 0 -> ignore (SV.evict sv (pick_resident ()) : bool)
      | 1 ->
        let k = pick_resident () in
        ignore (SV.install sv ~key:k (filter_for ~fid:(10_000 + k) ~port:k) : int)
      | _ ->
        (* skewed toward recent keys, so hit counts spread out *)
        let k = !next - 1 - Random.State.int rs (1 + Random.State.int rs !next) in
        ignore (SV.lookup sv k : int option));
      SV.check_invariants sv
    done;
    let cap0 = (SV.stats sv).SV.capacity_evictions in
    while SV.live sv < n do
      install (fresh ())
    done;
    check Alcotest.int "refill takes free slabs, evicts nothing" cap0
      (SV.stats sv).SV.capacity_evictions;
    let victims = Array.of_list (List.filteri (fun i _ -> i < batch) (coldest ())) in
    let kfs = List.init batch (fun _ -> fresh ()) in
    SV.install_batch sv kfs;
    SV.check_invariants sv;
    check Alcotest.int "batch evicted one chunk" (cap0 + batch)
      (SV.stats sv).SV.capacity_evictions;
    Array.iter
      (fun (_, _, _, k) ->
        check Alcotest.bool (Printf.sprintf "seed %d: victim %d evicted" seed k) true
          (SV.find sv k = None))
      victims;
    check Alcotest.int "everyone else resident" n (SV.live sv);
    (* victims are freed coldest first, so the LIFO free list hands the
       coldest victim's slab out last *)
    List.iteri
      (fun i (k, _) ->
        let _, _, vbase, _ = victims.(batch - 1 - i) in
        check
          Alcotest.(option int)
          (Printf.sprintf "seed %d: batch key %d placement" seed k)
          (Some vbase)
          (Option.map (fun i -> i.SV.base) (SV.find sv k)))
      kfs;
    for round = 1 to 8 do
      (* odd rounds warm every tenant but the newest, so the victim is
         the region appended last *)
      if round land 1 = 1 then
        List.iter
          (fun (_, _, _, k) -> if k <> !next - 1 then ignore (SV.lookup sv k : int option))
          (resident ())
      else
        for _ = 1 to 20 do
          ignore (SV.lookup sv (!next - 1 - Random.State.int rs 200) : int option)
        done;
      let _, _, vbase, vkey = List.hd (coldest ()) in
      let ((k, _) as kf) = fresh () in
      install kf;
      SV.check_invariants sv;
      check Alcotest.bool (Printf.sprintf "seed %d: single victim %d" seed vkey) true
        (SV.find sv vkey = None);
      check
        Alcotest.(option int)
        (Printf.sprintf "seed %d: key %d placement" seed k)
        (Some vbase)
        (Option.map (fun i -> i.SV.base) (SV.find sv k))
    done
  in
  List.iter run [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Eviction-lifetime lockstep fuzz: every engine mode                  *)

(* One registry per engine rig — the interpreter, and each translating
   mode both with tier-up off (translated from the first call) and at
   the default threshold (cold calls first) — driven through an
   identical seeded schedule of install / replace / evict / classify
   operations over a deliberately tiny arena (eight 128-word slabs), so
   slab addresses recycle constantly.  Every classify writes the
   packet, runs the compiled filter on all seven machines and demands
   (fid, insns, cycles) agree with the no-cache machine — any stale
   predecode, superblock or region translation left over an evicted
   slab either returns a dead fid or diverges in timing, and either
   trips the check.  One key is hammered past the region-promotion
   threshold before being replaced, so the regions tier provably drops
   promoted traces too. *)

let test_lockstep_fuzz () =
  let hot = Vmachine.Engine.hot_calls in
  let modes =
    [
      ("off", (false, false, false), 0);
      ("predecode", (true, false, false), 0);
      ("blocks", (true, true, false), 0);
      ("regions", (true, true, true), 0);
      ("predecode/hot", (true, false, false), hot);
      ("blocks/hot", (true, true, false), hot);
      ("regions/hot", (true, true, true), hot);
    ]
  in
  let rigs =
    List.map
      (fun (name, (predecode, blocks, regions), hot_calls) ->
        let m = mk_machine ~predecode ~blocks ~regions ~hot_calls () in
        let base = 0x100000 in
        let sv = SV.create ~arena_base:base ~arena_limit:(base + (4 * 8 * 128)) m.S.mem in
        (name, m, sv))
      modes
  in
  let oracle = Hashtbl.create 64 (* key -> (fid, port) *) in
  let next_fid = ref 1000 in
  let fresh key =
    incr next_fid;
    let fid = !next_fid in
    let port = 1 + (fid mod 60000) in
    Hashtbl.replace oracle key (fid, port);
    filter_for ~fid ~port
  in
  (* The eight-slab arena forces capacity evictions; the schedule is
     identical across rigs, so all four must evict the same coldest
     tenants.  After each install, drop whatever the registries
     dropped from the oracle — and insist the rigs agree on it. *)
  let reconcile () =
    let dead =
      Hashtbl.fold
        (fun k _ acc ->
          let residency = List.map (fun (_, _, sv) -> SV.find sv k <> None) rigs in
          (match residency with
          | r0 :: rest ->
            List.iteri
              (fun i r ->
                if r <> r0 then
                  Alcotest.failf "rig %d disagrees on residency of key %d" (i + 1) k)
              rest
          | [] -> assert false);
          if List.hd residency then acc else k :: acc)
        oracle []
    in
    List.iter (Hashtbl.remove oracle) dead
  in
  let check_invariants () = List.iter (fun (_, _, sv) -> SV.check_invariants sv) rigs in
  let install key =
    let f = fresh key in
    List.iter (fun (_, _, sv) -> ignore (SV.install sv ~key f : int)) rigs;
    check_invariants ();
    reconcile ()
  in
  let evict key =
    Hashtbl.remove oracle key;
    List.iter (fun (_, _, sv) -> ignore (SV.evict sv key : bool)) rigs;
    check_invariants ()
  in
  let classify_all key =
    match Hashtbl.find_opt oracle key with
    | None -> ()
    | Some (fid, port) ->
      let run (_, m, sv) =
        match SV.lookup sv key with
        | None -> Alcotest.fail "registries diverged: key missing"
        | Some entry ->
          S.reset_stats m;
          let got = classify m ~entry ~port in
          (got, (m.S.insns, m.S.cycles))
      in
      (match rigs with
      | [] -> assert false
      | r0 :: rest ->
        let (got0, _) as res0 = run r0 in
        check Alcotest.int
          (Printf.sprintf "key %d classifies as its live fid" key)
          fid got0;
        List.iter
          (fun ((name, _, _) as r) ->
            check
              Alcotest.(pair int (pair int int))
              (Printf.sprintf "%s agrees with off on key %d" name key)
              res0 (run r))
          rest);
      check_invariants ()
  in
  let rs = Random.State.make [| 0x5eed; 0x5e4e4 |] in
  let live_keys () = Hashtbl.fold (fun k _ acc -> k :: acc) oracle [] |> List.sort compare in
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let next_key = ref 0 in
  (* seed a few tenants *)
  for _ = 1 to 4 do
    install !next_key;
    incr next_key
  done;
  for _round = 1 to 120 do
    (match Random.State.int rs 10 with
    | 0 | 1 ->
      install !next_key;
      incr next_key
    | 2 | 3 -> (
      match live_keys () with [] -> () | ks -> install (pick ks) (* replace *))
    | 4 -> ( match live_keys () with [] -> () | ks -> evict (pick ks))
    | _ -> ());
    (* probe up to three live tenants every round *)
    match live_keys () with
    | [] -> ()
    | ks ->
      for _ = 1 to min 3 (List.length ks) do
        classify_all (pick ks)
      done
  done;
  (* region-promotion kill shot: hammer one key past the tier-up
     threshold and then well past the region tier's hot threshold so a
     trace is promoted over its slab, then replace the key — the slab is
     scrubbed and reused, the promoted trace must die with it (at once
     on the rigs without tier-up) and the entry start cold again (on the
     others, which translate it again past the threshold) *)
  let key = !next_key in
  incr next_key;
  install key;
  for _ = 1 to hot + 100 do
    classify_all key
  done;
  install key (* replace: new fid, same (LIFO-reused) slab *);
  for _ = 1 to hot + 10 do
    classify_all key
  done;
  (* and the evict/reinstall variant of the same hazard *)
  evict key;
  install key;
  classify_all key;
  (* every translating rig really ran translated code, and both regions
     rigs promoted something *)
  List.iter
    (fun (name, m, _) ->
      if name <> "off" then begin
        check Alcotest.bool (name ^ " rig filled its decode cache") true
          (fst (Vmachine.Decode_cache.stats m.S.pdc) > 0);
        if String.starts_with ~prefix:"blocks" name || String.starts_with ~prefix:"regions" name
        then
          check Alcotest.bool (name ^ " rig compiled blocks") true
            (fst (Vmachine.Block_cache.stats m.S.bc) > 0);
        if String.starts_with ~prefix:"regions" name then
          check Alcotest.bool (name ^ " rig promoted a region") true
            (fst (Vmachine.Region_cache.stats m.S.rc) > 0)
      end)
    rigs;
  (* all rigs agree on the survivors *)
  List.iter classify_all (live_keys ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "arena",
        [
          Alcotest.test_case "slab classes" `Quick test_arena_classes;
          Alcotest.test_case "lifo reuse" `Quick test_arena_lifo_reuse;
          Alcotest.test_case "exhaustion" `Quick test_arena_exhaustion;
        ] );
      ( "registry",
        [
          Alcotest.test_case "install lookup evict replace" `Quick test_server_basic;
          Alcotest.test_case "batch matches single" `Quick test_server_batch_matches_single;
          Alcotest.test_case "capacity eviction" `Quick test_server_capacity_eviction;
          Alcotest.test_case "bulk eviction policy" `Quick test_server_bulk_eviction_policy;
          Alcotest.test_case "max_live cap" `Quick test_server_max_live;
          Alcotest.test_case "oversized install refused" `Quick test_server_oversized_install;
          Alcotest.test_case "eviction matches reference" `Quick test_server_eviction_oracle;
        ] );
      ( "eviction-lifetime",
        [ Alcotest.test_case "four-mode lockstep fuzz" `Quick test_lockstep_fuzz ] );
    ]
