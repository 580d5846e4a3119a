(* Region-cache (tier-3 trace translation) unit tests.

   The cross-mode bit-identity and SMC suites exercise regions
   end-to-end; this file pins the Vmachine.Region_cache unit contract
   itself — the parts a fuzzer can hit only by luck:

   - [invalidate] reports whether it dropped a region, and the
     regions-mode write watcher must raise the Block_cache dirty flag
     on [true].  This is the load-bearing half of the mid-region SMC
     abort protocol: a region's constituent block can fall out of the
     block cache (and never be re-dispatched at tier 2) while the
     region stays resident, so a later store into that constituent's
     span drops nothing in the block cache — if the region drop did
     not raise the flag itself, an in-flight region pass would keep
     executing stale translations and diverge from the interpreter.

   - [dominant_succ] certifies a true >= 75% frequency floor.  The
     Boyer–Moore vote margin alone only bounds the candidate at
     >= 50%, so the trigger must use the confirmation counter; a
     50/50 edge must never license branch-direction specialization.

   - [mark_unpromotable] pins are per-code, not per-address: a store
     overwriting the pinned block's code window unpins it so the new
     code gets a fresh promotion attempt. *)

let check = Alcotest.check

module R = Vmachine.Region_cache

(* A test region is just its own spans array. *)
let mk_rc () = R.create ~mem_bytes:(1 lsl 16) ~spans:(fun r -> r) ()

(* ------------------------------------------------------------------ *)
(* invalidate reports drops                                            *)

let test_invalidate_reports_drop () =
  let rc = mk_rc () in
  R.set rc 0x100 ~insns:12 [| (0x100, 16); (0x200, 32) |];
  check Alcotest.int "resident after set" 1 (R.resident_count rc);
  check Alcotest.bool "store nowhere near code drops nothing" false
    (R.invalidate rc 0x50 4);
  check Alcotest.int "still resident" 1 (R.resident_count rc);
  check Alcotest.bool "store into a constituent span drops the region" true
    (R.invalidate rc 0x210 4);
  check Alcotest.int "region gone" 0 (R.resident_count rc);
  check Alcotest.bool "second store finds nothing to drop" false
    (R.invalidate rc 0x210 4)

(* ------------------------------------------------------------------ *)
(* dominant_succ: a true 75% floor, not the vote margin's 50%          *)

let test_dominant_succ_floor () =
  (* 50/50: eight alternating-noise samples then eight of [c].  The
     Boyer–Moore margin ends at 8 of 16 (the old [votes * 2 >= total]
     trigger would fire), but c's true frequency is exactly 50% —
     specializing here would be a side-exit storm. *)
  let rc = mk_rc () in
  let e = 0x40 and c = 0x80 in
  for i = 1 to 8 do
    R.note_succ rc e (if i land 1 = 0 then 0x200 else 0x300)
  done;
  for _ = 1 to 8 do R.note_succ rc e c done;
  check Alcotest.(option int) "50% edge is not dominant" None (R.dominant_succ rc e);
  (* exactly 75%: four noise samples then twelve of [c] *)
  let rc = mk_rc () in
  for i = 1 to 4 do
    R.note_succ rc e (if i land 1 = 0 then 0x200 else 0x300)
  done;
  for _ = 1 to 12 do R.note_succ rc e c done;
  check Alcotest.(option int) "75% edge is dominant" (Some c) (R.dominant_succ rc e);
  (* unanimous, but below the sample floor *)
  let rc = mk_rc () in
  for _ = 1 to 15 do R.note_succ rc e c done;
  check Alcotest.(option int) "below the sample floor" None (R.dominant_succ rc e);
  R.note_succ rc e c;
  check Alcotest.(option int) "at the sample floor" (Some c) (R.dominant_succ rc e)

(* ------------------------------------------------------------------ *)
(* mark_unpromotable pins last until the pinned code is overwritten    *)

let heat_to_threshold rc e =
  let fired = ref 0 in
  for _ = 1 to R.hot_threshold do
    if R.note_dispatch rc e then incr fired
  done;
  !fired

let test_unpin_on_overwrite () =
  let rc = mk_rc () in
  let e = 0x400 in
  check Alcotest.int "threshold crossing fires once" 1 (heat_to_threshold rc e);
  R.mark_unpromotable rc e;
  check Alcotest.int "pinned entry never re-triggers" 0 (heat_to_threshold rc e);
  (* a store beyond the pinned block's code window leaves the pin *)
  ignore (R.invalidate rc (e + (4 * Vmachine.Block_cache.max_insns)) 4);
  check Alcotest.int "pin survives an unrelated store" 0 (heat_to_threshold rc e);
  (* a store inside the window unpins and resets the profile, so the
     rewritten code can heat up and promote afresh *)
  ignore (R.invalidate rc (e + 0x80) 4);
  check Alcotest.int "overwritten code re-triggers at the threshold" 1
    (heat_to_threshold rc e)

(* ------------------------------------------------------------------ *)
(* The wired protocol, on a real machine: a store that drops a region
   raises the Block_cache dirty flag even when the overwritten
   constituent block is not bc-resident, so the shared store closures
   abort an in-flight pass.                                            *)

let test_mips_region_drop_raises_dirty () =
  let module S = Vmips.Mips_sim in
  let module A = Vmips.Mips_asm in
  let base = 0x1000 in
  (* v0 (r2) = acc, a0 (r4) = loop count; two-block countdown loop so
     the header promotes a region spanning header + body *)
  let program =
    [ A.Addiu (2, 0, 0); (* 0: acc <- 0               *)
      A.Blez (4, 5); (* 1: loop: n <= 0 -> out (7) *)
      A.Nop; (* 2: delay                  *)
      A.Addiu (2, 2, 1); (* 3: body: acc <- acc + 1   *)
      A.Addiu (4, 4, -1); (* 4: n <- n - 1             *)
      A.J ((base / 4) + 1); (* 5: -> loop                *)
      A.Nop; (* 6: delay                  *)
      A.Jr 31; (* 7: out                    *)
      A.Nop (* 8: delay                  *) ]
  in
  let m = S.create ~regions:true ~hot_calls:0 Vmachine.Mconfig.test_config in
  List.iteri
    (fun i insn -> Vmachine.Mem.write_u32 m.S.mem (base + (4 * i)) (A.encode insn))
    program;
  S.call m ~entry:base [ S.Int 200 ];
  check Alcotest.int "loop result" 200 (S.ret_int m);
  let header = base + 4 and body = base + 12 in
  (match R.find m.S.rc header with
  | None -> Alcotest.fail "no region promoted at the loop header"
  | Some r ->
    check Alcotest.bool "region spans the body block" true
      (Array.exists (fun (a, _) -> a = body) r.S.r_spans));
  (* Knock the body block out of the block cache directly — the state
     the review hole needs: region resident, constituent not
     bc-resident — then clear the dirty flag as entering a pass
     would. *)
  Vmachine.Block_cache.invalidate m.S.bc body 4;
  check Alcotest.bool "constituent evicted from the block cache" true
    (Vmachine.Block_cache.find m.S.bc body = None);
  Vmachine.Block_cache.begin_block m.S.bc;
  check Alcotest.bool "dirty clear before the store" false
    (Vmachine.Block_cache.dirty m.S.bc);
  (* The store overlaps no bc-resident block (the header block covers
     only the branch + delay pair), so Block_cache.invalidate alone
     would leave dirty down; the region watcher must raise it. *)
  let w = Vmachine.Mem.read_u32 m.S.mem body in
  Vmachine.Mem.write_u32 m.S.mem body w;
  check Alcotest.bool "region drop raised the dirty flag" true
    (Vmachine.Block_cache.dirty m.S.bc);
  check Alcotest.int "no region survives the store" 0 (R.resident_count m.S.rc)

(* The Smc_abort trace marker names the aborting store itself, even
   when the region's constituent blocks are not adjacent: the aborting
   pc comes from the region's address map, not from entry + 4*i. *)
let test_mips_region_abort_pc () =
  let module S = Vmips.Mips_sim in
  let module A = Vmips.Mips_asm in
  let head = 0x1100 and store = 0x1200 in
  let program =
    [ (0x1000, A.Addiu (2, 0, 0)); (* entry: acc <- 0                *)
      (0x1004, A.J (head / 4)); (*        -> head                    *)
      (0x1008, A.Nop);
      (head, A.Addiu (2, 2, 1)); (* head: acc <- acc + 1            *)
      (head + 4, A.Bgtz (4, (store - (head + 8)) / 4)); (* n > 0 -> store *)
      (head + 8, A.Addiu (4, 4, -1)); (*   delay: n <- n - 1           *)
      (head + 12, A.Jr 31); (*       out                            *)
      (head + 16, A.Nop);
      (store, A.Sw (6, 5, 0)); (* store: mem[a1] <- a2             *)
      (store + 4, A.J (head / 4)); (*        -> head                    *)
      (store + 8, A.Nop) ]
  in
  let tr = Vmachine.Trace.create ~capacity_pow2:16 () in
  let m = S.create ~regions:true ~hot_calls:0 ~trace:tr Vmachine.Mconfig.test_config in
  List.iter
    (fun (a, insn) -> Vmachine.Mem.write_u32 m.S.mem a (A.encode insn))
    program;
  (* heat the loop with the store aimed at data *)
  S.call m ~entry:0x1000 [ S.Int 200; S.Int 0x20000; S.Int 0 ];
  check Alcotest.int "loop result" 201 (S.ret_int m);
  (match R.find m.S.rc head with
  | None -> Alcotest.fail "no region promoted at the loop head"
  | Some r ->
    check Alcotest.bool "the store block is a constituent" true
      (Array.exists (fun (a, _) -> a = store) r.S.r_spans);
    check Alcotest.bool "and is not adjacent to the head block" true
      (Array.for_all (fun (a, len) -> a = store || a + len <> store) r.S.r_spans));
  (* now aim the store at the resident entry block (rewriting the same
     word): the first pass retires it and aborts at the store *)
  S.call m ~entry:0x1000 [ S.Int 5; S.Int 0x1000; S.Int (A.encode (A.Addiu (2, 0, 0))) ];
  check Alcotest.int "loop result after the abort" 6 (S.ret_int m);
  let aborts =
    Array.to_list (Vmachine.Trace.records tr)
    |> List.filter_map (fun (k, pc) -> if k = Vmachine.Trace.Smc_abort then Some pc else None)
  in
  check Alcotest.(list int) "Smc_abort marks the store's own address" [ store ] aborts

let () =
  Alcotest.run "region-cache"
    [
      ( "unit",
        [
          Alcotest.test_case "invalidate reports drops" `Quick test_invalidate_reports_drop;
          Alcotest.test_case "dominant_succ 75% floor" `Quick test_dominant_succ_floor;
          Alcotest.test_case "unpin on overwrite" `Quick test_unpin_on_overwrite;
          Alcotest.test_case "region drop raises bc dirty (mips)" `Quick
            test_mips_region_drop_raises_dirty;
          Alcotest.test_case "region abort marks the store pc (mips)" `Quick
            test_mips_region_abort_pc;
        ] );
    ]
