(* Execution-trace pins: ring accounting, the differ, the exporters,
   emit-site provenance, and the zero-overhead discipline.

   Mirrors test_telemetry_overhead.ml for the overhead half: a
   simulator built without a trace (the shared disabled sink) must be
   bit-identical — cycles, retired instructions, icache/dcache stats,
   generated code words — to one built with a live ring, on every
   port in every engine mode, and must allocate no steady-state
   minor-heap words per instruction either way.

   The differ half replays vtrace's --inject-hot session as a unit
   test: prime a blocks-mode simulator, alias the hottest compiled
   entry to the second-hottest block (Block_cache.alias, via
   Workloads.alias_block), and check that [Trace.first_divergence]
   against an off-mode reference stream lands on the exact retired
   ordinal where the aliased entry is first dispatched — with both
   sides symbolizable through the Gen provenance tables. *)

open Vcodebase
module Tel = Vmachine.Telemetry
module Trace = Vmachine.Trace
module W = Workloads

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Ring accounting                                                     *)

(* overflow: [seen] keeps the true total, [dropped] is exact, and the
   retained window is the newest [capacity] records oldest-first *)
let test_overflow_accounting () =
  let t = Trace.create ~capacity_pow2:8 () in
  check Alcotest.int "capacity" 256 (Trace.capacity t);
  for i = 0 to 999 do
    Trace.retire t (4 * i)
  done;
  check Alcotest.int "seen" 1000 (Trace.seen t);
  check Alcotest.int "retained" 256 (Trace.retained t);
  check Alcotest.int "dropped (exact)" 744 (Trace.dropped t);
  let recs = Trace.records t in
  check Alcotest.int "records length" 256 (Array.length recs);
  (* the full tail, oldest-to-newest: records 744..999 in order *)
  Array.iteri
    (fun j (kind, payload) ->
      if kind <> Trace.Retire || payload <> 4 * (744 + j) then
        Alcotest.failf "slot %d: %s 0x%x, expected retire 0x%x" j (Trace.kind_name kind)
          payload
          (4 * (744 + j)))
    recs

let test_underfull_ring () =
  let t = Trace.create ~capacity_pow2:8 () in
  for i = 0 to 9 do
    Trace.retire t (100 + i)
  done;
  check Alcotest.int "seen" 10 (Trace.seen t);
  check Alcotest.int "retained" 10 (Trace.retained t);
  check Alcotest.int "dropped" 0 (Trace.dropped t);
  check
    Alcotest.(array int)
    "pcs in order"
    (Array.init 10 (fun i -> 100 + i))
    (Trace.retired_pcs t)

let test_marks_and_retired_filter () =
  let t = Trace.create ~capacity_pow2:8 () in
  Trace.retire t 0x100;
  Trace.mark t Trace.Block_enter 0x100;
  Trace.retire t 0x104;
  Trace.mark t Trace.Fault 0x104;
  Trace.mark t Trace.Smc_abort 0x108;
  Trace.mark t Trace.Inval 0x200;
  Trace.mark t Trace.Mark 42;
  check Alcotest.int "seen counts marks too" 7 (Trace.seen t);
  check
    Alcotest.(array int)
    "retired_pcs filters non-retire records" [| 0x100; 0x104 |] (Trace.retired_pcs t);
  let kinds = Array.map (fun (k, _) -> Trace.kind_name k) (Trace.records t) in
  check
    Alcotest.(array string)
    "kinds round-trip"
    [| "retire"; "block_enter"; "retire"; "fault"; "smc_abort"; "inval"; "mark" |]
    kinds;
  Trace.reset t;
  check Alcotest.int "reset clears seen" 0 (Trace.seen t);
  check Alcotest.int "reset clears retained" 0 (Trace.retained t)

(* the shared disabled sink: stores land in scratch, readers see an
   empty, disabled trace *)
let test_disabled_sink () =
  let t = Trace.disabled in
  check Alcotest.bool "not enabled" false (Trace.is_enabled t);
  Trace.retire t 0xdead;
  Trace.mark t Trace.Fault 0xbeef;
  check Alcotest.int "retained stays 0" 0 (Trace.retained t);
  check Alcotest.int "dropped stays 0" 0 (Trace.dropped t);
  check Alcotest.int "records empty" 0 (Array.length (Trace.records t));
  check Alcotest.int "retired_pcs empty" 0 (Array.length (Trace.retired_pcs t))

(* ------------------------------------------------------------------ *)
(* first_divergence                                                    *)

let div = Alcotest.(option (triple int int int))

let diverge a b =
  match Trace.first_divergence a b with
  | None -> None
  | Some d -> Some (d.Trace.ordinal, d.Trace.a_pc, d.Trace.b_pc)

let test_first_divergence () =
  check div "identical -> None" None (diverge [| 1; 2; 3 |] [| 1; 2; 3 |]);
  check div "both empty -> None" None (diverge [||] [||]);
  check div "mid mismatch" (Some (1, 2, 9)) (diverge [| 1; 2; 3 |] [| 1; 9; 3 |]);
  check div "first mismatch" (Some (0, 1, 9)) (diverge [| 1 |] [| 9 |]);
  check div "strict prefix: a ended" (Some (2, -1, 3)) (diverge [| 1; 2 |] [| 1; 2; 3 |]);
  check div "strict prefix: b ended" (Some (2, 3, -1)) (diverge [| 1; 2; 3 |] [| 1; 2 |]);
  check div "empty vs nonempty" (Some (0, -1, 7)) (diverge [||] [| 7 |])

(* ------------------------------------------------------------------ *)
(* Emit-site provenance                                                *)

module V = Vcode.Make (Vmips.Mips_backend)

let gen_provenanced () =
  Gen.set_provenance_default true;
  Fun.protect
    ~finally:(fun () -> Gen.set_provenance_default false)
    (fun () ->
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
      addii g i i 1;
      jv g top;
      V.label g out;
      reti g acc;
      V.end_gen g)

let test_provenance_symbols () =
  let c = gen_provenanced () in
  let g = c.Vcode.gen in
  check Alcotest.bool "spans recorded" true (Gen.prov_count g > 0);
  (* words below the first client op are the reserved prologue *)
  check Alcotest.(option string) "word 0 is prologue" (Some "prologue") (Gen.prov_symbol g 0);
  (* the entry word is the first emitted op: ordinal 0, no label yet *)
  let entry_word = (c.Vcode.entry_addr - c.Vcode.base) / 4 in
  check Alcotest.(option string) "entry word is op #0" (Some "set#0")
    (Gen.prov_symbol g entry_word);
  (* past the first label binding, symbols carry the @L suffix *)
  let nwords = Codebuf.length g.Gen.buf in
  let labelled = ref 0 in
  for idx = 0 to nwords - 1 do
    match Gen.prov_symbol g idx with
    | Some s when String.length s > 2 ->
      if String.index_opt s '@' <> None then incr labelled
    | _ -> ()
  done;
  check Alcotest.bool "some symbols carry an enclosing label" true (!labelled > 0);
  (* spans tile the buffer in emission order *)
  let prev_last = ref (-1) and count = ref 0 in
  Gen.iter_prov_spans g (fun ~ordinal ~slot:_ ~first ~last ->
      check Alcotest.int "ordinals are dense" !count ordinal;
      incr count;
      if !prev_last >= 0 then check Alcotest.int "spans are contiguous" !prev_last first;
      check Alcotest.bool "span is forward" true (last >= first);
      prev_last := last);
  check Alcotest.int "last span ends at the buffer" nwords !prev_last;
  (* out-of-range indices symbolize to nothing *)
  check Alcotest.(option string) "past the end" None (Gen.prov_symbol g nwords);
  check Alcotest.(option string) "negative" None (Gen.prov_symbol g (-1))

let test_provenance_off_by_default () =
  let g, _ = V.lambda ~base:0x10000 ~leaf:true "%i" in
  let open V.Names in
  let acc = V.getreg_exn g ~cls:`Temp Vtype.I in
  seti g acc 7;
  reti g acc;
  let c = V.end_gen g in
  check Alcotest.int "no spans recorded" 0 (Gen.prov_count c.Vcode.gen);
  check Alcotest.(option string) "no symbols" None (Gen.prov_symbol c.Vcode.gen 0)

(* ------------------------------------------------------------------ *)
(* Bit identity: traced and untraced runs must not differ              *)

(* cycles, insns, icache (hits, misses), dcache (hits, misses) *)
let quad = Alcotest.(pair int (pair int (pair (pair int int) (pair int int))))

type outcome = { stats : int * (int * ((int * int) * (int * int))); code : int array }

module type PORT = sig
  val name : string
  val run_loop : Trace.t option -> predecode:bool -> blocks:bool -> regions:bool -> outcome
end

module Make_port (T : Target.S) (S : Workloads.SIM) : PORT = struct
  module VP = Vcode.Make (T)

  let name = T.desc.Machdesc.name

  let gen_loop () =
    let g, args = VP.lambda ~base:0x10000 ~leaf:true "%i" in
    let open VP.Names in
    let acc = VP.getreg_exn g ~cls:`Temp Vtype.I in
    let i = VP.getreg_exn g ~cls:`Temp Vtype.I in
    seti g acc 0;
    seti g i 0;
    let top = VP.genlabel g and out = VP.genlabel g in
    VP.label g top;
    bgei g i args.(0) out;
    addi g acc acc i;
    orii g acc acc 3;
    addii g i i 1;
    jv g top;
    VP.label g out;
    reti g acc;
    VP.end_gen g

  let call_ints m ~entry vals =
    S.call m ~entry (List.map S.int vals);
    S.ret_int m

  let run_loop trace ~predecode ~blocks ~regions =
    let m = S.create ?trace ~predecode ~blocks ~regions Vmachine.Mconfig.dec5000 in
    let c = gen_loop () in
    Vmachine.Mem.install_code m.S.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf;
    let r1 = call_ints m ~entry:c.Vcode.entry_addr [ 500 ] in
    let r2 = call_ints m ~entry:c.Vcode.entry_addr [ 500 ] in
    check Alcotest.int (name ^ ": loop rerun agrees") r1 r2;
    let stats =
      ( m.S.cycles,
        (m.S.insns, (Vmachine.Cache.stats m.S.icache, Vmachine.Cache.stats m.S.dcache)) )
    in
    { stats; code = Codebuf.to_array c.Vcode.gen.Gen.buf }
end

module Mips_port = Make_port (Vmips.Mips_backend) (Workloads.Sims.Mips)
module Sparc_port = Make_port (Vsparc.Sparc_backend) (Workloads.Sims.Sparc)
module Alpha_port = Make_port (Valpha.Alpha_backend) (Workloads.Sims.Alpha)
module Ppc_port = Make_port (Vppc.Ppc_backend) (Workloads.Sims.Ppc)

let identity_case (module P : PORT) () =
  List.iter
    (fun (label, (predecode, blocks, regions)) ->
      let off = P.run_loop None ~predecode ~blocks ~regions in
      let live = P.run_loop (Some (Trace.create ())) ~predecode ~blocks ~regions in
      let here = Printf.sprintf "%s/%s: " P.name label in
      check quad (here ^ "cycles/insns/cache stats bit-identical") off.stats live.stats;
      check Alcotest.(array int) (here ^ "generated code words identical") off.code live.code)
    Workloads.modes

(* the same retired-pc stream must come out of every engine mode *)
let stream_equivalence_case (module P : PORT) () =
  let streams =
    List.map
      (fun (label, (predecode, blocks, regions)) ->
        let tr = Trace.create ~capacity_pow2:16 () in
        ignore (P.run_loop (Some tr) ~predecode ~blocks ~regions);
        (label, Trace.retired_pcs tr))
      Workloads.modes
  in
  match streams with
  | (ref_label, ref_pcs) :: rest ->
    check Alcotest.bool "stream is nonempty" true (Array.length ref_pcs > 1000);
    List.iter
      (fun (label, pcs) ->
        match Trace.first_divergence ref_pcs pcs with
        | None -> ()
        | Some d ->
          Alcotest.failf "%s: %s and %s diverge at retired ordinal %d (0x%x vs 0x%x)" P.name
            ref_label label d.Trace.ordinal d.Trace.a_pc d.Trace.b_pc)
      rest
  | [] -> assert false

(* ------------------------------------------------------------------ *)
(* Steady-state allocation: zero minor-heap words per instruction,
   whichever sink is installed                                         *)

let allocation_in_mode tr (mode, (predecode, blocks, regions)) =
  let module S = Vmips.Mips_sim in
  let m = S.create ?trace:tr ~predecode ~blocks ~regions Vmachine.Mconfig.test_config in
  let code =
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
let allocation_case tr () =
  List.iter (allocation_in_mode tr)
    (List.filter (fun (_, (predecode, _, _)) -> predecode) Workloads.modes)

(* ------------------------------------------------------------------ *)
(* The differ on an injected block-cache divergence                    *)

(* replicate vtrace's two-pass discipline via the shared Workloads
   vocabulary: prime, corrupt (mode B only), reset, measure *)
let traced_pair (module P : W.PORT) ~mode ~inject =
  let predecode, blocks, regions = W.mode_exn ~tool:"test" mode in
  let tel = Tel.create () in
  let tr = Trace.create ~capacity_pow2:16 () in
  let fuel = (1 lsl 16) / 4 in
  let m = P.create ~telemetry:tel ~trace:tr ~predecode ~blocks ~regions () in
  let prep = P.prepare ~tel ~provenance:true ~fuel m ~workload:"alu-loop" ~iters:400 in
  prep.W.run ();
  let injected =
    if not inject then None
    else
      match P.hot_blocks ~limit:2 m with
      | (h1, _) :: (h2, _) :: _ ->
        check Alcotest.bool "alias accepted" true (P.alias_block m ~at:h1 ~from:h2);
        Some (h1, h2)
      | _ -> Alcotest.fail "expected >=2 compiled blocks after priming"
  in
  Trace.reset tr;
  P.reset_stats m;
  (try prep.W.run () with _ -> (* a corrupted run may fault or run out of fuel *) ());
  check Alcotest.int "measured stream fully retained" 0 (Trace.dropped tr);
  (Trace.retired_pcs tr, prep.W.regions, injected)

let test_injected_divergence () =
  let p = W.port_exn ~tool:"test" "mips" in
  let a, regions_a, _ = traced_pair p ~mode:"off" ~inject:false in
  let b, regions_b, injected = traced_pair p ~mode:"blocks" ~inject:true in
  let h1, h2 = match injected with Some x -> x | None -> assert false in
  match Trace.first_divergence a b with
  | None -> Alcotest.fail "injected corruption produced no divergence"
  | Some d ->
    (* the first divergent retired instruction is exactly the first
       dynamic *dispatch* of the aliased entry: the reference retires
       h1's first instruction, the corrupted run retires h2's.  Earlier
       occurrences of h1 in the stream may be interior to a longer
       superblock (entries can overlap block bodies) and those are
       unaffected by the alias, so the expectation is the first ordinal
       where the two streams actually disagree on h1. *)
    check Alcotest.int "reference side retires the aliased entry" h1 d.Trace.a_pc;
    check Alcotest.int "corrupted side retires the stale block" h2 d.Trace.b_pc;
    let expected_ordinal =
      let rec find i = if a.(i) = h1 && b.(i) <> h1 then i else find (i + 1) in
      find 0
    in
    check Alcotest.int "ordinal is the first diverging dispatch of the aliased entry"
      expected_ordinal d.Trace.ordinal;
    check
      Alcotest.(array int)
      "streams agree up to the divergence"
      (Array.sub a 0 d.Trace.ordinal)
      (Array.sub b 0 d.Trace.ordinal);
    (* both sides symbolize back to their emit sites *)
    (match W.symbol_of regions_a d.Trace.a_pc with
    | Some _ -> ()
    | None -> Alcotest.fail "reference pc did not symbolize");
    (match W.symbol_of regions_b d.Trace.b_pc with
    | Some _ -> ()
    | None -> Alcotest.fail "corrupted pc did not symbolize")

(* without injection the same two-pass harness reports no divergence *)
let test_no_false_divergence () =
  let p = W.port_exn ~tool:"test" "mips" in
  let a, _, _ = traced_pair p ~mode:"off" ~inject:false in
  let b, _, _ = traced_pair p ~mode:"blocks" ~inject:false in
  check Alcotest.bool "streams are nonempty" true (Array.length a > 1000);
  match Trace.first_divergence a b with
  | None -> ()
  | Some d ->
    Alcotest.failf "uncorrupted modes diverge at ordinal %d (0x%x vs 0x%x)" d.Trace.ordinal
      d.Trace.a_pc d.Trace.b_pc

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "overflow accounting" `Quick test_overflow_accounting;
          Alcotest.test_case "underfull ring" `Quick test_underfull_ring;
          Alcotest.test_case "marks and retired filter" `Quick test_marks_and_retired_filter;
          Alcotest.test_case "disabled sink" `Quick test_disabled_sink;
        ] );
      ("differ", [ Alcotest.test_case "first_divergence" `Quick test_first_divergence ]);
      ( "provenance",
        [
          Alcotest.test_case "symbols" `Quick test_provenance_symbols;
          Alcotest.test_case "off by default" `Quick test_provenance_off_by_default;
        ] );
      ( "bit identity",
        [
          Alcotest.test_case "mips" `Quick (identity_case (module Mips_port));
          Alcotest.test_case "sparc" `Quick (identity_case (module Sparc_port));
          Alcotest.test_case "alpha" `Quick (identity_case (module Alpha_port));
          Alcotest.test_case "ppc" `Quick (identity_case (module Ppc_port));
        ] );
      ( "stream equivalence",
        [
          Alcotest.test_case "mips" `Quick (stream_equivalence_case (module Mips_port));
          Alcotest.test_case "sparc" `Quick (stream_equivalence_case (module Sparc_port));
          Alcotest.test_case "alpha" `Quick (stream_equivalence_case (module Alpha_port));
          Alcotest.test_case "ppc" `Quick (stream_equivalence_case (module Ppc_port));
        ] );
      ( "steady-state allocation",
        [
          Alcotest.test_case "disabled trace" `Quick (allocation_case None);
          Alcotest.test_case "live trace" `Quick
            (allocation_case (Some (Trace.create ~capacity_pow2:16 ())));
        ] );
      ( "injected divergence",
        [
          Alcotest.test_case "exact first divergence" `Quick test_injected_divergence;
          Alcotest.test_case "no false divergence" `Quick test_no_false_divergence;
        ] );
    ]
