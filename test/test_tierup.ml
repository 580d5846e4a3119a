(* The engine's tier-up policy, in lockstep with the interpreter.

   Every translating mode (predecode, blocks, regions), on every port,
   at threshold 1 and at the default, runs the same call schedule as an
   [off] machine; after every call the two must agree on the return
   value, the registers, insns, cycles, both caches' statistics and the
   retired-pc stream.  The schedule makes cold calls that end inside
   their entry's instruction budget and cold calls that escape past
   it, at every phase of the loop body — on MIPS and SPARC one escape
   lands on a taken branch's delay slot — calls that share a budget
   until one escapes, calls that go up by their count, out-of-fuel
   stops on either side of the budget, and then runs the entries hot.
   Rewriting the code at a hot entry, by [install_code] or by a
   registry evict (the slab scrub), must make the next call cold.

   The count table keeps one entry per 256-byte granule in place and
   the rest in an overflow table; code packed back to back, as a tcc
   unit is, puts several entries in one granule.  Those entries, and
   one in the last granule of memory, must be counted, tiered up and
   forgotten each on its own, and [flush_caches] must forget them all.
   A seeded model check drives calls and stores of random width against
   an assoc-list reference of the policy. *)

open Vcodebase
module Tel = Vmachine.Telemetry
module Trace = Vmachine.Trace
module Engine = Vmachine.Engine

let check = Alcotest.check
let test_config = Vmachine.Mconfig.test_config

module Make_port (T : Target.S) (S : Workloads.SIM) = struct
  module V = Vcode.Make (T)
  module SV = Vserver.Server.Make (T)

  let name = T.desc.Machdesc.name
  let delay_slot = List.mem name [ "mips"; "sparc" ]

  (* Workloads' alu-loop after [pad] extra adds: each pad moves the
     budget boundary to a different instruction of the loop body *)
  let gen_loop ~base ~pad =
    let g, args = V.lambda ~base ~leaf:true "%i" in
    let open V.Names in
    let acc = V.getreg_exn g ~cls:`Temp Vtype.I in
    let i = V.getreg_exn g ~cls:`Temp Vtype.I in
    seti g acc 0;
    seti g i 0;
    for _ = 1 to pad do
      addii g acc acc 1
    done;
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

  (* [arg + k] in a few instructions: a function a tcc unit packs
     several of into one granule *)
  let gen_tiny ~base k =
    let g, args = V.lambda ~base ~leaf:true "%i" in
    let open V.Names in
    let r = V.getreg_exn g ~cls:`Temp Vtype.I in
    addii g r args.(0) k;
    reti g r;
    V.end_gen g

  let install m (c : Vcode.code) =
    Vmachine.Mem.install_code m.S.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

  type rig = { m : S.t; tel : Tel.t; tr : Trace.t }

  let rig ?hot_calls (predecode, blocks, regions) =
    let tel = Tel.create () and tr = Trace.create ~capacity_pow2:16 () in
    { m = S.create ?hot_calls ~predecode ~blocks ~regions ~telemetry:tel ~trace:tr test_config;
      tel; tr }

  let counter r c = Option.value ~default:0 (Tel.find r.tel (name ^ "." ^ c))

  (* translated work so far: decode-cache fills and block compiles *)
  let translated r = counter r "pdc.fills" + counter r "bc.compiles"

  let call r ~entry n =
    Trace.reset r.tr;
    S.call r.m ~entry [ S.int n ];
    S.ret_int r.m

  (* one call on both rigs; everything architectural and timed agrees *)
  let lockstep ~here off r ~entry n =
    let ret0 = call off ~entry n and ret = call r ~entry n in
    check Alcotest.int (here ^ ": ret") ret0 ret;
    check Alcotest.bool (here ^ ": registers") true (off.m.S.st = r.m.S.st);
    check Alcotest.int (here ^ ": insns") off.m.S.insns r.m.S.insns;
    check Alcotest.int (here ^ ": cycles") off.m.S.cycles r.m.S.cycles;
    let stats (x : rig) = (Vmachine.Cache.stats x.m.S.icache, Vmachine.Cache.stats x.m.S.dcache) in
    check Alcotest.bool (here ^ ": icache/dcache stats") true (stats off = stats r);
    let pcs0 = Trace.retired_pcs off.tr and pcs = Trace.retired_pcs r.tr in
    (match Trace.first_divergence pcs0 pcs with
    | None -> ()
    | Some d ->
      Alcotest.failf "%s: retired streams diverge at ordinal %d (0x%x vs 0x%x)" here
        d.Trace.ordinal d.Trace.a_pc d.Trace.b_pc);
    pcs0

  (* a call that runs out of fuel stops on the same instruction as the
     interpreter's, with the same state *)
  let out_of_fuel ~here off r ~entry n ~fuel =
    let stop x =
      Trace.reset x.tr;
      match S.call ~fuel x.m ~entry [ S.int n ] with
      | () -> Alcotest.failf "%s: fuel %d did not run out" here fuel
      | exception S.Machine_error msg -> msg
    in
    let msg0 = stop off in
    check Alcotest.string (here ^ ": out-of-fuel error") msg0 (stop r);
    check Alcotest.int (here ^ ": pc at out-of-fuel") off.m.S.pc r.m.S.pc;
    check Alcotest.int (here ^ ": insns at out-of-fuel") off.m.S.insns r.m.S.insns;
    check Alcotest.int (here ^ ": cycles at out-of-fuel") off.m.S.cycles r.m.S.cycles;
    check Alcotest.bool (here ^ ": registers at out-of-fuel") true (off.m.S.st = r.m.S.st);
    check Alcotest.(array int) (here ^ ": stream at out-of-fuel") (Trace.retired_pcs off.tr)
      (Trace.retired_pcs r.tr)

  (* the iterations that make a call retire well past the budget *)
  let long = Engine.cold_budget / 4

  let pads = List.init 8 Fun.id

  let case ~hot_calls (mode_name, mode) () =
    let off = rig (false, false, false) and r = rig ?hot_calls mode in
    let threshold = Option.value hot_calls ~default:Engine.hot_calls in
    let here = Printf.sprintf "%s/%s/hot_calls=%d" name mode_name threshold in
    let code base pad =
      let c = gen_loop ~base ~pad in
      install off.m c;
      install r.m c;
      c
    in
    (* one entry per pad for the escapes, and three more: one driven hot
       by its call count, one by its shared budget, one for fuel *)
    let escapes =
      List.map (fun pad -> (code (0x10000 + (pad * 0x400)) pad).Vcode.entry_addr) pads
    in
    let counted_code = code 0x14000 0 in
    let counted = counted_code.Vcode.entry_addr in
    let shared = (code 0x14400 1).Vcode.entry_addr in
    let fueled = (code 0x14800 3).Vcode.entry_addr in
    let call ~what entry n =
      ignore (lockstep ~here:(Printf.sprintf "%s %s@0x%x" here what entry) off r ~entry n
              : int array)
    in
    (* a short cold call translates nothing *)
    call ~what:"first call" counted 2;
    check Alcotest.int (here ^ ": a short cold call translates nothing") 0 (translated r);
    check Alcotest.int (here ^ ": one cold call") 1 (counter r "cold_calls");
    (* fuel ending inside the cold phase, at the budget, one past it
       (the escape) and on the hot entry *)
    List.iter
      (fun fuel ->
        out_of_fuel ~here:(Printf.sprintf "%s fuel %d" here fuel) off r ~entry:fueled (4 * long)
          ~fuel)
      [ Engine.cold_budget - 3; Engine.cold_budget; Engine.cold_budget + 1;
        3 * Engine.cold_budget ];
    (* a long first call at every pad escapes mid-call, at a different
       instruction of the loop each time *)
    let ups = counter r "tier_ups" and t0 = translated r and slot_escapes = ref 0 in
    List.iter
      (fun entry ->
        let pcs = lockstep ~here:(Printf.sprintf "%s escape@0x%x" here entry) off r ~entry long in
        check Alcotest.bool (here ^ ": the call crossed the budget") true
          (Array.length pcs > Engine.cold_budget + 1);
        (* the first instruction past the budget is a taken branch's
           delay slot: the next one is not its fall-through *)
        if pcs.(Engine.cold_budget + 1) <> pcs.(Engine.cold_budget) + 4 then incr slot_escapes)
      escapes;
    if delay_slot then
      check Alcotest.bool (here ^ ": an escape lands on a delay slot") true (!slot_escapes > 0);
    check Alcotest.bool (here ^ ": the escapes translated") true (translated r > t0);
    check Alcotest.int (here ^ ": one tier-up per escaping entry") (List.length escapes)
      (counter r "tier_ups" - ups);
    (* medium calls share one budget: the call that exhausts it escapes
       mid-call, before the count reaches the default threshold *)
    let i0 = off.m.S.insns and cold0 = counter r "cold_calls" in
    call ~what:"shared 1" shared 40;
    let per_call = off.m.S.insns - i0 in
    for k = 2 to threshold + 2 do
      call ~what:(Printf.sprintf "shared %d" k) shared 40
    done;
    check Alcotest.int (here ^ ": cold calls until the shared budget runs out")
      (min threshold ((Engine.cold_budget / per_call) + 1))
      (counter r "cold_calls" - cold0);
    (* tiny calls stay inside the budget and go up by their count *)
    let cold0 = counter r "cold_calls" in
    for k = 2 to threshold + 2 do
      call ~what:(Printf.sprintf "counted %d" k) counted (k mod 3)
    done;
    check Alcotest.int (here ^ ": the counted entry ran hot_calls calls cold") (threshold - 1)
      (counter r "cold_calls" - cold0);
    (* everything is hot now: mixed calls retire no cold call *)
    let cold = counter r "cold_calls" in
    List.iteri
      (fun k entry -> call ~what:"hot" entry (if k mod 3 = 0 then long else k mod 7))
      ((counted :: shared :: fueled :: escapes) @ escapes);
    check Alcotest.int (here ^ ": hot calls are not cold") cold (counter r "cold_calls");
    (* rewriting a hot entry's code makes it cold again, also when it
       is the entry called last *)
    call ~what:"last hot call" counted 3;
    install r.m counted_code;
    install off.m counted_code;
    call ~what:"after reinstall" counted 3;
    check Alcotest.int (here ^ ": install_code makes the next call cold") (cold + 1)
      (counter r "cold_calls");
    (* a data store elsewhere forgets nothing... *)
    Vmachine.Mem.write_u32 r.m.S.mem 0x40000 7;
    Vmachine.Mem.write_u32 off.m.S.mem 0x40000 7;
    call ~what:"after a data store" shared 3;
    check Alcotest.int (here ^ ": a data store keeps the counts") (cold + 1)
      (counter r "cold_calls");
    (* ...and one byte stored into an entry's first word forgets it *)
    List.iter
      (fun (x : rig) ->
        let mem = x.m.S.mem in
        Vmachine.Mem.write_u8 mem (shared + 3) (Vmachine.Mem.read_u8 mem (shared + 3)))
      [ off; r ];
    call ~what:"after a byte store" shared 3;
    check Alcotest.int (here ^ ": a byte store at the entry makes it cold") (cold + 2)
      (counter r "cold_calls")

  (* Generators packed back to back, at the alignment [V.lambda] takes,
     the first placed so its entry is the first word at or after [at].
     VCODE puts a function's entry past its prologue space, so only
     then do two entries share a granule. *)
  let pack ~at gens =
    let first = List.hd gens in
    let skew = (first ~base:0).Vcode.entry_addr in
    let base = ref ((at - skew + 7) land lnot 7) in
    List.map
      (fun gen ->
        let c = gen ~base:!base in
        base := (c.Vcode.base + c.Vcode.code_bytes + 7) land lnot 7;
        c)
      gens

  (* a tiny function ending at the top of memory *)
  let at_top k =
    let bytes = (gen_tiny ~base:0 k).Vcode.code_bytes in
    gen_tiny ~base:((test_config.Vmachine.Mconfig.mem_bytes - bytes) land lnot 7) k

  (* store the byte already at [addr] back on both rigs: the code is
     unchanged, but the write watchers see a store *)
  let rewrite_byte off r addr =
    List.iter
      (fun (x : rig) ->
        let mem = x.m.S.mem in
        Vmachine.Mem.write_u8 mem addr (Vmachine.Mem.read_u8 mem addr))
      [ off; r ]

  (* Entries that share a granule: [a] takes the granule's slot, [b]
     the overflow table, and each is counted, goes up and is forgotten
     on its own, also after a forget moves [b] into the slot.  Then an
     entry in the last granule of memory, and [flush_caches]. *)
  let granule_case (mode_name, mode) () =
    let hot = 3 in
    let off = rig (false, false, false) and r = rig ~hot_calls:hot mode in
    let here = Printf.sprintf "%s/%s granules" name mode_name in
    let put c =
      install off.m c;
      install r.m c;
      c.Vcode.entry_addr
    in
    let ea, eb =
      match List.map put (pack ~at:0x15000 [ gen_tiny 1; gen_tiny 2 ]) with
      | [ ea; eb ] -> (ea, eb)
      | _ -> assert false
    in
    check Alcotest.bool (here ^ ": a and b share a granule") true (ea lsr 8 = eb lsr 8 && ea <> eb);
    let call what e = ignore (lockstep ~here:(here ^ " " ^ what) off r ~entry:e 5 : int array) in
    let expect what cold ups =
      check Alcotest.int (here ^ ": cold calls " ^ what) cold (counter r "cold_calls");
      check Alcotest.int (here ^ ": tier-ups " ^ what) ups (counter r "tier_ups")
    in
    for _ = 1 to hot do
      call "a" ea
    done;
    expect "after a's calls" hot 1;
    call "b" eb;
    call "a hot" ea;
    expect "b counts alone" (hot + 1) 1;
    for _ = 2 to hot do
      call "b" eb
    done;
    call "a hot" ea;
    call "b hot" eb;
    expect "both hot" (2 * hot) 2;
    (* a byte in a's code past its first word forgets nothing *)
    rewrite_byte off r (ea + 4);
    call "a" ea;
    call "b" eb;
    expect "a store past the first word" (2 * hot) 2;
    (* forget a, the slot's entry: b moves into the slot, still hot *)
    rewrite_byte off r (ea + 3);
    call "b after a's forget" eb;
    expect "b stays hot" (2 * hot) 2;
    call "a after its forget" ea;
    expect "a is cold again" ((2 * hot) + 1) 2;
    for _ = 2 to hot do
      call "a" ea
    done;
    expect "a hot again" (3 * hot) 3;
    (* forget b, now the slot's entry, then b, now the overflow's *)
    rewrite_byte off r eb;
    call "a after b's forget" ea;
    expect "a stays hot" (3 * hot) 3;
    for _ = 1 to hot do
      call "b" eb
    done;
    expect "b hot again" (4 * hot) 4;
    rewrite_byte off r (eb + 1);
    call "a" ea;
    call "b" eb;
    expect "only b forgotten" ((4 * hot) + 1) 4;
    (* the last granule of memory *)
    let top = test_config.Vmachine.Mconfig.mem_bytes in
    let el = put (at_top 3) in
    check Alcotest.bool (here ^ ": entry in the last granule") true (el lsr 8 = (top - 1) lsr 8);
    let cold = counter r "cold_calls" and ups = counter r "tier_ups" in
    for _ = 1 to hot + 1 do
      call "last granule" el
    done;
    expect "the last granule's entry" (cold + hot) (ups + 1);
    rewrite_byte off r el;
    call "last granule after a store" el;
    expect "the last granule's entry forgotten" (cold + hot + 1) (ups + 1);
    (* a flush forgets every count: all three hot first, b in the
       overflow table *)
    for _ = 2 to hot do
      call "b" eb;
      call "last granule" el
    done;
    List.iter (call "hot before flush") [ ea; eb; el ];
    expect "all hot before flush" (cold + (3 * hot) - 1) (ups + 3);
    S.flush_caches off.m;
    S.flush_caches r.m;
    List.iter (call "after flush") [ ea; eb; el ];
    expect "flush_caches" (cold + (3 * hot) + 2) (ups + 3)

  (* A hot call looks its entry up in the count table, one with tier-up
     off does not; the lookup must allocate nothing, so both allocate
     the same per call. *)
  let alloc_case (mode_name, (predecode, blocks, regions)) () =
    let per_call hot_calls =
      let m = S.create ~hot_calls ~predecode ~blocks ~regions test_config in
      let c = List.hd (pack ~at:0x15000 [ gen_tiny 1 ]) in
      Vmachine.Mem.install_code m.S.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf;
      let entry = c.Vcode.entry_addr in
      let args = [ S.int 5 ] in
      for _ = 1 to 2 * Engine.hot_calls do
        S.call m ~entry args
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        S.call m ~entry args
      done;
      (Gc.minor_words () -. w0) /. 1000.
    in
    check (Alcotest.float 0.)
      (Printf.sprintf "%s/%s: minor words per hot call, counted vs tier-up off" name mode_name)
      (per_call 0) (per_call Engine.hot_calls)

  (* The policy as an assoc list from entry to (calls, budget left),
     driven by a seeded mix of calls, which must produce the engine's
     cold-call and tier-up counts, and stores of random width over the
     code, which forget the entries whose first word they overlap. *)
  let model_case (mode_name, mode) () =
    let hot = 5 in
    let off = rig (false, false, false) and r = rig ~hot_calls:hot mode in
    let here = Printf.sprintf "%s/%s model" name mode_name in
    let put c =
      install off.m c;
      install r.m c;
      c
    in
    (* tiny functions and loops packed back to back, a loop at a granule
       boundary, a function in the last granule; (entry, is a loop) *)
    let ks = List.init 10 Fun.id in
    let loop k = k mod 3 = 2 in
    let codes =
      pack ~at:0x18000
        (List.map (fun k -> if loop k then gen_loop ~pad:k else fun ~base -> gen_tiny ~base k) ks)
    in
    let packed = List.map2 (fun k c -> ((put c).Vcode.entry_addr, loop k)) ks codes in
    let code_hi = (let c = List.nth codes 9 in c.Vcode.base + c.Vcode.code_bytes) in
    let edge = (put (List.hd (pack ~at:0x18800 [ gen_loop ~pad:1 ]))).Vcode.entry_addr in
    let top = test_config.Vmachine.Mconfig.mem_bytes in
    let last = (put (at_top 7)).Vcode.entry_addr in
    let entries = Array.of_list (packed @ [ (edge, true); (last, false) ]) in
    let rng = Random.State.make [| 26 |] in
    let model = ref [] and cold = ref 0 and ups = ref 0 in
    for step = 1 to 3000 do
      let what = Printf.sprintf "step %d" step in
      if Random.State.int rng 5 < 3 then begin
        let e, loop = entries.(Random.State.int rng (Array.length entries)) in
        let arg = if loop then Random.State.int rng 120 else Random.State.int rng 1000 in
        let i0 = off.m.S.insns in
        ignore (lockstep ~here:(here ^ " " ^ what) off r ~entry:e arg : int array);
        let retired = off.m.S.insns - i0 in
        let n, left = Option.value (List.assoc_opt e !model) ~default:(0, Engine.cold_budget) in
        if n < hot then begin
          let n = n + 1 in
          incr cold;
          if n = hot then incr ups;
          let st =
            if retired <= left then (n, left - retired)
            else begin
              if n < hot then incr ups;
              (hot, left)
            end
          in
          model := (e, st) :: List.remove_assoc e !model
        end
      end
      else begin
        (* a store over the code: packed, at the boundary or at the top *)
        let lo, hi =
          match Random.State.int rng 4 with
          | 0 -> (edge - 16, edge + 16)
          | 1 -> (last - 16, top)
          | _ -> (0x18000 - 16, code_hi)
        in
        let width = [| 1; 2; 4; 8; 1 + Random.State.int rng 300 |].(Random.State.int rng 5) in
        let addr = lo + Random.State.int rng (hi - lo) in
        let addr = if width <= 8 then addr land lnot (width - 1) else addr in
        let width = min width (top - addr) in
        List.iter
          (fun (x : rig) ->
            let mem = x.m.S.mem in
            match width with
            | 1 -> Vmachine.Mem.write_u8 mem addr (Vmachine.Mem.read_u8 mem addr)
            | 2 -> Vmachine.Mem.write_u16 mem addr (Vmachine.Mem.read_u16 mem addr)
            | 4 -> Vmachine.Mem.write_u32 mem addr (Vmachine.Mem.read_u32 mem addr)
            | 8 -> Vmachine.Mem.write_u64 mem addr (Vmachine.Mem.read_u64 mem addr)
            | n -> Vmachine.Mem.blit_string mem ~addr (Vmachine.Mem.read_string mem ~addr ~len:n))
          [ off; r ];
        model := List.filter (fun (e, _) -> e + 4 <= addr || e >= addr + width) !model
      end;
      check Alcotest.int (here ^ ": cold calls at " ^ what) !cold (counter r "cold_calls");
      check Alcotest.int (here ^ ": tier-ups at " ^ what) !ups (counter r "tier_ups")
    done;
    (* the mix reached every kind of step *)
    check Alcotest.bool (here ^ ": entries went up and were forgotten") true (!ups > 10 && !cold > 100)

  (* the registry's scrub: evicting a hot filter zero-fills its slab,
     and the filter installed into the reused slab starts cold *)
  let scrub_case () =
    let r = rig (true, true, true) in
    let pkt_addr = 0x80000 in
    Dpf.Packet.install r.m.S.mem ~addr:pkt_addr (Dpf.Packet.tcp ~dst_port:2001 ());
    let sv = SV.create r.m.S.mem in
    let filter fid = Dpf.Filter.tcpip_session ~fid ~dst_ip:0x0A000001 ~dst_port:2001 in
    let classify entry =
      S.call r.m ~entry [ S.int pkt_addr; S.int 40 ];
      S.ret_int r.m
    in
    let e1 = SV.install sv ~key:1 (filter 101) in
    for _ = 1 to Engine.hot_calls do
      check Alcotest.int (name ^ ": filter 1 classifies") 101 (classify e1)
    done;
    let cold = counter r "cold_calls" in
    check Alcotest.int (name ^ ": filter 1 classifies hot") 101 (classify e1);
    check Alcotest.int (name ^ ": filter 1 went hot") cold (counter r "cold_calls");
    check Alcotest.bool (name ^ ": evicted") true (SV.evict sv 1);
    let e2 = SV.install sv ~key:2 (filter 102) in
    check Alcotest.int (name ^ ": the slab is reused") e1 e2;
    let cold = counter r "cold_calls" in
    check Alcotest.int (name ^ ": filter 2 classifies") 102 (classify e2);
    check Alcotest.int (name ^ ": and its first call is cold") (cold + 1) (counter r "cold_calls")

  let tests =
    let translating = List.filter (fun (m, _) -> m <> "off") Workloads.modes in
    List.concat_map
      (fun hot_calls ->
        List.map
          (fun ((mode_name, _) as mode) ->
            Alcotest.test_case
              (Printf.sprintf "%s %s, hot_calls %s" name mode_name
                 (match hot_calls with Some n -> string_of_int n | None -> "default"))
              `Quick (case ~hot_calls mode))
          translating)
      [ Some 1; None ]
    @ List.map
        (fun ((mode_name, _) as mode) ->
          Alcotest.test_case (Printf.sprintf "%s %s, shared granules" name mode_name) `Quick
            (granule_case mode))
        translating
    @ List.map
        (fun ((mode_name, _) as mode) ->
          Alcotest.test_case (Printf.sprintf "%s %s, hot-call allocation" name mode_name) `Quick
            (alloc_case mode))
        translating
    @ [ Alcotest.test_case (name ^ " registry scrub") `Quick scrub_case ]
end

module Mips_port = Make_port (Vmips.Mips_backend) (Workloads.Sims.Mips)
module Sparc_port = Make_port (Vsparc.Sparc_backend) (Workloads.Sims.Sparc)
module Alpha_port = Make_port (Valpha.Alpha_backend) (Workloads.Sims.Alpha)
module Ppc_port = Make_port (Vppc.Ppc_backend) (Workloads.Sims.Ppc)

let () =
  Alcotest.run "tierup"
    [
      ("lockstep (mips)", Mips_port.tests);
      ("lockstep (sparc)", Sparc_port.tests);
      ("lockstep (alpha)", Alpha_port.tests);
      ("lockstep (ppc)", Ppc_port.tests);
      ( "count table model (mips)",
        List.map
          (fun ((mode_name, _) as mode) ->
            Alcotest.test_case ("mips " ^ mode_name) `Quick (Mips_port.model_case mode))
          (List.filter (fun (m, _) -> m <> "off") Workloads.modes) );
    ]
