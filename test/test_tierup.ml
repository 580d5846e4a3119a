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
   registry evict (the slab scrub), must make the next call cold. *)

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
    ]
