(* Alpha port tests: 64-bit semantics, byte/halfword synthesis (no BWX),
   software division millicode, and cross-checks against OCaml Int64
   reference semantics. *)

open Vcodebase
module A = Valpha.Alpha_asm
module Sim = Valpha.Alpha_sim
module V = Vcode.Make (Valpha.Alpha_backend)
open V.Names

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Encoder                                                             *)

let insn_gen : A.t QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_bound 31 in
  let disp16 = map (fun v -> v - 32768) (int_bound 65535) in
  let disp21 = map (fun v -> v - 0x100000) (int_bound 0x1FFFFF) in
  let lit = oneof [ map (fun r -> A.R r) reg; map (fun v -> A.L v) (int_bound 255) ] in
  let iop =
    oneofl
      [ A.Addl; A.Addq; A.Subl; A.Subq; A.Cmpeq; A.Cmplt; A.Cmpule; A.And;
        A.Bis; A.Xor; A.Ornot; A.Eqv; A.Sll; A.Srl; A.Sra; A.Extbl; A.Insbl;
        A.Mskbl; A.Mull; A.Mulq; A.Umulh; A.Cmovge; A.Cmovlt ]
  in
  let fop = oneofl [ A.Addt; A.Subt; A.Mult; A.Divt; A.Cmpteq; A.Cvtqt; A.Cvttq; A.Cpys ] in
  oneof
    [
      map3 (fun a b d -> A.Lda (a, b, d)) reg reg disp16;
      map3 (fun a b d -> A.Ldah (a, b, d)) reg reg disp16;
      map3 (fun a b d -> A.Ldq (a, b, d)) reg reg disp16;
      map3 (fun a b d -> A.Ldq_u (a, b, d)) reg reg disp16;
      map3 (fun a b d -> A.Stl (a, b, d)) reg reg disp16;
      map3 (fun a b d -> A.Ldt (a, b, d)) reg reg disp16;
      map3 (fun a b d -> A.Sts (a, b, d)) reg reg disp16;
      map2 (fun a d -> A.Br (a, d)) reg disp21;
      map2 (fun a d -> A.Bne (a, d)) reg disp21;
      map2 (fun a d -> A.Fbeq (a, d)) reg disp21;
      map2 (fun a b -> A.Jmp (a, b)) reg reg;
      map2 (fun a b -> A.Jsr (a, b)) reg reg;
      map2 (fun a b -> A.Retj (a, b)) reg reg;
      (map3 (fun o (a, b) c -> A.Intop (o, a, b, c)) iop (pair reg lit) reg);
      map3 (fun o (a, b) c -> A.Fpop (o, a, b, c)) fop (pair reg reg) reg;
    ]

let prop_encode_decode =
  QCheck.Test.make ~name:"alpha encode/decode roundtrip" ~count:2000
    (QCheck.make ~print:(fun i -> A.disasm (A.encode i)) insn_gen)
    (fun i -> A.encode (A.decode (A.encode i)) = A.encode i)

(* The decoder's operate tables: every integer and FP operation
   round-trips through encode/decode (register and literal forms), no
   two share an (opcode, function) pair, and every unassigned pair in
   the operate opcodes still decodes to [Bad_insn]. *)
let test_operate_tables () =
  check Alcotest.int "31 integer operations" 31 (List.length A.all_iops);
  check Alcotest.int "19 FP operations" 19 (List.length A.all_fops);
  List.iter
    (fun o ->
      List.iter
        (fun b ->
          let i = A.Intop (o, 3, b, 7) in
          check Alcotest.bool (A.iop_name o ^ " round-trips") true (A.decode (A.encode i) = i))
        [ A.R 5; A.L 200 ])
    A.all_iops;
  List.iter
    (fun o ->
      let i = A.Fpop (o, 2, 9, 30) in
      check Alcotest.bool (A.fop_name o ^ " round-trips") true (A.decode (A.encode i) = i))
    A.all_fops;
  let icodes = List.map A.iop_code A.all_iops and fcodes = List.map A.fop_code A.all_fops in
  check Alcotest.int "integer codes are distinct" 31 (List.length (List.sort_uniq compare icodes));
  check Alcotest.int "FP codes are distinct" 19 (List.length (List.sort_uniq compare fcodes));
  let raises w = match A.decode w with _ -> false | exception A.Bad_insn _ -> true in
  for op = 0x10 to 0x13 do
    for func = 0 to 0x7F do
      let w = (op lsl 26) lor (func lsl 5) in
      check Alcotest.bool
        (Printf.sprintf "operate 0x%02x/0x%02x decodes iff assigned" op func)
        (not (List.mem (op, func) icodes)) (raises w)
    done
  done;
  List.iter
    (fun op ->
      for func = 0 to 0x7FF do
        let w = (op lsl 26) lor (func lsl 5) in
        check Alcotest.bool
          (Printf.sprintf "FP operate 0x%02x/0x%03x decodes iff assigned" op func)
          (op = 0x15 || not (List.mem (op, func) fcodes)) (raises w)
      done)
    [ 0x14; 0x15; 0x16; 0x17 ]

let prop_disasm_total =
  QCheck.Test.make ~name:"alpha disasm never raises" ~count:2000
    QCheck.(int_bound 0xFFFFFFF)
    (fun w ->
      ignore (A.disasm w);
      true)

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)

let code_base = 0x10000
let aux_base = 0x20000

let build ?(base = code_base) ?(leaf = false) sig_ body =
  let g, args = V.lambda ~base ~leaf sig_ in
  body g args;
  V.end_gen g

let fresh_machine () = Sim.create Vmachine.Mconfig.test_config

let install m (code : Vcode.code) =
  Vmachine.Mem.install_code m.Sim.mem ~addr:code.Vcode.base code.Vcode.gen.Gen.buf

let run_i64 ?(args = []) (code : Vcode.code) =
  let m = fresh_machine () in
  install m code;
  Sim.call m ~entry:code.Vcode.entry_addr args;
  Sim.ret_int64 m

let run_double ?(args = []) (code : Vcode.code) =
  let m = fresh_machine () in
  install m code;
  Sim.call m ~entry:code.Vcode.entry_addr args;
  Sim.ret_double m

let sext32_64 (v : int64) = Int64.shift_right (Int64.shift_left v 32) 32

(* 64-bit reference semantics (L / UL types) *)
let ref_binop64 (op : Op.binop) signed (a : int64) (b : int64) : int64 =
  match op with
  | Op.Add -> Int64.add a b
  | Op.Sub -> Int64.sub a b
  | Op.Mul -> Int64.mul a b
  | Op.Div -> if signed then Int64.div a b else Int64.unsigned_div a b
  | Op.Mod -> if signed then Int64.rem a b else Int64.unsigned_rem a b
  | Op.And -> Int64.logand a b
  | Op.Or -> Int64.logor a b
  | Op.Xor -> Int64.logxor a b
  | Op.Lsh -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | Op.Rsh ->
    if signed then Int64.shift_right a (Int64.to_int (Int64.logand b 63L))
    else Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))

(* 32-bit reference semantics (I / U types, values kept sign-extended) *)
let ref_binop32 (op : Op.binop) signed (a : int64) (b : int64) : int64 =
  let u v = Int64.logand v 0xFFFFFFFFL in
  match op with
  | Op.Add -> sext32_64 (Int64.add a b)
  | Op.Sub -> sext32_64 (Int64.sub a b)
  | Op.Mul -> sext32_64 (Int64.mul a b)
  | Op.Div ->
    if signed then sext32_64 (Int64.div a b) else sext32_64 (Int64.div (u a) (u b))
  | Op.Mod ->
    if signed then sext32_64 (Int64.rem a b) else sext32_64 (Int64.rem (u a) (u b))
  | Op.And -> Int64.logand a b
  | Op.Or -> Int64.logor a b
  | Op.Xor -> Int64.logxor a b
  | Op.Lsh -> sext32_64 (Int64.shift_left a (Int64.to_int (Int64.logand b 31L)))
  | Op.Rsh ->
    let sh = Int64.to_int (Int64.logand b 31L) in
    if signed then sext32_64 (Int64.shift_right a sh)
    else sext32_64 (Int64.shift_right_logical (u a) sh)

let i64_arb = QCheck.int64
let i32_arb = QCheck.map (fun v -> sext32_64 (Int64.of_int v)) QCheck.int

let binop_props =
  List.concat_map
    (fun op ->
      let n = Op.binop_to_string op in
      let mk ty sig_ ref_fn arb signed name =
        let code =
          build sig_ (fun g args ->
              V.arith g op ty args.(0) args.(0) args.(1);
              V.ret g ty (Some args.(0)))
        in
        QCheck.Test.make ~name ~count:100 (QCheck.pair arb arb) (fun (a, b) ->
            QCheck.assume (not ((op = Op.Div || op = Op.Mod) && Int64.equal b 0L));
            (* min_int / -1 overflows Int64.div's reference too *)
            QCheck.assume
              (not
                 ((op = Op.Div || op = Op.Mod)
                 && Int64.equal a Int64.min_int && Int64.equal b (-1L)));
            Int64.equal
              (run_i64 ~args:[ Sim.Int64 a; Sim.Int64 b ] code)
              (ref_fn op signed a b))
      in
      [
        mk Vtype.L "%l%l" ref_binop64 i64_arb true (Printf.sprintf "alpha v_%sl (64-bit)" n);
        mk Vtype.UL "%ul%ul" ref_binop64 i64_arb false (Printf.sprintf "alpha v_%sul (64-bit)" n);
        mk Vtype.I "%i%i" ref_binop32 i32_arb true (Printf.sprintf "alpha v_%si (32-bit)" n);
        mk Vtype.U "%u%u" ref_binop32 i32_arb false (Printf.sprintf "alpha v_%su (32-bit)" n);
      ])
    Op.all_binops

let prop_set_const64 =
  QCheck.Test.make ~name:"alpha v_setl loads any 64-bit constant" ~count:300 i64_arb
    (fun c ->
      let code =
        build "%l" (fun g args ->
            V.set g Vtype.L args.(0) c;
            retl g args.(0))
      in
      Int64.equal (run_i64 ~args:[ Sim.Int64 0L ] code) c)

let ref_cond (c : Op.cond) signed (a : int64) (b : int64) =
  let cmp = if signed then Int64.compare a b else Int64.unsigned_compare a b in
  match c with
  | Op.Lt -> cmp < 0
  | Op.Le -> cmp <= 0
  | Op.Gt -> cmp > 0
  | Op.Ge -> cmp >= 0
  | Op.Eq -> cmp = 0
  | Op.Ne -> cmp <> 0

let branch_props =
  List.concat_map
    (fun c ->
      let n = Op.cond_to_string c in
      let mk ty signed name =
        let code =
          build "%l%l" (fun g args ->
              let l = V.genlabel g in
              let r = V.getreg_exn g ~cls:`Temp Vtype.L in
              V.set g Vtype.L r 1L;
              V.branch g c ty args.(0) args.(1) l;
              V.set g Vtype.L r 0L;
              V.label g l;
              retl g r)
        in
        QCheck.Test.make ~name ~count:100 (QCheck.pair i64_arb i64_arb) (fun (a, b) ->
            Int64.equal
              (run_i64 ~args:[ Sim.Int64 a; Sim.Int64 b ] code)
              (if ref_cond c signed a b then 1L else 0L))
      in
      [
        mk Vtype.L true (Printf.sprintf "alpha %sl" n);
        mk Vtype.UL false (Printf.sprintf "alpha %sul" n);
      ])
    Op.all_conds

let prop_branch_imm_zero =
  QCheck.Test.make ~name:"alpha zero-compare branches use native forms" ~count:150
    (QCheck.pair (QCheck.oneofl Op.all_conds) i64_arb)
    (fun (c, a) ->
      let code =
        build "%l" (fun g args ->
            let l = V.genlabel g in
            let r = V.getreg_exn g ~cls:`Temp Vtype.L in
            V.set g Vtype.L r 1L;
            V.branch_imm g c Vtype.L args.(0) 0 l;
            V.set g Vtype.L r 0L;
            V.label g l;
            retl g r)
      in
      Int64.equal
        (run_i64 ~args:[ Sim.Int64 a ] code)
        (if ref_cond c true a 0L then 1L else 0L))

(* ------------------------------------------------------------------ *)
(* Byte/halfword synthesis (the section 6.2 sequences)                 *)

let prop_byte_store_load =
  QCheck.Test.make ~name:"alpha synthesized byte store/load roundtrip" ~count:200
    (QCheck.pair (QCheck.int_bound 63) (QCheck.int_bound 255))
    (fun (off, v) ->
      let code =
        build "%p%i%i" (fun g args ->
            (* store byte v at buf+off, then load it back unsigned *)
            V.store g Vtype.UC args.(2) args.(0) (Gen.Oimm off);
            V.load g Vtype.UC args.(1) args.(0) (Gen.Oimm off);
            reti g args.(1))
      in
      let m = fresh_machine () in
      install m code;
      let buf = 0x40000 in
      (* pre-fill so the read-modify-write of stq_u is visible *)
      for i = 0 to 71 do
        Vmachine.Mem.write_u8 m.Sim.mem (buf + i) 0xAA
      done;
      Sim.call m ~entry:code.Vcode.entry_addr [ Sim.Int buf; Sim.Int 0; Sim.Int v ];
      Sim.ret_int m = v
      && Vmachine.Mem.read_u8 m.Sim.mem (buf + off) = v
      && (* neighbours untouched *)
      (off = 0 || Vmachine.Mem.read_u8 m.Sim.mem (buf + off - 1) = 0xAA)
      && Vmachine.Mem.read_u8 m.Sim.mem (buf + off + 1) = 0xAA)

let prop_halfword_roundtrip =
  QCheck.Test.make ~name:"alpha synthesized halfword store/load (signed+unsigned)"
    ~count:200
    (QCheck.pair (QCheck.int_bound 31) (QCheck.int_bound 65535))
    (fun (idx, v) ->
      let off = 2 * idx in
      let code =
        build "%p%i%i" (fun g args ->
            V.store g Vtype.US args.(2) args.(0) (Gen.Oimm off);
            V.load g Vtype.S args.(1) args.(0) (Gen.Oimm off);
            reti g args.(1))
      in
      let m = fresh_machine () in
      install m code;
      let buf = 0x40000 in
      Sim.call m ~entry:code.Vcode.entry_addr [ Sim.Int buf; Sim.Int 0; Sim.Int v ];
      let expect = if v land 0x8000 <> 0 then v - 0x10000 else v in
      Sim.ret_int m = expect)

let test_signed_byte_load () =
  let code =
    build "%p" (fun g args ->
        let r = V.getreg_exn g ~cls:`Temp Vtype.I in
        V.load g Vtype.C r args.(0) (Gen.Oimm 5);
        reti g r)
  in
  let m = fresh_machine () in
  install m code;
  Vmachine.Mem.write_u8 m.Sim.mem (0x40000 + 5) 0x80;
  Sim.call m ~entry:code.Vcode.entry_addr [ Sim.Int 0x40000 ];
  check Alcotest.int "sign-extended byte" (-128) (Sim.ret_int m)

(* ------------------------------------------------------------------ *)
(* Division millicode                                                  *)

let test_division_edge_cases () =
  let div_code =
    build "%l%l" (fun g args ->
        divl g args.(0) args.(0) args.(1);
        retl g args.(0))
  in
  let rem_code =
    build "%l%l" (fun g args ->
        modl g args.(0) args.(0) args.(1);
        retl g args.(0))
  in
  let dv a b = run_i64 ~args:[ Sim.Int64 a; Sim.Int64 b ] div_code in
  let rm a b = run_i64 ~args:[ Sim.Int64 a; Sim.Int64 b ] rem_code in
  check Alcotest.int64 "7/2" 3L (dv 7L 2L);
  check Alcotest.int64 "-7/2" (-3L) (dv (-7L) 2L);
  check Alcotest.int64 "7/-2" (-3L) (dv 7L (-2L));
  check Alcotest.int64 "-7/-2" 3L (dv (-7L) (-2L));
  check Alcotest.int64 "7 mod 2" 1L (rm 7L 2L);
  check Alcotest.int64 "-7 mod 2" (-1L) (rm (-7L) 2L);
  check Alcotest.int64 "7 mod -2" 1L (rm 7L (-2L));
  check Alcotest.int64 "big/small" 123456789012L (dv 987654312096L 8L);
  check Alcotest.int64 "div by zero yields 0 (millicode guard)" 0L (dv 5L 0L)

let test_millicode_preserves_registers () =
  (* the special emulation-routine convention: a division in the middle
     of live temps must not disturb them *)
  let code =
    build "%l%l" (fun g args ->
        let keep = Array.init 6 (fun _ -> V.getreg_exn g ~cls:`Temp Vtype.L) in
        Array.iteri (fun i r -> V.set g Vtype.L r (Int64.of_int (100 + i))) keep;
        divl g args.(0) args.(0) args.(1);
        (* sum the kept registers into the result *)
        Array.iter (fun r -> addl g args.(0) args.(0) r) keep;
        retl g args.(0))
  in
  (* 1000/10 + (100+101+...+105) = 100 + 615 = 715 *)
  check Alcotest.int64 "registers survive millicode" 715L
    (run_i64 ~args:[ Sim.Int64 1000L; Sim.Int64 10L ] code)

let test_leaf_division_allowed () =
  (* millicode calls don't count as procedure calls: legal in a leaf *)
  let code =
    build ~leaf:true "%l%l" (fun g args ->
        divl g args.(0) args.(0) args.(1);
        retl g args.(0))
  in
  check Alcotest.int64 "leaf division" 6L (run_i64 ~args:[ Sim.Int64 42L; Sim.Int64 7L ] code)

(* ------------------------------------------------------------------ *)
(* Calls, floats                                                       *)

let test_call_and_callee_saved () =
  let callee =
    build ~base:aux_base "%l" (fun g args ->
        let s = V.sreg 0 in
        V.set g Vtype.L s 31337L;
        addl g args.(0) args.(0) s;
        retl g args.(0))
  in
  let caller =
    build "%l" (fun g args ->
        let s = V.getreg_exn g ~cls:`Var Vtype.L in
        V.set g Vtype.L s 1000000L;
        V.ccall g (Gen.Jaddr callee.Vcode.entry_addr)
          ~args:[ (Vtype.L, args.(0)) ]
          ~ret:(Some (Vtype.L, args.(0)));
        addl g args.(0) args.(0) s;
        retl g args.(0))
  in
  let m = fresh_machine () in
  install m callee;
  install m caller;
  Sim.call m ~entry:caller.Vcode.entry_addr [ Sim.Int64 1L ];
  check Alcotest.int64 "alpha callee-saved" 1031338L (Sim.ret_int64 m)

let test_eight_args () =
  let code =
    build "%l%l%l%l%l%l%l%l" (fun g args ->
        let acc = V.getreg_exn g ~cls:`Temp Vtype.L in
        V.unary g Op.Mov Vtype.L acc args.(0);
        for k = 1 to 7 do
          let t = V.getreg_exn g ~cls:`Temp Vtype.L in
          V.Strength.mul g Vtype.L t args.(k) (k + 1);
          addl g acc acc t;
          V.putreg g t
        done;
        retl g acc)
  in
  let args = List.init 8 (fun i -> Sim.Int (i + 1)) in
  check Alcotest.int64 "alpha 8 args" 204L (run_i64 ~args code)

let test_double_arith_and_fimm () =
  let code =
    build "%d%d" (fun g args ->
        let c = V.getreg_exn g ~cls:`Temp Vtype.D in
        setd g c 0.5;
        addd g args.(0) args.(0) args.(1);
        muld g args.(0) args.(0) c;
        retd g args.(0))
  in
  check (Alcotest.float 1e-9) "(1.5 + 2.5) * 0.5" 2.0
    (run_double ~args:[ Sim.Double 1.5; Sim.Double 2.5 ] code)

let prop_int_double_conversion =
  QCheck.Test.make ~name:"alpha cvl2d / cvd2l roundtrip" ~count:150
    (QCheck.int_range (-1000000000) 1000000000)
    (fun n ->
      let code =
        build "%l" (fun g args ->
            let d = V.getreg_exn g ~cls:`Temp Vtype.D in
            cvl2d g d args.(0);
            cvd2l g args.(0) d;
            retl g args.(0))
      in
      Int64.equal (run_i64 ~args:[ Sim.Int n ] code) (Int64.of_int n))

let run_int_of code a b =
  let m = fresh_machine () in
  install m code;
  Sim.call m ~entry:code.Vcode.entry_addr [ Sim.Double a; Sim.Double b ];
  Sim.ret_int m

let test_float_branch () =
  let code =
    build "%d%d" (fun g args ->
        let l = V.genlabel g in
        let r = V.getreg_exn g ~cls:`Temp Vtype.I in
        seti g r 1;
        bged g args.(0) args.(1) l;
        seti g r 0;
        V.label g l;
        reti g r)
  in
  check Alcotest.int "2 >= 2" 1 (run_int_of code 2.0 2.0);
  check Alcotest.int "1 >= 2 false" 0 (run_int_of code 1.0 2.0)

let test_extension_portability () =
  V.Ext.load_spec "(madd (rd, ra, rb) (l (seq (mul scratch ra rb) (add rd rd scratch))))";
  let code =
    build "%l%l%l" (fun g args ->
        V.Ext.emit g ~name:"madd" ~ty:Vtype.L [| args.(0); args.(1); args.(2) |];
        retl g args.(0))
  in
  check Alcotest.int64 "alpha portable madd" 52L
    (run_i64 ~args:[ Sim.Int 10; Sim.Int 6; Sim.Int 7 ] code)

let run_int_of2 code a =
  let m = fresh_machine () in
  install m code;
  Sim.call m ~entry:code.Vcode.entry_addr [ Sim.Int a ];
  Sim.ret_int m

let test_no_delay_slots () =
  (* schedule_delay on a no-delay-slot target: the slot instruction
     simply precedes the branch *)
  let code =
    build "%i" (fun g args ->
        let l = V.genlabel g in
        V.Sched.schedule_delay g
          ~branch:(fun () -> jv g l)
          ~slot:(fun () -> addii g args.(0) args.(0) 1);
        addii g args.(0) args.(0) 100;
        V.label g l;
        reti g args.(0))
  in
  check Alcotest.int "slot before branch" 8 (run_int_of2 code 7)

let () =
  Alcotest.run "vcode-alpha"
    [
      ( "asm",
        [ qtest prop_encode_decode; qtest prop_disasm_total;
          Alcotest.test_case "operate tables" `Quick test_operate_tables ] );
      ("binops", List.map qtest binop_props);
      ("consts", [ qtest prop_set_const64 ]);
      ("control", List.map qtest branch_props @ [ qtest prop_branch_imm_zero ]);
      ( "subword",
        [
          qtest prop_byte_store_load;
          qtest prop_halfword_roundtrip;
          Alcotest.test_case "signed byte load" `Quick test_signed_byte_load;
        ] );
      ( "division",
        [
          Alcotest.test_case "edge cases" `Quick test_division_edge_cases;
          Alcotest.test_case "millicode preserves" `Quick test_millicode_preserves_registers;
          Alcotest.test_case "leaf division" `Quick test_leaf_division_allowed;
        ] );
      ( "calls",
        [
          Alcotest.test_case "callee-saved" `Quick test_call_and_callee_saved;
          Alcotest.test_case "8 args" `Quick test_eight_args;
        ] );
      ( "float",
        [
          Alcotest.test_case "double + fimm" `Quick test_double_arith_and_fimm;
          qtest prop_int_double_conversion;
          Alcotest.test_case "fp branch" `Quick test_float_branch;
        ] );
      ( "layers",
        [
          Alcotest.test_case "portable extension" `Quick test_extension_portability;
          Alcotest.test_case "no delay slots" `Quick test_no_delay_slots;
        ] );
    ]
