(* Cross-target regression generation.

   Section 3.3: "to aid in the retargeting process VCODE includes a
   script to automatically generate regression tests for errors in
   instruction mappings and calling conventions."  This is that script:
   random well-typed VCODE programs are generated, compiled by every
   port, executed on every simulator, and compared against an OCaml
   reference evaluator — plus a calling-convention fuzzer over random
   arities.  Also exercises the unlimited-virtual-register layer of
   section 6.2 on all ports. *)

open Vcodebase

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* A tiny straightline program language over four register slots       *)

type rinsn =
  | Rbin of Op.binop * int * int * int (* dst, a, b *)
  | Rbini of Op.binop * int * int * int (* dst, a, imm *)
  | Run of Op.unop * int * int
  | Rset of int * int
  | Rstore of int * int (* mem[word off] <- slot *)
  | Rload of int * int  (* slot <- mem[word off] *)

let nslots = 4

let sext32 v =
  let v = v land 0xFFFFFFFF in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v


(* reference evaluation at type i (signed 32-bit) *)
let eval_binop (op : Op.binop) a b =
  match op with
  | Op.Add -> sext32 (a + b)
  | Op.Sub -> sext32 (a - b)
  | Op.Mul -> sext32 (a * b)
  | Op.Div -> if b = 0 then 0 else sext32 (Int.div a b)
  | Op.Mod -> if b = 0 then 0 else sext32 (Int.rem a b)
  | Op.And -> a land b
  | Op.Or -> a lor b
  | Op.Xor -> a lxor b
  | Op.Lsh -> sext32 (a lsl (b land 31))
  | Op.Rsh -> sext32 (sext32 a asr (b land 31))

let eval_unop (op : Op.unop) a =
  match op with
  | Op.Com -> sext32 (lnot a)
  | Op.Not -> if a = 0 then 1 else 0
  | Op.Mov -> a
  | Op.Neg -> sext32 (-a)

let mem_words = 16 (* word-addressed scratch buffer for Rload/Rstore *)

let reference (prog : rinsn list) a0 a1 =
  let slots = Array.make nslots 0 in
  let mem = Array.make mem_words 0 in
  slots.(0) <- sext32 a0;
  slots.(1) <- sext32 a1;
  List.iter
    (fun i ->
      match i with
      | Rbin (op, d, a, b) -> slots.(d) <- eval_binop op slots.(a) slots.(b)
      | Rbini (op, d, a, imm) -> slots.(d) <- eval_binop op slots.(a) imm
      | Run (op, d, a) -> slots.(d) <- eval_unop op slots.(a)
      | Rset (d, v) -> slots.(d) <- sext32 v
      | Rstore (s, w) -> mem.(w) <- slots.(s)
      | Rload (d, w) -> slots.(d) <- mem.(w))
    prog;
  slots.(0)

(* random program generator: avoids register-divisors (divide-by-zero
   semantics are unspecified) but includes safe immediate divides *)
let insn_gen : rinsn QCheck.Gen.t =
  let open QCheck.Gen in
  let slot = int_bound (nslots - 1) in
  let safe_binop = oneofl Op.[ Add; Sub; Mul; And; Or; Xor ] in
  let imm = oneof [ int_range (-100) 100; int_range (-100000) 100000; return 0x12345 ] in
  oneof
    [
      (let* op = safe_binop and* d = slot and* a = slot and* b = slot in
       return (Rbin (op, d, a, b)));
      (let* op = safe_binop and* d = slot and* a = slot and* i = imm in
       return (Rbini (op, d, a, i)));
      (let* d = slot and* a = slot and* sh = int_bound 31 in
       return (Rbini (Op.Lsh, d, a, sh)));
      (let* d = slot and* a = slot and* sh = int_bound 31 in
       return (Rbini (Op.Rsh, d, a, sh)));
      (let* d = slot and* a = slot and* dv = oneofl [ 1; 2; 3; 5; 8; 100 ] in
       return (Rbini (Op.Div, d, a, dv)));
      (let* d = slot and* a = slot and* dv = oneofl [ 2; 3; 16 ] in
       return (Rbini (Op.Mod, d, a, dv)));
      (let* op = oneofl Op.[ Com; Not; Mov; Neg ] and* d = slot and* a = slot in
       return (Run (op, d, a)));
      (let* d = slot and* v = imm in
       return (Rset (d, v)));
      (let* sl = slot and* w = int_bound (mem_words - 1) in
       return (Rstore (sl, w)));
      (let* d = slot and* w = int_bound (mem_words - 1) in
       return (Rload (d, w)));
    ]

let prog_gen = QCheck.Gen.(list_size (int_range 1 40) insn_gen)

let prog_print prog =
  String.concat "; "
    (List.map
       (function
         | Rbin (op, d, a, b) -> Printf.sprintf "r%d=r%d %s r%d" d a (Op.binop_to_string op) b
         | Rbini (op, d, a, i) -> Printf.sprintf "r%d=r%d %s %d" d a (Op.binop_to_string op) i
         | Run (op, d, a) -> Printf.sprintf "r%d=%s r%d" d (Op.unop_to_string op) a
         | Rset (d, v) -> Printf.sprintf "r%d=%d" d v
         | Rstore (s, w) -> Printf.sprintf "m[%d]=r%d" w s
         | Rload (d, w) -> Printf.sprintf "r%d=m[%d]" d w)
       prog)

(* ------------------------------------------------------------------ *)
(* Per-target compile-and-run                                          *)

module type RUNNER = sig
  val name : string
  val run : rinsn list -> int -> int -> int
  val run_virt : rinsn list -> int -> int -> int
  val call_conv : int list -> int (* weighted-sum function of the args *)
  val run_fp : float -> float -> float (* a fixed double-precision kernel *)
  val retval_keeps_var : unit -> int (* the caller's var register after a call *)
end

module Make_runner
    (T : Target.S)
    (S : sig
      type t

      val create : unit -> t
      val install : t -> Vcode.code -> unit
      val call_ints : t -> entry:int -> int list -> int
      val call_dd : t -> entry:int -> float -> float -> float
    end) : RUNNER = struct
  module V = Vcode.Make (T)

  let name = T.desc.Machdesc.name
  let base = 0x10000

  let emit_prog prog =
    let g, args = V.lambda ~base "%i%i" in
    let slots = Array.init nslots (fun _ -> V.getreg_exn g ~cls:`Var Vtype.I) in
    (* a zero-initialized scratch buffer in the frame *)
    let buf = V.local_block g ~bytes:(4 * mem_words) ~align:8 in
    let bufp = V.getreg_exn g ~cls:`Var Vtype.P in
    V.local_addr g buf bufp;
    let z = V.getreg_exn g ~cls:`Temp Vtype.I in
    V.set g Vtype.I z 0L;
    for w = 0 to mem_words - 1 do
      V.store g Vtype.I z bufp (Gen.Oimm (4 * w))
    done;
    V.putreg g z;
    V.unary g Op.Mov Vtype.I slots.(0) args.(0);
    V.unary g Op.Mov Vtype.I slots.(1) args.(1);
    V.set g Vtype.I slots.(2) 0L;
    V.set g Vtype.I slots.(3) 0L;
    List.iter
      (fun i ->
        match i with
        | Rbin (op, d, a, b) -> V.arith g op Vtype.I slots.(d) slots.(a) slots.(b)
        | Rbini (op, d, a, imm) -> V.arith_imm g op Vtype.I slots.(d) slots.(a) imm
        | Run (op, d, a) -> V.unary g op Vtype.I slots.(d) slots.(a)
        | Rset (d, v) -> V.set g Vtype.I slots.(d) (Int64.of_int v)
        | Rstore (sl, w) -> V.store g Vtype.I slots.(sl) bufp (Gen.Oimm (4 * w))
        | Rload (d, w) -> V.load g Vtype.I slots.(d) bufp (Gen.Oimm (4 * w)))
      prog;
    V.ret g Vtype.I (Some slots.(0));
    V.end_gen g

  let run prog a0 a1 =
    let code = emit_prog prog in
    let m = S.create () in
    S.install m code;
    sext32 (S.call_ints m ~entry:code.Vcode.entry_addr [ a0; a1 ])

  (* the same program through the virtual-register layer *)
  let run_virt prog a0 a1 =
    let g, args = V.lambda ~base "%i%i" in
    let vs = V.Virt.start g in
    let slots = Array.init nslots (fun _ -> V.Virt.vreg vs Vtype.I) in
    V.Virt.mov_in vs Vtype.I slots.(0) args.(0);
    V.Virt.mov_in vs Vtype.I slots.(1) args.(1);
    V.Virt.set vs Vtype.I slots.(2) 0L;
    V.Virt.set vs Vtype.I slots.(3) 0L;
    List.iter
      (fun i ->
        match i with
        | Rbin (op, d, a, b) -> V.Virt.arith vs op Vtype.I slots.(d) slots.(a) slots.(b)
        | Rbini (op, d, a, imm) -> V.Virt.arith_imm vs op Vtype.I slots.(d) slots.(a) imm
        | Run (op, d, a) -> V.Virt.unary vs op Vtype.I slots.(d) slots.(a)
        | Rset (d, v) -> V.Virt.set vs Vtype.I slots.(d) (Int64.of_int v)
        | Rstore _ | Rload _ -> invalid_arg "memory ops not supported in the Virt runner")
      prog;
    V.Virt.ret vs Vtype.I slots.(0);
    let code = V.end_gen g in
    let m = S.create () in
    S.install m code;
    sext32 (S.call_ints m ~entry:code.Vcode.entry_addr [ a0; a1 ])

  (* a fixed double-precision kernel exercising FP arith, constants and
     conversions identically on every port:
       f(a, b) = (a + b) * 2.5 - a / b + double(int(a)) *)
  let run_fp a b =
    let g, args = V.lambda ~base "%d%d" in
    let d = V.getreg_exn g ~cls:`Temp Vtype.D in
    let k = V.getreg_exn g ~cls:`Temp Vtype.D in
    V.arith g Op.Add Vtype.D d args.(0) args.(1);
    V.setf g Vtype.D k 2.5;
    V.arith g Op.Mul Vtype.D d d k;
    V.arith g Op.Div Vtype.D k args.(0) args.(1);
    V.arith g Op.Sub Vtype.D d d k;
    let i = V.getreg_exn g ~cls:`Temp Vtype.I in
    V.cvt g ~from:Vtype.D ~to_:Vtype.I i args.(0);
    V.cvt g ~from:Vtype.I ~to_:Vtype.D k i;
    V.arith g Op.Add Vtype.D d d k;
    V.ret g Vtype.D (Some d);
    let code = V.end_gen g in
    let m = S.create () in
    S.install m code;
    S.call_dd m ~entry:code.Vcode.entry_addr a b

  (* calling-convention fuzz target: f(x1..xn) = sum i*xi.  Registers
     come from the temp pool with a VAR-class fallback, the paper's
     prescribed client behaviour when argument registers exhaust the
     temps (as they do on PowerPC at full arity). *)
  let call_conv args_vals =
    let n = List.length args_vals in
    let sig_ = String.concat "" (List.init n (fun _ -> "%i")) in
    let g, args = V.lambda ~base sig_ in
    let grab () =
      match V.getreg g ~cls:`Temp Vtype.I with
      | Some r -> r
      | None -> V.getreg_exn g ~cls:`Var Vtype.I
    in
    let acc = grab () in
    V.set g Vtype.I acc 0L;
    Array.iteri
      (fun i r ->
        let t = grab () in
        V.Strength.mul g Vtype.I t r (i + 1);
        V.arith g Op.Add Vtype.I acc acc t;
        V.putreg g t)
      args;
    V.ret g Vtype.I (Some acc);
    let code = V.end_gen g in
    let m = S.create () in
    S.install m code;
    sext32 (S.call_ints m ~entry:code.Vcode.entry_addr args_vals)

  (* A callee-saved register written only by [retval] must still be
     saved by the function that writes it: [inner] fills its first var
     register from a call's result and returns it, while [outer] holds
     0x1234 in the same register across its call to [inner]. *)
  let retval_keeps_var () =
    let fn ~base ~leaf body =
      let g, _ = V.lambda ~base ~leaf "" in
      let r = V.getreg_exn g ~cls:(if leaf then `Temp else `Var) Vtype.I in
      body g r;
      V.ret g Vtype.I (Some r);
      V.end_gen g
    in
    let answer = fn ~base ~leaf:true (fun g r -> V.set g Vtype.I r 0x2aL) in
    let inner =
      fn ~base:(base + 0x1000) ~leaf:false (fun g r ->
          V.ccall g (Gen.Jaddr answer.Vcode.entry_addr) ~args:[] ~ret:(Some (Vtype.I, r)))
    in
    let outer =
      fn ~base:(base + 0x2000) ~leaf:false (fun g r ->
          V.set g Vtype.I r 0x1234L;
          V.ccall g (Gen.Jaddr inner.Vcode.entry_addr) ~args:[] ~ret:None)
    in
    let m = S.create () in
    List.iter (S.install m) [ answer; inner; outer ];
    S.call_ints m ~entry:outer.Vcode.entry_addr []
end

module Mips_runner =
  Make_runner
    (Vmips.Mips_backend)
    (struct
      type t = Vmips.Mips_sim.t

      let create () = Vmips.Mips_sim.create Vmachine.Mconfig.test_config

      let install m (c : Vcode.code) =
        Vmachine.Mem.install_code m.Vmips.Mips_sim.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

      let call_ints m ~entry vals =
        Vmips.Mips_sim.call m ~entry (List.map (fun v -> Vmips.Mips_sim.Int v) vals);
        Vmips.Mips_sim.ret_int m

      let call_dd m ~entry a b =
        Vmips.Mips_sim.call m ~entry [ Vmips.Mips_sim.Double a; Vmips.Mips_sim.Double b ];
        Vmips.Mips_sim.ret_double m
    end)

module Sparc_runner =
  Make_runner
    (Vsparc.Sparc_backend)
    (struct
      type t = Vsparc.Sparc_sim.t

      let create () = Vsparc.Sparc_sim.create Vmachine.Mconfig.test_config

      let install m (c : Vcode.code) =
        Vmachine.Mem.install_code m.Vsparc.Sparc_sim.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

      let call_ints m ~entry vals =
        Vsparc.Sparc_sim.call m ~entry (List.map (fun v -> Vsparc.Sparc_sim.Int v) vals);
        Vsparc.Sparc_sim.ret_int m

      let call_dd m ~entry a b =
        Vsparc.Sparc_sim.call m ~entry [ Vsparc.Sparc_sim.Double a; Vsparc.Sparc_sim.Double b ];
        Vsparc.Sparc_sim.ret_double m
    end)

module Alpha_runner =
  Make_runner
    (Valpha.Alpha_backend)
    (struct
      type t = Valpha.Alpha_sim.t

      let create () = Valpha.Alpha_sim.create Vmachine.Mconfig.test_config

      let install m (c : Vcode.code) =
        Vmachine.Mem.install_code m.Valpha.Alpha_sim.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

      let call_ints m ~entry vals =
        Valpha.Alpha_sim.call m ~entry (List.map (fun v -> Valpha.Alpha_sim.Int v) vals);
        Valpha.Alpha_sim.ret_int m

      let call_dd m ~entry a b =
        Valpha.Alpha_sim.call m ~entry [ Valpha.Alpha_sim.Double a; Valpha.Alpha_sim.Double b ];
        Valpha.Alpha_sim.ret_double m
    end)

module Ppc_runner =
  Make_runner
    (Vppc.Ppc_backend)
    (struct
      type t = Vppc.Ppc_sim.t

      let create () = Vppc.Ppc_sim.create Vmachine.Mconfig.test_config

      let install m (c : Vcode.code) =
        Vmachine.Mem.install_code m.Vppc.Ppc_sim.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

      let call_ints m ~entry vals =
        Vppc.Ppc_sim.call m ~entry (List.map (fun v -> Vppc.Ppc_sim.Int v) vals);
        Vppc.Ppc_sim.ret_int m

      let call_dd m ~entry a b =
        Vppc.Ppc_sim.call m ~entry [ Vppc.Ppc_sim.Double a; Vppc.Ppc_sim.Double b ];
        Vppc.Ppc_sim.ret_double m
    end)

let runners : (module RUNNER) list =
  [ (module Mips_runner); (module Sparc_runner); (module Alpha_runner); (module Ppc_runner) ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let int32_arb = QCheck.map sext32 QCheck.int

let prog_arb =
  QCheck.make ~print:(fun (p, a, b) -> Printf.sprintf "a0=%d a1=%d: %s" a b (prog_print p))
    QCheck.Gen.(
      let* p = prog_gen in
      let* a = int_bound 0xFFFFFF in
      let* b = int_bound 0xFFFFFF in
      return (p, a - 0x800000, b - 0x800000))

let prop_all_targets_match_reference =
  QCheck.Test.make ~name:"random programs: every port matches the reference" ~count:120
    prog_arb
    (fun (prog, a0, a1) ->
      let expect = reference prog a0 a1 in
      List.for_all
        (fun (module R : RUNNER) -> R.run prog a0 a1 = expect)
        runners)

let no_mem prog =
  List.filter (function Rstore _ | Rload _ -> false | _ -> true) prog

let prop_virt_layer_matches =
  QCheck.Test.make ~name:"virtual-register layer: every port matches the reference"
    ~count:60 prog_arb
    (fun (prog, a0, a1) ->
      let prog = no_mem prog in
      let expect = reference prog a0 a1 in
      List.for_all
        (fun (module R : RUNNER) -> R.run_virt prog a0 a1 = expect)
        runners)

let prop_calling_conventions =
  QCheck.Test.make ~name:"calling conventions: random arities on every port" ~count:80
    QCheck.(list_of_size Gen.(int_range 1 8) int32_arb)
    (fun vals ->
      let expect =
        sext32 (List.fold_left ( + ) 0 (List.mapi (fun i v -> (i + 1) * sext32 v) vals))
      in
      List.for_all (fun (module R : RUNNER) -> R.call_conv vals = expect) runners)

let prop_fp_cross_target =
  QCheck.Test.make ~name:"double-precision kernel agrees bit-for-bit on every port"
    ~count:80
    QCheck.(pair (float_range (-1e6) 1e6) (float_range 1.0 1e6))
    (fun (a, b) ->
      let reference =
        ((a +. b) *. 2.5) -. (a /. b) +. float_of_int (int_of_float (Float.trunc a))
      in
      List.for_all
        (fun (module R : RUNNER) -> R.run_fp a b = reference)
        runners)

let test_retval_keeps_var () =
  List.iter
    (fun (module R : RUNNER) -> check Alcotest.int R.name 0x1234 (R.retval_keeps_var ()))
    runners

(* ------------------------------------------------------------------ *)
(* Virtual registers: spilling behaviour                               *)

let test_virt_spills () =
  (* allocate far more virtual registers than MIPS has physical ones;
     sum 1..n through them *)
  let module V = Vcode.Make (Vmips.Mips_backend) in
  let n = 40 in
  let g, _ = V.lambda ~base:0x10000 ~leaf:true "%i" in
  let vs = V.Virt.start g in
  let vr = Array.init n (fun _ -> V.Virt.vreg vs Vtype.I) in
  Alcotest.(check bool) "some registers spilled" true (V.Virt.spilled vs > 0);
  Array.iteri (fun i v -> V.Virt.set vs Vtype.I v (Int64.of_int (i + 1))) vr;
  let acc = V.Virt.vreg vs Vtype.I in
  V.Virt.set vs Vtype.I acc 0L;
  Array.iter (fun v -> V.Virt.arith vs Op.Add Vtype.I acc acc v) vr;
  V.Virt.ret vs Vtype.I acc;
  let code = V.end_gen g in
  let m = Vmips.Mips_sim.create Vmachine.Mconfig.test_config in
  Vmachine.Mem.install_code m.Vmips.Mips_sim.mem ~addr:code.Vcode.base code.Vcode.gen.Gen.buf;
  Vmips.Mips_sim.call m ~entry:code.Vcode.entry_addr [ Vmips.Mips_sim.Int 0 ];
  check Alcotest.int "sum through spilled vregs" (n * (n + 1) / 2)
    (Vmips.Mips_sim.ret_int m)

let test_virt_branching () =
  (* a loop whose counter and accumulator are spilled virtual registers *)
  let module V = Vcode.Make (Vmips.Mips_backend) in
  let g, args = V.lambda ~base:0x10000 ~leaf:true "%i" in
  let vs = V.Virt.start g in
  (* burn all physical registers so the interesting vregs spill *)
  let burn = Array.init 32 (fun _ -> try Some (V.Virt.vreg vs Vtype.I) with _ -> None) in
  ignore burn;
  let i = V.Virt.vreg vs Vtype.I and acc = V.Virt.vreg vs Vtype.I in
  V.Virt.set vs Vtype.I i 1L;
  V.Virt.set vs Vtype.I acc 0L;
  let n = V.Virt.vreg vs Vtype.I in
  V.Virt.mov_in vs Vtype.I n args.(0);
  let top = V.genlabel g and out = V.genlabel g in
  V.label g top;
  V.Virt.branch vs Op.Gt Vtype.I i n out;
  V.Virt.arith vs Op.Add Vtype.I acc acc i;
  V.Virt.arith_imm vs Op.Add Vtype.I i i 1;
  V.jump g (Gen.Jlabel top);
  V.label g out;
  V.Virt.ret vs Vtype.I acc;
  let code = V.end_gen g in
  let m = Vmips.Mips_sim.create Vmachine.Mconfig.test_config in
  Vmachine.Mem.install_code m.Vmips.Mips_sim.mem ~addr:code.Vcode.base code.Vcode.gen.Gen.buf;
  Vmips.Mips_sim.call m ~entry:code.Vcode.entry_addr [ Vmips.Mips_sim.Int 100 ];
  check Alcotest.int "spilled loop" 5050 (Vmips.Mips_sim.ret_int m)

let () =
  Alcotest.run "cross-target"
    [
      ( "regression",
        [
          qtest prop_all_targets_match_reference;
          qtest prop_calling_conventions;
          qtest prop_fp_cross_target;
          Alcotest.test_case "retval saves a callee-saved register" `Quick test_retval_keeps_var;
        ] );
      ( "virtual-registers",
        [
          qtest prop_virt_layer_matches;
          Alcotest.test_case "spilling sum" `Quick test_virt_spills;
          Alcotest.test_case "spilled loop" `Quick test_virt_branching;
        ] );
    ]
