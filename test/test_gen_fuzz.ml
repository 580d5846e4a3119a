(* Differential fuzzing of the checked/unchecked API split.

   [Vcode.Make] and [Vcode.Make_unchecked] share one emission path and
   differ only in whether operand validation runs, so on well-formed
   input they must produce bit-for-bit identical machine code.  This
   test pins that invariant on every port by replaying random
   well-formed v_* streams through both instantiations and comparing
   the emitted words.  Also here: unit tests for the parallel-move
   resolver used by the call sequences, and the zero-allocation
   steady-state guarantee of unchecked emission. *)

open Vcodebase

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* The common surface of both instantiations, as a first-class module  *)

module type EMITTER = sig
  val lambda :
    ?base:int -> ?leaf:bool -> ?capacity:int -> ?buf:Codebuf.t -> string ->
    Gen.t * Reg.t array
  val end_gen : Gen.t -> Vcode.code
  val getreg_exn : Gen.t -> cls:[ `Temp | `Var ] -> Vtype.t -> Reg.t
  val genlabel : Gen.t -> int
  val label : Gen.t -> int -> unit
  val arith : Gen.t -> Op.binop -> Vtype.t -> Reg.t -> Reg.t -> Reg.t -> unit
  val arith_imm : Gen.t -> Op.binop -> Vtype.t -> Reg.t -> Reg.t -> int -> unit
  val unary : Gen.t -> Op.unop -> Vtype.t -> Reg.t -> Reg.t -> unit
  val set : Gen.t -> Vtype.t -> Reg.t -> int64 -> unit
  val setf : Gen.t -> Vtype.t -> Reg.t -> float -> unit
  val cvt : Gen.t -> from:Vtype.t -> to_:Vtype.t -> Reg.t -> Reg.t -> unit
  val load_imm : Gen.t -> Vtype.t -> Reg.t -> Reg.t -> int -> unit
  val load_reg : Gen.t -> Vtype.t -> Reg.t -> Reg.t -> Reg.t -> unit
  val store_imm : Gen.t -> Vtype.t -> Reg.t -> Reg.t -> int -> unit
  val store_reg : Gen.t -> Vtype.t -> Reg.t -> Reg.t -> Reg.t -> unit
  val branch : Gen.t -> Op.cond -> Vtype.t -> Reg.t -> Reg.t -> int -> unit
  val branch_imm : Gen.t -> Op.cond -> Vtype.t -> Reg.t -> int -> int -> unit
  val jump : Gen.t -> Gen.jtarget -> unit
  val push_arg : Gen.t -> Vtype.t -> Reg.t -> unit
  val do_call : Gen.t -> Gen.jtarget -> unit
  val retval : Gen.t -> Vtype.t -> Reg.t -> unit
  val ret : Gen.t -> Vtype.t -> Reg.t option -> unit
  val nop : Gen.t -> unit
end

(* ------------------------------------------------------------------ *)
(* A program language wide enough to reach relocations, FP-constant
   pools, call sequences and both memory addressing modes              *)

type finsn =
  | Fbin of Op.binop * int * int * int (* dst, a, b: int slots *)
  | Fbini of Op.binop * int * int * int (* dst, a, imm *)
  | Fun_ of Op.unop * int * int
  | Fset of int * int
  | Fsetd of int * float (* double slot, constant (fimm pool) *)
  | Ffbin of Op.binop * int * int * int (* double slots *)
  | Fcvt of int * int (* double slot <- int slot *)
  | Fldi of int * int (* slot <- [p + imm] *)
  | Fsti of int * int (* [p + imm] <- slot *)
  | Fldr of int * int (* slot <- [p + slot] *)
  | Fstr of int * int (* [p + slot] <- slot *)
  | Fbr of Op.cond * int * int (* branch to the end label (reloc) *)
  | Fbri of Op.cond * int * int
  | Fjump
  | Fcall of int (* push slot + p, call, retval into slot 0 *)
  | Fnop

let nslots = 4
let ndslots = 2

let insn_gen : finsn QCheck.Gen.t =
  let open QCheck.Gen in
  let slot = int_bound (nslots - 1) in
  let dslot = int_bound (ndslots - 1) in
  let binop = oneofl Op.[ Add; Sub; Mul; Div; Mod; And; Or; Xor ] in
  let fop = oneofl Op.[ Add; Sub; Mul; Div ] in
  let cond = oneofl Op.[ Lt; Le; Gt; Ge; Eq; Ne ] in
  let imm = oneof [ int_range (-100) 100; int_range (-100000) 100000; return 0x12345 ] in
  oneof
    [
      (let* op = binop and* d = slot and* a = slot and* b = slot in
       return (Fbin (op, d, a, b)));
      (let* op = oneofl Op.[ Add; Sub; Mul; And; Or; Xor ] and* d = slot and* a = slot
       and* i = imm in
       return (Fbini (op, d, a, i)));
      (let* d = slot and* a = slot and* sh = int_bound 31 in
       return (Fbini (Op.Lsh, d, a, sh)));
      (let* op = oneofl Op.[ Com; Not; Mov; Neg ] and* d = slot and* a = slot in
       return (Fun_ (op, d, a)));
      (let* d = slot and* v = imm in
       return (Fset (d, v)));
      (let* d = dslot and* v = oneofl [ 0.0; 1.5; -2.25; 3.14159; 1e10 ] in
       return (Fsetd (d, v)));
      (let* op = fop and* d = dslot and* a = dslot and* b = dslot in
       return (Ffbin (op, d, a, b)));
      (let* d = dslot and* a = slot in
       return (Fcvt (d, a)));
      (let* d = slot and* w = int_bound 15 in
       return (Fldi (d, 4 * w)));
      (let* s = slot and* w = int_bound 15 in
       return (Fsti (s, 4 * w)));
      (let* d = slot and* x = slot in
       return (Fldr (d, x)));
      (let* s = slot and* x = slot in
       return (Fstr (s, x)));
      (let* c = cond and* a = slot and* b = slot in
       return (Fbr (c, a, b)));
      (let* c = cond and* a = slot and* i = imm in
       return (Fbri (c, a, i)));
      return Fjump;
      (let* a = slot in
       return (Fcall a));
      return Fnop;
    ]

let prog_gen = QCheck.Gen.(list_size (int_range 1 60) insn_gen)

let prog_print prog =
  String.concat "; "
    (List.map
       (function
         | Fbin (op, d, a, b) -> Printf.sprintf "r%d=r%d %s r%d" d a (Op.binop_to_string op) b
         | Fbini (op, d, a, i) -> Printf.sprintf "r%d=r%d %s %d" d a (Op.binop_to_string op) i
         | Fun_ (op, d, a) -> Printf.sprintf "r%d=%s r%d" d (Op.unop_to_string op) a
         | Fset (d, v) -> Printf.sprintf "r%d=%d" d v
         | Fsetd (d, v) -> Printf.sprintf "d%d=%g" d v
         | Ffbin (op, d, a, b) ->
           Printf.sprintf "d%d=d%d %s d%d" d a (Op.binop_to_string op) b
         | Fcvt (d, a) -> Printf.sprintf "d%d=cvt r%d" d a
         | Fldi (d, o) -> Printf.sprintf "r%d=[p+%d]" d o
         | Fsti (s, o) -> Printf.sprintf "[p+%d]=r%d" o s
         | Fldr (d, x) -> Printf.sprintf "r%d=[p+r%d]" d x
         | Fstr (s, x) -> Printf.sprintf "[p+r%d]=r%d" x s
         | Fbr (c, a, b) -> Printf.sprintf "b%s r%d,r%d,end" (Op.cond_to_string c) a b
         | Fbri (c, a, i) -> Printf.sprintf "b%si r%d,%d,end" (Op.cond_to_string c) a i
         | Fjump -> "j end"
         | Fcall a -> Printf.sprintf "call(r%d,p)" a
         | Fnop -> "nop")
       prog)

(* Replay [prog] through one instantiation and return the emitted
   words.  The tiny capacity hint is deliberate: the buffer-growth path
   must produce the same code as a right-sized buffer. *)
let emit_with (module E : EMITTER) (prog : finsn list) : int array =
  let g, args = E.lambda ~base:0x10000 ~capacity:8 "%i%i%p" in
  let p = args.(2) in
  let slots = Array.init nslots (fun _ -> E.getreg_exn g ~cls:`Var Vtype.I) in
  let dslots = Array.init ndslots (fun _ -> E.getreg_exn g ~cls:`Temp Vtype.D) in
  let lend = E.genlabel g in
  E.unary g Op.Mov Vtype.I slots.(0) args.(0);
  E.unary g Op.Mov Vtype.I slots.(1) args.(1);
  List.iter
    (fun i ->
      match i with
      | Fbin (op, d, a, b) -> E.arith g op Vtype.I slots.(d) slots.(a) slots.(b)
      | Fbini (op, d, a, imm) -> E.arith_imm g op Vtype.I slots.(d) slots.(a) imm
      | Fun_ (op, d, a) -> E.unary g op Vtype.I slots.(d) slots.(a)
      | Fset (d, v) -> E.set g Vtype.I slots.(d) (Int64.of_int v)
      | Fsetd (d, v) -> E.setf g Vtype.D dslots.(d) v
      | Ffbin (op, d, a, b) -> E.arith g op Vtype.D dslots.(d) dslots.(a) dslots.(b)
      | Fcvt (d, a) -> E.cvt g ~from:Vtype.I ~to_:Vtype.D dslots.(d) slots.(a)
      | Fldi (d, o) -> E.load_imm g Vtype.I slots.(d) p o
      | Fsti (s, o) -> E.store_imm g Vtype.I slots.(s) p o
      | Fldr (d, x) -> E.load_reg g Vtype.I slots.(d) p slots.(x)
      | Fstr (s, x) -> E.store_reg g Vtype.I slots.(s) p slots.(x)
      | Fbr (c, a, b) -> E.branch g c Vtype.I slots.(a) slots.(b) lend
      | Fbri (c, a, imm) -> E.branch_imm g c Vtype.I slots.(a) imm lend
      | Fjump -> E.jump g (Gen.Jlabel lend)
      | Fcall a ->
        E.push_arg g Vtype.I slots.(a);
        E.push_arg g Vtype.P p;
        E.do_call g (Gen.Jaddr 0x4000);
        E.retval g Vtype.I slots.(0)
      | Fnop -> E.nop g)
    prog;
  E.label g lend;
  E.ret g Vtype.I (Some slots.(0));
  let code = E.end_gen g in
  Codebuf.to_array code.Vcode.gen.Gen.buf

(* ------------------------------------------------------------------ *)
(* Per-port instantiations                                             *)

module Mips_c = Vcode.Make (Vmips.Mips_backend)
module Mips_u = Vcode.Make_unchecked (Vmips.Mips_backend)
module Sparc_c = Vcode.Make (Vsparc.Sparc_backend)
module Sparc_u = Vcode.Make_unchecked (Vsparc.Sparc_backend)
module Alpha_c = Vcode.Make (Valpha.Alpha_backend)
module Alpha_u = Vcode.Make_unchecked (Valpha.Alpha_backend)
module Ppc_c = Vcode.Make (Vppc.Ppc_backend)
module Ppc_u = Vcode.Make_unchecked (Vppc.Ppc_backend)

(* the same ports wrapped with the peephole stage: the functor composes
   with both instantiations unchanged *)
module Mips_pc = Vcode.Make (Vcode.Make_peephole (Vmips.Mips_backend))
module Mips_pu = Vcode.Make_unchecked (Vcode.Make_peephole (Vmips.Mips_backend))
module Sparc_pc = Vcode.Make (Vcode.Make_peephole (Vsparc.Sparc_backend))
module Sparc_pu = Vcode.Make_unchecked (Vcode.Make_peephole (Vsparc.Sparc_backend))
module Alpha_pc = Vcode.Make (Vcode.Make_peephole (Valpha.Alpha_backend))
module Alpha_pu = Vcode.Make_unchecked (Vcode.Make_peephole (Valpha.Alpha_backend))
module Ppc_pc = Vcode.Make (Vcode.Make_peephole (Vppc.Ppc_backend))
module Ppc_pu = Vcode.Make_unchecked (Vcode.Make_peephole (Vppc.Ppc_backend))

let ports : (string * (module EMITTER) * (module EMITTER)) list =
  [
    ("mips", (module Mips_c), (module Mips_u));
    ("sparc", (module Sparc_c), (module Sparc_u));
    ("alpha", (module Alpha_c), (module Alpha_u));
    ("ppc", (module Ppc_c), (module Ppc_u));
    (* checked vs unchecked must also agree through the peephole stage *)
    ("mips-peep", (module Mips_pc), (module Mips_pu));
    ("sparc-peep", (module Sparc_pc), (module Sparc_pu));
    ("alpha-peep", (module Alpha_pc), (module Alpha_pu));
    ("ppc-peep", (module Ppc_pc), (module Ppc_pu));
  ]

let diff_tests =
  List.map
    (fun (name, checked, unchecked) ->
      QCheck.Test.make ~count:300 ~name
        (QCheck.make ~print:prog_print prog_gen)
        (fun prog -> emit_with checked prog = emit_with unchecked prog))
    ports

(* a fixed program hitting every family at least once, with exact
   word-level comparison so a regression names the first differing site *)
let sink_prog =
  [
    Fset (0, 7);
    Fset (1, -42);
    Fbin (Op.Add, 2, 0, 1);
    Fbini (Op.Xor, 3, 2, 0x12345);
    Fbini (Op.Lsh, 0, 0, 3);
    Fun_ (Op.Neg, 1, 2);
    Fsetd (0, 2.5);
    Fsetd (1, -0.125);
    Ffbin (Op.Mul, 0, 0, 1);
    Fcvt (1, 2);
    Fldi (2, 8);
    Fsti (3, 12);
    Fldr (1, 0);
    Fstr (2, 3);
    Fbr (Op.Lt, 0, 1);
    Fbri (Op.Ne, 2, 99);
    Fcall 3;
    Fnop;
    Fjump;
  ]

let test_sink_identical () =
  List.iter
    (fun (name, checked, unchecked) ->
      let a = emit_with checked sink_prog in
      let b = emit_with unchecked sink_prog in
      Alcotest.(check (array int)) (name ^ ": kitchen-sink program") a b)
    ports

(* ------------------------------------------------------------------ *)
(* Peephole-on/off architectural differential

   The peephole stage may change the emitted words (that is the point)
   but never the architectural effect: random programs with forward
   branches, constant arithmetic and memory traffic must produce the
   same final state through the raw port and the wrapped port on the
   port's simulator.  The generator leans into the rewrite surface:
   redundant moves, set-then-use pairs (fusion), mul/div/mod by small
   constants (strength reduction) and instructions directly before
   branches (delay-slot candidates), with labels bound mid-stream to
   pin the window-flush protocol. *)

type pinsn =
  | Pbin of Op.binop * int * int * int
  | Pbini of Op.binop * int * int * int
  | Pun of Op.unop * int * int
  | Pset of int * int
  | Pld of int * int (* slot <- [p + 4w] *)
  | Pst of int * int (* [p + 4w] <- slot *)
  | Pbr of Op.cond * int * int * int (* skip the next k instructions *)
  | Pbri of Op.cond * int * int * int
  | Pjmp of int (* unconditional skip over k *)

let pmem_words = 8

let pinsn_gen : pinsn QCheck.Gen.t =
  let open QCheck.Gen in
  let slot = int_bound (nslots - 1) in
  let skip = int_bound 3 in
  let cond = oneofl Op.[ Lt; Le; Gt; Ge; Eq; Ne ] in
  oneof
    [
      (let* op = oneofl Op.[ Add; Sub; Mul; And; Or; Xor ] and* d = slot and* a = slot
       and* b = slot in
       return (Pbin (op, d, a, b)));
      (let* op = oneofl Op.[ Add; Sub; And; Or; Xor ]
       and* d = slot and* a = slot
       and* i = oneof [ int_range (-100) 100; return 0x12345 ] in
       return (Pbini (op, d, a, i)));
      (* constant multiplies, divides and remainders: the strength
         reduction surface, including the identities and the 2^k +/- 1
         shift-add forms *)
      (let* d = slot and* a = slot
       and* k = oneofl [ -1; 0; 1; 2; 3; 4; 7; 8; 9; 15; 100; 4096 ] in
       return (Pbini (Op.Mul, d, a, k)));
      (let* d = slot and* a = slot and* k = oneofl [ 1; 2; 4; 7; 16; 100 ] in
       return (Pbini (Op.Div, d, a, k)));
      (let* d = slot and* a = slot and* k = oneofl [ 2; 8; 10; 32 ] in
       return (Pbini (Op.Mod, d, a, k)));
      (let* d = slot and* a = slot and* sh = int_bound 31 in
       return (Pbini (Op.Lsh, d, a, sh)));
      (let* d = slot and* a = slot and* sh = int_bound 31 in
       return (Pbini (Op.Rsh, d, a, sh)));
      (* moves, including guaranteed-redundant ones *)
      (let* op = oneofl Op.[ Com; Not; Mov; Neg ] and* d = slot and* a = slot in
       return (Pun (op, d, a)));
      (let* a = slot in
       return (Pun (Op.Mov, a, a)));
      (let* d = slot and* v = oneof [ int_range (-100) 100; return 0x12345 ] in
       return (Pset (d, v)));
      (let* d = slot and* w = int_bound (pmem_words - 1) in
       return (Pld (d, w)));
      (let* s = slot and* w = int_bound (pmem_words - 1) in
       return (Pst (s, w)));
      (let* c = cond and* a = slot and* b = slot and* k = skip in
       return (Pbr (c, a, b, k)));
      (let* c = cond and* a = slot and* i = int_range (-50) 50 and* k = skip in
       return (Pbri (c, a, i, k)));
      (let* k = skip in
       return (Pjmp k));
    ]

let pprog_gen = QCheck.Gen.(list_size (int_range 1 50) pinsn_gen)

let pprog_print prog =
  String.concat "; "
    (List.map
       (function
         | Pbin (op, d, a, b) ->
           Printf.sprintf "r%d=r%d %s r%d" d a (Op.binop_to_string op) b
         | Pbini (op, d, a, i) ->
           Printf.sprintf "r%d=r%d %s %d" d a (Op.binop_to_string op) i
         | Pun (op, d, a) -> Printf.sprintf "r%d=%s r%d" d (Op.unop_to_string op) a
         | Pset (d, v) -> Printf.sprintf "r%d=%d" d v
         | Pld (d, w) -> Printf.sprintf "r%d=m[%d]" d w
         | Pst (s, w) -> Printf.sprintf "m[%d]=r%d" w s
         | Pbr (c, a, b, k) ->
           Printf.sprintf "%s r%d,r%d,+%d" (Op.cond_to_string c) a b k
         | Pbri (c, a, i, k) ->
           Printf.sprintf "%si r%d,%d,+%d" (Op.cond_to_string c) a i k
         | Pjmp k -> Printf.sprintf "j +%d" k)
       prog)

(* Compile [prog] with the given instantiation.  Branches skip forward
   over the next [k] program instructions via labels bound mid-stream;
   the epilogue folds every slot and memory word into the return value
   so any architectural divergence is observable. *)
let emit_peep_prog (module E : EMITTER) (prog : pinsn list) ~base ~datap : Vcode.code =
  let insns = Array.of_list prog in
  let n = Array.length insns in
  (* forward-branch targets as program indices, then labels *)
  let target i k = min n (i + 1 + k) in
  let labs = Hashtbl.create 8 in
  let lab_for g ti =
    match Hashtbl.find_opt labs ti with
    | Some l -> l
    | None ->
      let l = E.genlabel g in
      Hashtbl.add labs ti l;
      l
  in
  let g, args = E.lambda ~base "%i%i" in
  let slots = Array.init nslots (fun _ -> E.getreg_exn g ~cls:`Var Vtype.I) in
  let p = E.getreg_exn g ~cls:`Var Vtype.P in
  E.set g Vtype.P p (Int64.of_int datap);
  E.unary g Op.Mov Vtype.I slots.(0) args.(0);
  E.unary g Op.Mov Vtype.I slots.(1) args.(1);
  E.set g Vtype.I slots.(2) 3L;
  E.set g Vtype.I slots.(3) (-7L);
  let tz = E.getreg_exn g ~cls:`Temp Vtype.I in
  E.set g Vtype.I tz 0L;
  for w = 0 to pmem_words - 1 do
    E.store_imm g Vtype.I tz p (4 * w)
  done;
  Array.iteri
    (fun i insn ->
      (match Hashtbl.find_opt labs i with Some l -> E.label g l | None -> ());
      match insn with
      | Pbin (op, d, a, b) -> E.arith g op Vtype.I slots.(d) slots.(a) slots.(b)
      | Pbini (op, d, a, imm) -> E.arith_imm g op Vtype.I slots.(d) slots.(a) imm
      | Pun (op, d, a) -> E.unary g op Vtype.I slots.(d) slots.(a)
      | Pset (d, v) -> E.set g Vtype.I slots.(d) (Int64.of_int v)
      | Pld (d, w) -> E.load_imm g Vtype.I slots.(d) p (4 * w)
      | Pst (s, w) -> E.store_imm g Vtype.I slots.(s) p (4 * w)
      | Pbr (c, a, b, k) -> E.branch g c Vtype.I slots.(a) slots.(b) (lab_for g (target i k))
      | Pbri (c, a, imm, k) -> E.branch_imm g c Vtype.I slots.(a) imm (lab_for g (target i k))
      | Pjmp k -> E.jump g (Gen.Jlabel (lab_for g (target i k))))
    insns;
  (match Hashtbl.find_opt labs n with Some l -> E.label g l | None -> ());
  (* fold the full architectural state into the result *)
  for s = 1 to nslots - 1 do
    E.arith g Op.Xor Vtype.I slots.(0) slots.(0) slots.(s)
  done;
  for w = 0 to pmem_words - 1 do
    E.load_imm g Vtype.I tz p (4 * w);
    E.arith g Op.Xor Vtype.I slots.(0) slots.(0) tz;
    E.arith_imm g Op.Mul Vtype.I slots.(0) slots.(0) 3
  done;
  E.ret g Vtype.I (Some slots.(0));
  E.end_gen g

module type SIMRUN = sig
  val exec : Vcode.code -> int -> int -> int
end

module Mips_simrun : SIMRUN = struct
  let exec (c : Vcode.code) a0 a1 =
    let m = Vmips.Mips_sim.create Vmachine.Mconfig.test_config in
    Vmachine.Mem.install_code m.Vmips.Mips_sim.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf;
    Vmips.Mips_sim.call m ~entry:c.Vcode.entry_addr
      [ Vmips.Mips_sim.Int a0; Vmips.Mips_sim.Int a1 ];
    Vmips.Mips_sim.ret_int m
end

module Sparc_simrun : SIMRUN = struct
  let exec (c : Vcode.code) a0 a1 =
    let m = Vsparc.Sparc_sim.create Vmachine.Mconfig.test_config in
    Vmachine.Mem.install_code m.Vsparc.Sparc_sim.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf;
    Vsparc.Sparc_sim.call m ~entry:c.Vcode.entry_addr
      [ Vsparc.Sparc_sim.Int a0; Vsparc.Sparc_sim.Int a1 ];
    Vsparc.Sparc_sim.ret_int m
end

module Alpha_simrun : SIMRUN = struct
  let exec (c : Vcode.code) a0 a1 =
    let m = Valpha.Alpha_sim.create Vmachine.Mconfig.test_config in
    Vmachine.Mem.install_code m.Valpha.Alpha_sim.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf;
    Valpha.Alpha_sim.call m ~entry:c.Vcode.entry_addr
      [ Valpha.Alpha_sim.Int a0; Valpha.Alpha_sim.Int a1 ];
    Valpha.Alpha_sim.ret_int m
end

module Ppc_simrun : SIMRUN = struct
  let exec (c : Vcode.code) a0 a1 =
    let m = Vppc.Ppc_sim.create Vmachine.Mconfig.test_config in
    Vmachine.Mem.install_code m.Vppc.Ppc_sim.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf;
    Vppc.Ppc_sim.call m ~entry:c.Vcode.entry_addr
      [ Vppc.Ppc_sim.Int a0; Vppc.Ppc_sim.Int a1 ];
    Vppc.Ppc_sim.ret_int m
end

let peep_ports : (string * (module EMITTER) * (module EMITTER) * (module SIMRUN)) list =
  [
    ("mips", (module Mips_c), (module Mips_pc), (module Mips_simrun));
    ("sparc", (module Sparc_c), (module Sparc_pc), (module Sparc_simrun));
    ("alpha", (module Alpha_c), (module Alpha_pc), (module Alpha_simrun));
    ("ppc", (module Ppc_c), (module Ppc_pc), (module Ppc_simrun));
  ]

let peep_base = 0x10000
let peep_datap = 0x20000

let peep_diff_tests =
  List.map
    (fun (name, raw, peep, (module S : SIMRUN)) ->
      QCheck.Test.make ~count:200 ~name:(name ^ "-peephole-equiv")
        QCheck.(
          make
            ~print:(fun (prog, a0, a1) ->
              Printf.sprintf "a0=%d a1=%d: %s" a0 a1 (pprog_print prog))
            Gen.(
              let* prog = pprog_gen
              and* a0 = int_range (-100) 100
              and* a1 = int_range (-100) 100 in
              return (prog, a0, a1)))
        (fun (prog, a0, a1) ->
          let c_raw = emit_peep_prog raw prog ~base:peep_base ~datap:peep_datap in
          let c_pp = emit_peep_prog peep prog ~base:peep_base ~datap:peep_datap in
          S.exec c_raw a0 a1 = S.exec c_pp a0 a1))
    peep_ports

(* ------------------------------------------------------------------ *)
(* Parallel-move resolution                                            *)

(* run the resolver against a model register file and compare with the
   parallel-assignment semantics *)
let run_moves ~scratch (moves : (int * int) list) =
  let nregs = 12 in
  let regs = Array.init nregs (fun i -> 100 + i) in
  let initial = Array.copy regs in
  let nmoves = ref 0 in
  let g = Gen.create Vmips.Mips_backend.desc in
  List.iter (fun (d, s) -> Gen.push_move g Vtype.I ~dst:(Reg.r d) ~src:(Reg.r s)) moves;
  Gen.parallel_moves g ~scratch:(Reg.r scratch) ~move:(fun _ _ d s ->
      incr nmoves;
      regs.(Reg.idx d) <- regs.(Reg.idx s));
  List.iter
    (fun (d, s) ->
      Alcotest.(check int)
        (Printf.sprintf "r%d gets the old value of r%d" d s)
        initial.(s) regs.(d))
    moves;
  (* untouched registers (destinations and scratch aside) survive *)
  let written = scratch :: List.map fst moves in
  Array.iteri
    (fun i v ->
      if not (List.mem i written) then
        Alcotest.(check int) (Printf.sprintf "r%d untouched" i) initial.(i) v)
    regs;
  !nmoves

let test_moves_swap () =
  (* a 2-cycle must break through the scratch register: 3 moves *)
  let n = run_moves ~scratch:9 [ (0, 1); (1, 0) ] in
  Alcotest.(check int) "swap uses exactly 3 moves" 3 n

let test_moves_cycle3 () =
  let n = run_moves ~scratch:9 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check int) "3-cycle uses exactly 4 moves" 4 n

let test_moves_chain () =
  (* an acyclic chain needs no scratch: one move per element *)
  let n = run_moves ~scratch:9 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check int) "chain uses exactly 3 moves" 3 n

let test_moves_self () =
  let n = run_moves ~scratch:9 [ (4, 4); (5, 5) ] in
  Alcotest.(check int) "self-moves are elided" 0 n

let test_moves_mixed () =
  (* a swap plus an independent chain hanging off one of its members *)
  let n = run_moves ~scratch:9 [ (0, 1); (1, 0); (5, 0); (6, 5) ] in
  Alcotest.(check bool) "mixed case resolves" true (n >= 5)

(* ------------------------------------------------------------------ *)
(* Steady-state allocation                                              *)

(* With a sufficient capacity hint, unchecked emission of ALU and
   memory instructions must allocate zero GC words per instruction:
   everything is stored into preallocated int arrays. *)
let test_zero_alloc_steady_state () =
  let g, args = Mips_u.lambda ~base:0x1000 ~leaf:true ~capacity:16384 "%i%i%p" in
  let r0 = args.(0) and r1 = args.(1) and p = args.(2) in
  let emit_block () =
    for _ = 1 to 1000 do
      Mips_u.arith_imm g Op.Add Vtype.I r0 r0 1;
      Mips_u.arith g Op.Add Vtype.I r1 r1 r0;
      Mips_u.load_imm g Vtype.I r1 p 0;
      Mips_u.store_imm g Vtype.I r0 p 4
    done
  in
  let measure f =
    let a = Gc.minor_words () in
    f ();
    Gc.minor_words () -. a
  in
  emit_block () (* warm-up: one-time paths out of the way *);
  (* the measurement itself boxes a float; calibrate it out *)
  let overhead = measure (fun () -> ()) in
  let d = measure emit_block in
  let per_insn = (d -. overhead) /. 4000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "unchecked steady state allocates 0 words/insn (got %.4f)" per_insn)
    true
    (per_insn <= 0.001)

(* A call's register arguments are queued and resolved in Gen's int
   table: a call whose arguments form a cycle allocates no more than a
   call without arguments. *)
let test_zero_alloc_call_args () =
  let g, a = Mips_u.lambda ~base:0x1000 ~capacity:16384 "%i%i%i" in
  let cycle () =
    for _ = 1 to 100 do
      Mips_u.push_arg g Vtype.I a.(2);
      Mips_u.push_arg g Vtype.I a.(0);
      Mips_u.push_arg g Vtype.I a.(1);
      Mips_u.do_call g (Gen.Jaddr 0x2000)
    done
  and bare () =
    for _ = 1 to 100 do
      Mips_u.do_call g (Gen.Jaddr 0x2000)
    done
  in
  let measure f =
    let a = Gc.minor_words () in
    f ();
    Gc.minor_words () -. a
  in
  cycle ();
  bare ();
  let d = measure cycle -. measure bare in
  Alcotest.(check bool)
    (Printf.sprintf "argument moves allocate 0 words (got %.0f over 100 calls)" d)
    true (d <= 0.)

let () =
  Alcotest.run "gen-fuzz"
    [
      ( "checked-vs-unchecked",
        List.map qtest diff_tests
        @ [ Alcotest.test_case "kitchen sink, all ports" `Quick test_sink_identical ] );
      ("peephole-on-vs-off", List.map qtest peep_diff_tests);
      ( "parallel-moves",
        [
          Alcotest.test_case "2-cycle swap" `Quick test_moves_swap;
          Alcotest.test_case "3-cycle" `Quick test_moves_cycle3;
          Alcotest.test_case "acyclic chain" `Quick test_moves_chain;
          Alcotest.test_case "self-moves" `Quick test_moves_self;
          Alcotest.test_case "swap plus chain" `Quick test_moves_mixed;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "unchecked steady state" `Quick test_zero_alloc_steady_state;
          Alcotest.test_case "call argument moves" `Quick test_zero_alloc_call_args;
        ] );
    ]
