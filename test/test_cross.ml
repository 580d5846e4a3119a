(* Cross-target regression generation.

   Section 3.3: "to aid in the retargeting process VCODE includes a
   script to automatically generate regression tests for errors in
   instruction mappings and calling conventions."  This is that script:
   random well-typed VCODE programs are generated, compiled by every
   port, executed on every simulator, and compared against an OCaml
   reference evaluator — plus calling-convention fuzzers: random
   arities, and random call signatures whose arguments permute and
   repeat the caller's own parameters.  Also exercises the
   unlimited-virtual-register layer of section 6.2 on all ports. *)

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
(* Call signatures                                                     *)

(* The caller f takes [params] (type, value); it stores [local] in a
   stack local, calls g with [args] and returns g's result plus the
   local read back after the call.  Each argument of g is one of f's
   parameters or a fresh constant; g returns the sum over its arguments
   of [weights.(j)] times argument j converted to int.  FP values are
   integers, so every conversion is exact. *)
type carg = Param of int | Fresh of Vtype.t * int

type call_case = {
  params : (Vtype.t * int) list;
  args : carg list;
  weights : int list;
  local : int;
}

let carg_ty c = function Param i -> fst (List.nth c.params i) | Fresh (t, _) -> t
let carg_value c = function Param i -> snd (List.nth c.params i) | Fresh (_, v) -> v

let call_reference c =
  sext32 (List.fold_left2 (fun acc w a -> acc + (w * carg_value c a)) c.local c.weights c.args)

let sig_of tys = String.concat "" (List.map (fun t -> "%" ^ Vtype.to_string t) tys)

let call_print c =
  let carg = function
    | Param i -> Printf.sprintf "p%d" i
    | Fresh (t, v) -> Printf.sprintf "%s:%d" (Vtype.to_string t) v
  in
  Printf.sprintf "f(%s) local %d = g(%s) weights [%s]"
    (String.concat ", " (List.map (fun (t, v) -> Printf.sprintf "%s:%d" (Vtype.to_string t) v) c.params))
    c.local
    (String.concat ", " (List.map carg c.args))
    (String.concat "; " (List.map string_of_int c.weights))

(* The three call defects found by hand, as fixed cases: a permuted
   integer call (wrong on MIPS and Alpha), a swapped double call (wrong
   on MIPS, Alpha and PowerPC), and a nine-argument call under a live
   local (wrong on SPARC, whose outgoing slots reached the locals). *)
let call_probes =
  [
    ( "permuted ints",
      { params = [ (Vtype.I, 1); (Vtype.I, 2); (Vtype.I, 3) ]; args = [ Param 2; Param 0; Param 1 ];
        weights = [ 100; 10; 1 ]; local = 0 } );
    ( "swapped doubles",
      { params = [ (Vtype.D, 1); (Vtype.D, 10) ]; args = [ Param 1; Param 0 ]; weights = [ 1; -2 ];
        local = 0 } );
    ( "nine arguments under a local",
      { params = []; args = List.init 9 (fun j -> Fresh (Vtype.I, 1000 + j)); weights = List.init 9 (fun _ -> 1);
        local = 77 } );
  ]

(* ------------------------------------------------------------------ *)
(* Per-target compile-and-run                                          *)

module type RUNNER = sig
  val name : string
  val run : rinsn list -> int -> int -> int
  val run_virt : rinsn list -> int -> int -> int
  val call_conv : int list -> int (* weighted-sum function of the args *)
  val run_fp : float -> float -> float (* a fixed double-precision kernel *)
  val retval_keeps_var : unit -> int (* the caller's var register after a call *)
  val call_sig : call_case -> int (* f's result *)
  val call_through : unit -> int (* f(1, g, 2) for f(x, p, y) = p(y, x) *)
end

module Make_runner
    (T : Target.S)
    (S : sig
      type t

      val create : unit -> t
      val install : t -> Vcode.code -> unit
      val call : t -> entry:int -> Callconv.arg list -> int (* the int result *)
      val call_dd : t -> entry:int -> float -> float -> float
    end) : RUNNER = struct
  module V = Vcode.Make (T)

  let name = T.desc.Machdesc.name
  let base = 0x10000
  let call_ints m ~entry vals = S.call m ~entry (List.map (fun v -> Callconv.Int v) vals)

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
    sext32 (call_ints m ~entry:code.Vcode.entry_addr [ a0; a1 ])

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
    sext32 (call_ints m ~entry:code.Vcode.entry_addr [ a0; a1 ])

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

  (* a register of type [t]: a temp, else a var (the temps may all be
     argument registers in use) *)
  let grab g t = match V.getreg g ~cls:`Temp t with Some r -> r | None -> V.getreg_exn g ~cls:`Var t

  (* calling-convention fuzz target: f(x1..xn) = sum i*xi.  Registers
     come from the temp pool with a VAR-class fallback, the paper's
     prescribed client behaviour when argument registers exhaust the
     temps (as they do on PowerPC at full arity). *)
  let call_conv args_vals =
    let n = List.length args_vals in
    let sig_ = String.concat "" (List.init n (fun _ -> "%i")) in
    let g, args = V.lambda ~base sig_ in
    let acc = grab g Vtype.I in
    V.set g Vtype.I acc 0L;
    Array.iteri
      (fun i r ->
        let t = grab g Vtype.I in
        V.Strength.mul g Vtype.I t r (i + 1);
        V.arith g Op.Add Vtype.I acc acc t;
        V.putreg g t)
      args;
    V.ret g Vtype.I (Some acc);
    let code = V.end_gen g in
    let m = S.create () in
    S.install m code;
    sext32 (call_ints m ~entry:code.Vcode.entry_addr args_vals)

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
    call_ints m ~entry:outer.Vcode.entry_addr []

  let call_sig c =
    let tys = List.map (carg_ty c) c.args in
    let callee =
      let g, p = V.lambda ~base ~leaf:true (sig_of tys) in
      let acc = grab g Vtype.I and x = grab g Vtype.I in
      V.set g Vtype.I acc 0L;
      List.iteri
        (fun j (t, w) ->
          (* integer-class values are small: read them as ints *)
          if Vtype.is_float t then begin
            V.cvt g ~from:t ~to_:Vtype.I x p.(j);
            V.arith_imm g Op.Mul Vtype.I x x w
          end
          else V.arith_imm g Op.Mul Vtype.I x p.(j) w;
          V.arith g Op.Add Vtype.I acc acc x)
        (List.combine tys c.weights);
      V.ret g Vtype.I (Some acc);
      V.end_gen g
    in
    let caller =
      let g, p = V.lambda ~base:(base + 0x4000) (sig_of (List.map fst c.params)) in
      let l = V.local g Vtype.I in
      let r = grab g Vtype.I in
      V.set g Vtype.I r (Int64.of_int c.local);
      V.st_local g l r;
      V.putreg g r;
      let fresh = ref [] in
      List.iter
        (fun a ->
          match a with
          | Param i -> V.push_arg g (carg_ty c a) p.(i)
          | Fresh (t, v) ->
            let r = grab g t in
            if Vtype.is_float t then V.setf g t r (float_of_int v) else V.set g t r (Int64.of_int v);
            fresh := r :: !fresh;
            V.push_arg g t r)
        c.args;
      V.do_call g (Gen.Jaddr callee.Vcode.entry_addr);
      List.iter (V.putreg g) !fresh;
      let res = grab g Vtype.I and x = grab g Vtype.I in
      V.retval g Vtype.I res;
      V.ld_local g l x;
      V.arith g Op.Add Vtype.I res res x;
      V.ret g Vtype.I (Some res);
      V.end_gen g
    in
    let m = S.create () in
    List.iter (S.install m) [ callee; caller ];
    let arg (t, v) : Callconv.arg =
      match (t : Vtype.t) with Vtype.F -> Single (float_of_int v) | Vtype.D -> Double (float_of_int v) | _ -> Int v
    in
    sext32 (S.call m ~entry:caller.Vcode.entry_addr (List.map arg c.params))

  (* f(x, p, y) = p(y, x) with g(u, v) = 10u + v: the call goes through
     a parameter register that an argument move overwrites *)
  let call_through () =
    let g, p = V.lambda ~base ~leaf:true "%i%i" in
    let r = grab g Vtype.I in
    V.arith_imm g Op.Mul Vtype.I r p.(0) 10;
    V.arith g Op.Add Vtype.I r r p.(1);
    V.ret g Vtype.I (Some r);
    let callee = V.end_gen g in
    let g, p = V.lambda ~base:(base + 0x4000) "%i%p%i" in
    let r = grab g Vtype.I in
    V.ccall g (Gen.Jreg p.(1)) ~args:[ (Vtype.I, p.(2)); (Vtype.I, p.(0)) ] ~ret:(Some (Vtype.I, r));
    V.ret g Vtype.I (Some r);
    let caller = V.end_gen g in
    let m = S.create () in
    List.iter (S.install m) [ callee; caller ];
    call_ints m ~entry:caller.Vcode.entry_addr [ 1; callee.Vcode.entry_addr; 2 ]
end

module Mips_runner =
  Make_runner
    (Vmips.Mips_backend)
    (struct
      type t = Vmips.Mips_sim.t

      let create () = Vmips.Mips_sim.create Vmachine.Mconfig.test_config

      let install m (c : Vcode.code) =
        Vmachine.Mem.install_code m.Vmips.Mips_sim.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

      let call m ~entry args =
        Vmips.Mips_sim.call m ~entry args;
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

      let call m ~entry args =
        Vsparc.Sparc_sim.call m ~entry args;
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

      let call m ~entry args =
        Valpha.Alpha_sim.call m ~entry args;
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

      let call m ~entry args =
        Vppc.Ppc_sim.call m ~entry args;
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

(* Drop trailing elements of [l] until every port can pass their types
   without overflowing its outgoing stack area. *)
let fit_everywhere ty l =
  let fits (d : Machdesc.t) l =
    let c = d.Machdesc.conv and st = ref Callconv.start in
    List.for_all
      (fun x ->
        let t = ty x in
        st := Callconv.next c !st t;
        let loc = Callconv.loc !st in
        not (Callconv.on_stack loc && Callconv.overflows c loc t))
      l
  in
  let descs =
    [ Vmips.Mips_backend.desc; Vsparc.Sparc_backend.desc; Valpha.Alpha_backend.desc; Vppc.Ppc_backend.desc ]
  in
  let rec go l = if List.for_all (fun d -> fits d l) descs then l else go (List.rev (List.tl (List.rev l))) in
  go l

(* Keep the fresh constants within the registers every port has free
   beside the caller's parameters: at most twelve integer ones, fewer
   as stack-passed integer parameters take var registers, and eleven FP
   registers (MIPS) shared with the FP parameters. *)
let within_registers params args =
  let nint = List.length (List.filter (fun (t, _) -> not (Vtype.is_float t)) params) in
  let nfp = List.length params - nint in
  let ints = ref (12 - max 0 (nint - 4)) and fps = ref (11 - nfp) in
  List.filter
    (function
      | Param _ -> true
      | Fresh (t, _) ->
        let budget = if Vtype.is_float t then fps else ints in
        decr budget;
        !budget >= 0)
    args

let call_case_gen =
  let open QCheck.Gen in
  let typed = pair (oneofl Vtype.[ I; L; P; F; D ]) (int_range (-999) 999) in
  let fresh = map (fun (t, v) -> Fresh (t, v)) typed in
  let* params = map (fit_everywhere fst) (list_size (int_bound 12) typed) in
  let np = List.length params in
  let carg = if np = 0 then fresh else frequency [ (2, map (fun i -> Param i) (int_bound (np - 1))); (1, fresh) ] in
  let* args = list_size (int_bound 12) carg in
  let c = { params; args = []; weights = []; local = 0 } in
  let args = fit_everywhere (carg_ty c) (within_registers params args) in
  let* local = int_range (-999) 999 in
  let n = List.length args in
  (* powers of three: any permutation of distinct values shows *)
  let rec pow3 k = if k = 0 then 1 else 3 * pow3 (k - 1) in
  return { c with args; weights = List.init n (fun j -> pow3 (n - 1 - j)); local }

let prop_call_signatures =
  QCheck.Test.make ~name:"call signatures: permuted and repeated parameters on every port"
    ~count:150 (QCheck.make ~print:call_print call_case_gen)
    (fun c ->
      let expect = call_reference c in
      List.for_all (fun (module R : RUNNER) -> R.call_sig c = expect) runners)

let test_call_probes () =
  List.iter
    (fun (what, c) ->
      List.iter
        (fun (module R : RUNNER) -> check Alcotest.int (R.name ^ ": " ^ what) (call_reference c) (R.call_sig c))
        runners)
    call_probes

let test_call_through () =
  List.iter (fun (module R : RUNNER) -> check Alcotest.int R.name 21 (R.call_through ())) runners

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
          qtest prop_call_signatures;
          Alcotest.test_case "call probes" `Quick test_call_probes;
          Alcotest.test_case "call through an argument register" `Quick test_call_through;
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
