(* The VCODE SPARC-V8 port.

   Calling convention: every generated function opens its own register
   window (save %sp, -frame, %sp — backpatched when the final frame size
   is known) and returns with ret/restore.  Because windows preserve the
   caller's locals and ins automatically, the "callee-saved" VAR class
   maps to %l0-%l7 with zero prologue cost — the SPARC port has no
   register save area at all, which is exactly why the paper's SPARC
   retarget was quick.

   Argument passing (the VCODE convention on this target): argument
   slot k is the word at sp+68+4k, twelve slots in all.  The first six
   word-class arguments travel in %o0-%o5 (seen as %i0-%i5 by the
   callee); floats and doubles are stored in their slots, which for
   slots 0-5 are the home slots of %o0-%o5, and further words go to
   slots 6-11.  Doubles occupy 8-aligned slot pairs.  The outgoing area
   ends at sp+116, below the locals.

   Frame layout (grows down):
     sp+0   .. sp+63    window save area (owned by the window traps)
     sp+64  .. sp+67    hidden parameter word (ABI)
     sp+68  .. sp+91    home slots for %o0-%o5 (argument slots 0-5)
     sp+92  .. sp+115   outgoing stack arguments (slots 6..11)
     sp+104 .. sp+111   int<->float transfer scratch (reused; see note)
     sp+120 ..          locals

   Note: sp+104..111 doubles as the FP transfer scratch used by
   conversions (SPARC has no direct int<->float register moves).  It
   overlaps outgoing-argument slots 9-10, which is safe because argument
   stores happen atomically inside do_call, never interleaved with a
   conversion.

   Scratch registers: %g1 (primary, like the MIPS $at) and %g5
   (secondary, for mod and compare synthesis); %f30/f31 is the FP
   scratch pair.  None are allocatable. *)

open Vcodebase
open Port
module A = Sparc_asm

let reserve_words = 16
let arg_base = 68 (* argument slot 0 *)
let fp_xfer = 104
let locals_base = 120

let k_branch = 0 (* 22-bit Bicc/FBfcc displacement *)
let k_call = 1   (* 30-bit call displacement *)

let g0 = 0
let g1 = 1 (* scratch *)
let g5 = 5 (* scratch2 *)
let o7 = 15
let sp = 14
let fp = 30
let i7 = 31
let fscratch = 30

let e g i = emit g (A.encode i)

let desc : Machdesc.t =
  let r n = Reg.R n and f n = Reg.F n in
  {
    Machdesc.name = "sparc";
    word_bits = 32;
    big_endian = true;
    branch_delay_slots = 1;
    load_delay = 1;
    nregs = 32;
    nfregs = 32;
    temps = [| r 2; r 3; r 4; r 8; r 9; r 10; r 11; r 12; r 13 |];
    vars = [| r 16; r 17; r 18; r 19; r 20; r 21; r 22; r 23 |];
    ftemps = [| f 2; f 4; f 6; f 8; f 10; f 12; f 14; f 16; f 18; f 20; f 22; f 24; f 26; f 28 |];
    fvars = [||]; (* V8 has no callee-saved FP registers *)
    callee_mask = 0; (* windows preserve %l/%i automatically *)
    fcallee_mask = 0;
    conv =
      { Callconv.counting = Shared_slots; int_regs = [| 8; 9; 10; 11; 12; 13 |]; fp_regs = [||];
        slot_bytes = 4; stack_base = arg_base; single_slots = 1; stack_limit = arg_base + 48;
        int_ret = 8; fp_ret = 0; window = 16 };
    sp = r 14;
    locals_base;
    scratch = r 1;
    fscratch = f fscratch;
    reg_name = (fun reg ->
      match reg with Reg.R n -> A.reg_name n | Reg.F n -> A.freg_name n);
  }

let fits13 v = A.simm13_ok v

let load_const g rd v =
  if not (fits32 v) then Verror.fail (Verror.Range (Printf.sprintf "SPARC immediate %d" v));
  if fits13 v then e g (A.Alu (A.Or, rd, g0, A.Imm v))
  else begin
    let v32 = v land 0xFFFFFFFF in
    e g (A.Sethi (rd, v32 lsr 10));
    if v32 land 0x3FF <> 0 then e g (A.Alu (A.Or, rd, rd, A.Imm (v32 land 0x3FF)))
  end

(* ------------------------------------------------------------------ *)
(* ALU                                                                 *)

let fneg_d g d s =
  (* no fnegd on V8: negate the sign in the even (MS) word *)
  e g (A.Fpop (A.Fnegs, d, 0, s));
  if d <> s then e g (A.Fpop (A.Fmovs, d + 1, 0, s + 1))

let fmov_d g d s =
  if d <> s then begin
    e g (A.Fpop (A.Fmovs, d, 0, s));
    e g (A.Fpop (A.Fmovs, d + 1, 0, s + 1))
  end

(* signed division: Y must hold the sign extension of the dividend *)
let emit_sdiv g rd a b_ri =
  e g (A.Alu (A.Sra, g1, a, A.Imm 31));
  e g (A.Wry (g1, A.Imm 0));
  e g (A.Alu (A.Sdiv, rd, a, b_ri))

let emit_udiv g rd a b_ri =
  e g (A.Wry (g0, A.Imm 0));
  e g (A.Alu (A.Udiv, rd, a, b_ri))

let arith_core g (op : Op.binop) (t : Vtype.t) rd rs1 rs2 =
  if Vtype.is_float t then begin
    let dbl = t <> Vtype.F in
    let d = rnum rd and a = rnum rs1 and b = rnum rs2 in
    let p =
      match (op, dbl) with
      | Op.Add, false -> A.Fadds
      | Op.Add, true -> A.Faddd
      | Op.Sub, false -> A.Fsubs
      | Op.Sub, true -> A.Fsubd
      | Op.Mul, false -> A.Fmuls
      | Op.Mul, true -> A.Fmuld
      | Op.Div, false -> A.Fdivs
      | Op.Div, true -> A.Fdivd
      | (Op.Mod | Op.And | Op.Or | Op.Xor | Op.Lsh | Op.Rsh), _ ->
        Verror.fail (Verror.Bad_type "float bit operation")
    in
    e g (A.Fpop (p, d, a, b))
  end
  else
    let d = rnum rd and a = rnum rs1 and b = A.R (rnum rs2) in
    match op with
    | Op.Add -> e g (A.Alu (A.Add, d, a, b))
    | Op.Sub -> e g (A.Alu (A.Sub, d, a, b))
    | Op.Mul -> e g (A.Alu (A.Smul, d, a, b))
    | Op.Div -> if signed_ty t then emit_sdiv g d a b else emit_udiv g d a b
    | Op.Mod ->
      (* q = a / b (into %g1, reusing the sign scratch); rd = a - q*b *)
      if signed_ty t then emit_sdiv g g1 a b else emit_udiv g g1 a b;
      e g (A.Alu (A.Smul, g1, g1, b));
      e g (A.Alu (A.Sub, d, a, A.R g1))
    | Op.And -> e g (A.Alu (A.And, d, a, b))
    | Op.Or -> e g (A.Alu (A.Or, d, a, b))
    | Op.Xor -> e g (A.Alu (A.Xor, d, a, b))
    | Op.Lsh -> e g (A.Alu (A.Sll, d, a, b))
    | Op.Rsh -> e g (A.Alu ((if signed_ty t then A.Sra else A.Srl), d, a, b))

let arith g op t rd rs1 rs2 =
  Gen.note_write g rd;
  Gen.count_insn g (Opk.arith op);
  arith_core g op t rd rs1 rs2

let arith_imm g (op : Op.binop) (t : Vtype.t) rd rs1 imm =
  Gen.note_write g rd;
  Gen.count_insn g (Opk.arith_imm op);
  let d = rnum rd and a = rnum rs1 in
  let via_reg () =
    (* division synthesis uses %g1 internally, so wide divisor
       immediates go through %g5 instead *)
    let s = match op with Op.Div | Op.Mod -> g5 | _ -> g1 in
    load_const g s imm;
    arith_core g op t rd rs1 (Reg.R s)
  in
  match op with
  | Op.Add -> if fits13 imm then e g (A.Alu (A.Add, d, a, A.Imm imm)) else via_reg ()
  | Op.Sub -> if fits13 imm then e g (A.Alu (A.Sub, d, a, A.Imm imm)) else via_reg ()
  | Op.And -> if fits13 imm then e g (A.Alu (A.And, d, a, A.Imm imm)) else via_reg ()
  | Op.Or -> if fits13 imm then e g (A.Alu (A.Or, d, a, A.Imm imm)) else via_reg ()
  | Op.Xor -> if fits13 imm then e g (A.Alu (A.Xor, d, a, A.Imm imm)) else via_reg ()
  | Op.Lsh -> e g (A.Alu (A.Sll, d, a, A.Imm (imm land 31)))
  | Op.Rsh ->
    e g (A.Alu ((if signed_ty t then A.Sra else A.Srl), d, a, A.Imm (imm land 31)))
  | Op.Mul when fits13 imm -> e g (A.Alu (A.Smul, d, a, A.Imm imm))
  | Op.Mul | Op.Div | Op.Mod -> via_reg ()

let unary g (op : Op.unop) (t : Vtype.t) rd rs =
  Gen.note_write g rd;
  Gen.count_insn g (Opk.unary op);
  if Vtype.is_float t then begin
    let dbl = t <> Vtype.F in
    let d = rnum rd and s = rnum rs in
    match op with
    | Op.Mov -> if dbl then fmov_d g d s else e g (A.Fpop (A.Fmovs, d, 0, s))
    | Op.Neg -> if dbl then fneg_d g d s else e g (A.Fpop (A.Fnegs, d, 0, s))
    | Op.Com | Op.Not -> Verror.fail (Verror.Bad_type "float bit operation")
  end
  else
    let d = rnum rd and s = rnum rs in
    match op with
    | Op.Com -> e g (A.Alu (A.Xnor, d, s, A.R g0))
    | Op.Not ->
      (* rd <- (rs == 0): carry = (0 <u rs) = rs != 0, then invert *)
      e g (A.Alu (A.Subcc, g0, g0, A.R s));
      e g (A.Alu (A.Addx, d, g0, A.Imm 0));
      e g (A.Alu (A.Xor, d, d, A.Imm 1))
    | Op.Mov -> e g (A.Alu (A.Or, d, g0, A.R s))
    | Op.Neg -> e g (A.Alu (A.Sub, d, g0, A.R s))

let set g (_t : Vtype.t) rd imm64 =
  Gen.note_write g rd;
  Gen.count_insn g Opk.set;
  if Int64.compare imm64 (-0x80000000L) < 0 || Int64.compare imm64 0xFFFFFFFFL > 0 then
    Verror.fail (Verror.Range (Int64.to_string imm64));
  load_const g (rnum rd) (Int64.to_int imm64)

let setf_core g (t : Vtype.t) rd v =
  let dbl = match t with Vtype.D -> true | _ -> false in
  let site = Codebuf.length g.Gen.buf in
  e g (A.Sethi (g1, 0));
  e g (if dbl then A.Lddf (rnum rd, g1, A.Imm 0) else A.Ldf (rnum rd, g1, A.Imm 0));
  let bits =
    if dbl then Int64.bits_of_float v else Int64.of_int32 (Int32.bits_of_float v)
  in
  Gen.add_fimm g ~site ~bits ~dbl

let setf g t rd v =
  Gen.note_write g rd;
  Gen.count_insn g Opk.setf;
  setf_core g t rd v

(* ------------------------------------------------------------------ *)
(* Branches                                                            *)

(* The single emission point for every control transfer that carries a
   relocation and a delay slot: the branch word (displacement patched
   at finish) followed by its slot nop.  One helper means the peephole
   stage ([Vcode.Make_peephole]) has exactly one shape to rewrite when
   filling the slot: the patch site is always the word before the nop. *)
let emit_branch_with_slot ?(kind = k_branch) g ~(mk : int -> A.t) lab =
  let site = Codebuf.length g.Gen.buf in
  e g (mk 0);
  Gen.add_reloc g ~site ~lab ~kind;
  e g A.Nop

let icond_for (c : Op.cond) ~unsigned =
  match (c, unsigned) with
  | Op.Lt, false -> A.BL
  | Op.Le, false -> A.BLE
  | Op.Gt, false -> A.BG
  | Op.Ge, false -> A.BGE
  | Op.Lt, true -> A.BCS
  | Op.Le, true -> A.BLEU
  | Op.Gt, true -> A.BGU
  | Op.Ge, true -> A.BCC
  | Op.Eq, _ -> A.BE
  | Op.Ne, _ -> A.BNE

let branch g (c : Op.cond) (t : Vtype.t) rs1 rs2 lab =
  if Vtype.is_float t then begin
    let a = rnum rs1 and b = rnum rs2 in
    e g (if t = Vtype.F then A.Fcmps (a, b) else A.Fcmpd (a, b));
    e g A.Nop; (* fcmp -> fbcc needs one intervening instruction on V8 *)
    let fc =
      match c with
      | Op.Lt -> A.FBL
      | Op.Le -> A.FBLE
      | Op.Gt -> A.FBG
      | Op.Ge -> A.FBGE
      | Op.Eq -> A.FBE
      | Op.Ne -> A.FBNE
    in
    emit_branch_with_slot g ~mk:(fun d -> A.Fbfcc (fc, d)) lab
  end
  else begin
    e g (A.Alu (A.Subcc, g0, rnum rs1, A.R (rnum rs2)));
    emit_branch_with_slot g ~mk:(fun d -> A.Bicc (icond_for c ~unsigned:(unsigned_cmp t), d)) lab
  end

let branch_imm g (c : Op.cond) (t : Vtype.t) rs1 imm lab =
  if Vtype.is_float t then Verror.fail (Verror.Bad_type "float immediate branch");
  if fits13 imm then e g (A.Alu (A.Subcc, g0, rnum rs1, A.Imm imm))
  else begin
    load_const g g1 imm;
    e g (A.Alu (A.Subcc, g0, rnum rs1, A.R g1))
  end;
  emit_branch_with_slot g ~mk:(fun d -> A.Bicc (icond_for c ~unsigned:(unsigned_cmp t), d)) lab

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)

let cvt g ~(from : Vtype.t) ~(to_ : Vtype.t) rd rs =
  Gen.note_write g rd;
  Gen.count_insn g Opk.cvt;
  if (not (Vtype.is_float from)) && not (Vtype.is_float to_) then
    e g (A.Alu (A.Or, rnum rd, g0, A.R (rnum rs)))
  else
    match (from, to_) with
    | (Vtype.I | Vtype.L), (Vtype.F | Vtype.D) ->
      (* int -> float goes through memory on V8 *)
      e g (A.St (rnum rs, sp, A.Imm fp_xfer));
      e g (A.Ldf (fscratch, sp, A.Imm fp_xfer));
      e g
        (A.Fpop ((if to_ = Vtype.F then A.Fitos else A.Fitod), rnum rd, 0, fscratch))
    | (Vtype.U | Vtype.UL), Vtype.D ->
      e g (A.St (rnum rs, sp, A.Imm fp_xfer));
      e g (A.Ldf (fscratch, sp, A.Imm fp_xfer));
      e g (A.Fpop (A.Fitod, rnum rd, 0, fscratch));
      let skip = Gen.genlabel g in
      e g (A.Alu (A.Subcc, g0, rnum rs, A.Imm 0));
      let site = Codebuf.length g.Gen.buf in
      e g (A.Bicc (A.BGE, 0));
      Gen.add_reloc g ~site ~lab:skip ~kind:k_branch;
      e g A.Nop;
      setf_core g Vtype.D (Reg.F fscratch) 4294967296.0;
      e g (A.Fpop (A.Faddd, rnum rd, rnum rd, fscratch));
      Gen.bind_label g skip
    | (Vtype.F | Vtype.D), (Vtype.I | Vtype.L) ->
      e g
        (A.Fpop ((if from = Vtype.F then A.Fstoi else A.Fdtoi), fscratch, 0, rnum rs));
      e g (A.Stf (fscratch, sp, A.Imm fp_xfer));
      e g (A.Ld (rnum rd, sp, A.Imm fp_xfer))
    | Vtype.F, Vtype.D -> e g (A.Fpop (A.Fstod, rnum rd, 0, rnum rs))
    | Vtype.D, Vtype.F -> e g (A.Fpop (A.Fdtos, rnum rd, 0, rnum rs))
    | _ ->
      Verror.fail
        (Verror.Bad_type
           (Printf.sprintf "cv%s2%s" (Vtype.to_string from) (Vtype.to_string to_)))

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)

(* Emit the access given the base register number and a ready operand. *)
let emit_load g (t : Vtype.t) rd b (ri : A.ri) =
  match t with
  | Vtype.C -> e g (A.Ldsb (rnum rd, b, ri))
  | Vtype.UC -> e g (A.Ldub (rnum rd, b, ri))
  | Vtype.S -> e g (A.Ldsh (rnum rd, b, ri))
  | Vtype.US -> e g (A.Lduh (rnum rd, b, ri))
  | Vtype.I | Vtype.U | Vtype.L | Vtype.UL | Vtype.P -> e g (A.Ld (rnum rd, b, ri))
  | Vtype.F -> e g (A.Ldf (rnum rd, b, ri))
  | Vtype.D -> e g (A.Lddf (rnum rd, b, ri))
  | Vtype.V -> Verror.fail (Verror.Bad_type "ld.v")

let emit_store g (t : Vtype.t) rv b (ri : A.ri) =
  match t with
  | Vtype.C | Vtype.UC -> e g (A.Stb (rnum rv, b, ri))
  | Vtype.S | Vtype.US -> e g (A.Sth (rnum rv, b, ri))
  | Vtype.I | Vtype.U | Vtype.L | Vtype.UL | Vtype.P -> e g (A.St (rnum rv, b, ri))
  | Vtype.F -> e g (A.Stf (rnum rv, b, ri))
  | Vtype.D -> e g (A.Stdf (rnum rv, b, ri))
  | Vtype.V -> Verror.fail (Verror.Bad_type "st.v")

let load_imm g (t : Vtype.t) rd base off =
  Gen.note_write g rd;
  Gen.count_insn g Opk.ld;
  if fits13 off then emit_load g t rd (rnum base) (A.Imm off)
  else begin
    load_const g g1 off;
    emit_load g t rd (rnum base) (A.R g1)
  end

let load_reg g (t : Vtype.t) rd base idx = Gen.note_write g rd; Gen.count_insn g Opk.ld; emit_load g t rd (rnum base) (A.R (rnum idx))

let store_imm g (t : Vtype.t) rv base off =
  Gen.count_insn g Opk.st;
  if fits13 off then emit_store g t rv (rnum base) (A.Imm off)
  else begin
    load_const g g1 off;
    emit_store g t rv (rnum base) (A.R g1)
  end

let store_reg g (t : Vtype.t) rv base idx =
  Gen.count_insn g Opk.st;
  emit_store g t rv (rnum base) (A.R (rnum idx))

(* ------------------------------------------------------------------ *)
(* Control                                                             *)

let jump g (t : Gen.jtarget) =
  match t with
  | Gen.Jlabel lab -> emit_branch_with_slot g ~mk:(fun d -> A.Bicc (A.BA, d)) lab
  | Gen.Jaddr a ->
    load_const g g1 a;
    e g (A.Jmpl (g0, g1, A.Imm 0));
    e g A.Nop
  | Gen.Jreg r ->
    e g (A.Jmpl (g0, rnum r, A.Imm 0));
    e g A.Nop

let jal g (t : Gen.jtarget) =
  match t with
  | Gen.Jlabel lab -> emit_branch_with_slot ~kind:k_call g ~mk:(fun d -> A.Call d) lab
  | Gen.Jaddr a ->
    (* call is pc-relative and the site address is known now *)
    let here = g.Gen.base + (4 * Codebuf.length g.Gen.buf) in
    e g (A.Call ((a - here) asr 2));
    e g A.Nop
  | Gen.Jreg r ->
    e g (A.Jmpl (o7, rnum r, A.Imm 0));
    e g A.Nop

let nop g = e g A.Nop

(* ------------------------------------------------------------------ *)
(* Frame protocol: the words [Port.finish] builds the epilogue and the
   backpatched prologue from.  A window port: [save] opens the frame,
   ret/restore closes it, and incoming stack arguments are reloaded
   off %fp, the caller's %sp.                                          *)

let frame =
  {
    load =
      (fun (t : Vtype.t) r off ->
        A.encode
          (match t with
          | Vtype.F -> A.Ldf (r, fp, A.Imm off)
          | Vtype.D -> A.Lddf (r, fp, A.Imm off)
          | _ -> A.Ld (r, fp, A.Imm off)));
    store =
      (fun (t : Vtype.t) r off ->
        A.encode
          (match t with
          | Vtype.F -> A.Stf (r, sp, A.Imm off)
          | Vtype.D -> A.Stdf (r, sp, A.Imm off)
          | _ -> A.St (r, sp, A.Imm off)));
    adjust = (fun n -> A.encode (A.Save (sp, sp, A.Imm n)));
    ra_save = [];
    ra_restore = [];
    ret = [ A.encode (A.Jmpl (g0, i7, A.Imm 8)); A.encode (A.Restore (g0, g0, A.R g0)) ];
    saves_at = 0;
    (* patch sethi %hi / ld [%g1 + lo] *)
    fimms =
      (fun g ->
        Gen.place_fimms g ~big_endian:true ~patch:(fun ~site ~addr ->
            Codebuf.set g.Gen.buf site (A.encode (A.Sethi (g1, addr lsr 10)));
            let old = Codebuf.get g.Gen.buf (site + 1) in
            Codebuf.set g.Gen.buf (site + 1)
              ((old land lnot 0x1FFF) lor (1 lsl 13) lor (addr land 0x3FF))));
    window = true;
  }

(* ------------------------------------------------------------------ *)
(* Calls and returns (the convention itself is [desc.conv])           *)

let move g (t : Vtype.t) rd rs =
  match t with
  | Vtype.F -> e g (A.Fpop (A.Fmovs, rnum rd, 0, rnum rs))
  | Vtype.D -> fmov_d g (rnum rd) (rnum rs)
  | _ -> e g (A.Alu (A.Or, rnum rd, g0, A.R (rnum rs)))

let lambda g tys = bind_params g ~reserve:reserve_words ~fill:(A.encode A.Nop) tys

let ret g (t : Vtype.t) (r : Reg.t option) =
  (* the return-value move rides in the branch's delay slot, unless it
     takes two instructions (a double): then it goes first *)
  let early = t = Vtype.D && move_ret g ~move t r in
  let site = Codebuf.length g.Gen.buf in
  e g (A.Bicc (A.BA, 0));
  Gen.add_reloc g ~site ~lab:g.Gen.epilogue_lab ~kind:k_branch;
  if early || not (move_ret g ~move t r) then e g A.Nop

let do_call g target = jal g (place_call_args g frame ~move ~via:g5 target)

let retval g t r = move_retval g ~move t r

let finish g =
  Port.finish g frame ~apply:(fun ~kind ~site ~dest ->
      let disp = dest - site in
      if kind = k_branch then begin
        if disp < -0x200000 || disp > 0x1FFFFF then
          Verror.fail (Verror.Range "branch displacement");
        let old = Codebuf.get g.Gen.buf site in
        Codebuf.set g.Gen.buf site ((old land lnot 0x3FFFFF) lor (disp land 0x3FFFFF))
      end
      else if kind = k_call then begin
        let old = Codebuf.get g.Gen.buf site in
        Codebuf.set g.Gen.buf site ((old land 0xC0000000) lor (disp land 0x3FFFFFFF))
      end
      else Verror.failf "unknown reloc kind %d" kind)

include Raw_hooks

(* Mirror of [arith_imm]'s single-instruction fast paths: most ALU ops
   take a simm13 operand; shifts always encode (the count is masked). *)
let binop_imm_fits (op : Op.binop) imm =
  match op with
  | Op.Add | Op.Sub | Op.And | Op.Or | Op.Xor | Op.Mul -> fits13 imm
  | Op.Lsh | Op.Rsh -> true
  | Op.Div | Op.Mod -> false

let disasm ~word ~addr = A.disasm ~addr word

let extra_insns =
  [
    ("fsqrts", fun g (rs : Reg.t array) -> e g (A.Fpop (A.Fsqrts, rnum rs.(0), 0, rnum rs.(1))));
    ("fsqrtd", fun g rs -> e g (A.Fpop (A.Fsqrtd, rnum rs.(0), 0, rnum rs.(1))));
    ("fabss", fun g rs -> e g (A.Fpop (A.Fabss, rnum rs.(0), 0, rnum rs.(1))));
    ("rdy", fun g rs -> e g (A.Rdy (rnum rs.(0))));
  ]

let extra_imm_insns =
  [
    ("addi", fun g (rs : Reg.t array) imm -> e g (A.Alu (A.Add, rnum rs.(0), rnum rs.(1), A.Imm imm)));
    ("ori", fun g rs imm -> e g (A.Alu (A.Or, rnum rs.(0), rnum rs.(1), A.Imm imm)));
  ]
