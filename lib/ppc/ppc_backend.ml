(* The VCODE PowerPC (32-bit) port.

   The fourth port, written after the fact to exercise the paper's
   retargeting story end-to-end: implement {!Vcodebase.Target.S}, let
   the generated cross-target regression tests shake out the mapping.

   Notable mappings:
   - immediate shifts are rlwinm forms; variable shifts mask the amount
     to 31 first (slw/srw interpret six bits, VCODE's semantics use
     five);
   - logical-not is the classic cntlzw >> 5;
   - mod is divw/mullw/subf (no remainder instruction);
   - int<->float conversions use the PowerPC magic-number technique
     (0x4330...-based), since there is no direct transfer path;
   - following the paper ("the register allocator makes unused argument
     registers available"), r4-r10 are in the temp pool, so a call's
     argument sources are often other arguments' destinations ({!Port}
     resolves every call's register arguments as a parallel move).

   Frame layout (grows down):
     sp+0  .. sp+7     linkage (back chain, reserved)
     sp+8  .. sp+47    outgoing stack arguments (10 word slots)
     sp+48 .. sp+55    int<->float transfer scratch
     sp+56             saved LR
     sp+60 .. sp+239   register save area (ints, then doubles)
     sp+240 ..         locals

   Scratch registers: r12 (primary), r11 (secondary), f13 (float). *)

open Vcodebase
open Port
module A = Ppc_asm

let reserve_words = 48
let xfer = 48
let save_base = 56
let locals_base = 240

let k_branch = 0 (* 14-bit conditional displacement *)
let k_jump = 1   (* 24-bit unconditional displacement *)
let k_call = 2   (* 24-bit bl displacement; k_retj (Port) is a b to the
                    epilogue, elided to blr for frameless leaves *)

let sp = 1
let scratch = 12
let scratch2 = 11
let fscratch = 13

let e g i = emit g (A.encode i)

let desc : Machdesc.t =
  let r n = Reg.R n and f n = Reg.F n in
  {
    Machdesc.name = "ppc";
    word_bits = 32;
    big_endian = true;
    branch_delay_slots = 0;
    load_delay = 1;
    nregs = 32;
    nfregs = 32;
    temps = [| r 10; r 9; r 8; r 7; r 6; r 5; r 4 |];
    vars = [| r 14; r 15; r 16; r 17; r 18; r 19; r 20; r 21; r 22; r 23; r 24; r 25 |];
    ftemps = [| f 0; f 9; f 10; f 11; f 12 |];
    fvars = [| f 14; f 15; f 16; f 17; f 18; f 19; f 20; f 21 |];
    callee_mask =
      (1 lsl 14) lor (1 lsl 15) lor (1 lsl 16) lor (1 lsl 17) lor (1 lsl 18)
      lor (1 lsl 19) lor (1 lsl 20) lor (1 lsl 21) lor (1 lsl 22) lor (1 lsl 23)
      lor (1 lsl 24) lor (1 lsl 25);
    fcallee_mask =
      (1 lsl 14) lor (1 lsl 15) lor (1 lsl 16) lor (1 lsl 17) lor (1 lsl 18)
      lor (1 lsl 19) lor (1 lsl 20) lor (1 lsl 21);
    (* words in r3-r10 and floats in f1-f8, counted apart; the rest on
       the stack from sp+8, floats in 8-aligned double slots *)
    conv =
      { Callconv.counting = Per_class; int_regs = [| 3; 4; 5; 6; 7; 8; 9; 10 |];
        fp_regs = [| 1; 2; 3; 4; 5; 6; 7; 8 |]; slot_bytes = 4; stack_base = 8;
        single_slots = 2; stack_limit = xfer; int_ret = 3; fp_ret = 1; window = 0 };
    sp = r 1;
    locals_base;
    scratch = r 12;
    fscratch = f fscratch;
    reg_name = (fun reg ->
      match reg with Reg.R n -> A.reg_name n | Reg.F n -> A.freg_name n);
  }

let load_const g rd v =
  if not (fits32 v) then
    Verror.fail (Verror.Range (Printf.sprintf "PowerPC immediate %d" v));
  if fits16s v then e g (A.Addi (rd, 0, v))
  else begin
    let v32 = v land 0xFFFFFFFF in
    let hi = (v32 lsr 16) land 0xFFFF and lo = v32 land 0xFFFF in
    e g (A.Addis (rd, 0, hi));
    if lo <> 0 then e g (A.Ori (rd, rd, lo))
  end

(* ------------------------------------------------------------------ *)
(* ALU                                                                 *)

let emit_mod g signed d a b =
  e g (if signed then A.Divw (scratch, a, b) else A.Divwu (scratch, a, b));
  e g (A.Mullw (scratch, scratch, b));
  e g (A.Subf (d, scratch, a))

let arith_core g (op : Op.binop) (t : Vtype.t) rd rs1 rs2 =
  if Vtype.is_float t then begin
    let dbl = t <> Vtype.F in
    let d = rnum rd and a = rnum rs1 and b = rnum rs2 in
    match op with
    | Op.Add -> e g (if dbl then A.Fadd (d, a, b) else A.Fadds (d, a, b))
    | Op.Sub -> e g (if dbl then A.Fsub (d, a, b) else A.Fsubs (d, a, b))
    | Op.Mul -> e g (if dbl then A.Fmul (d, a, b) else A.Fmuls (d, a, b))
    | Op.Div -> e g (if dbl then A.Fdiv (d, a, b) else A.Fdivs (d, a, b))
    | Op.Mod | Op.And | Op.Or | Op.Xor | Op.Lsh | Op.Rsh ->
      Verror.fail (Verror.Bad_type "float bit operation")
  end
  else
    let d = rnum rd and a = rnum rs1 and b = rnum rs2 in
    let masked_shift mk =
      (* VCODE shifts use five bits of the amount; slw/srw use six *)
      e g (A.Andi (scratch, b, 31));
      e g (mk scratch)
    in
    match op with
    | Op.Add -> e g (A.Add (d, a, b))
    | Op.Sub -> e g (A.Subf (d, b, a))
    | Op.Mul -> e g (A.Mullw (d, a, b))
    | Op.Div -> e g (if signed_ty t then A.Divw (d, a, b) else A.Divwu (d, a, b))
    | Op.Mod -> emit_mod g (signed_ty t) d a b
    | Op.And -> e g (A.And (d, a, b))
    | Op.Or -> e g (A.Or (d, a, b))
    | Op.Xor -> e g (A.Xor (d, a, b))
    | Op.Lsh -> masked_shift (fun sh -> A.Slw (d, a, sh))
    | Op.Rsh ->
      if signed_ty t then masked_shift (fun sh -> A.Sraw (d, a, sh))
      else masked_shift (fun sh -> A.Srw (d, a, sh))

let arith g op t rd rs1 rs2 =
  Gen.note_write g rd;
  Gen.count_insn g (Opk.arith op);
  arith_core g op t rd rs1 rs2

let arith_imm g (op : Op.binop) (t : Vtype.t) rd rs1 imm =
  Gen.note_write g rd;
  Gen.count_insn g (Opk.arith_imm op);
  let d = rnum rd and a = rnum rs1 in
  let via_reg () =
    load_const g scratch2 imm;
    arith_core g op t rd rs1 (Reg.R scratch2)
  in
  match op with
  | Op.Add -> if fits16s imm then e g (A.Addi (d, a, imm)) else via_reg ()
  | Op.Sub -> if fits16s (-imm) then e g (A.Addi (d, a, -imm)) else via_reg ()
  | Op.And -> if fits16u imm then e g (A.Andi (d, a, imm)) else via_reg ()
  | Op.Or -> if fits16u imm then e g (A.Ori (d, a, imm)) else via_reg ()
  | Op.Xor -> if fits16u imm then e g (A.Xori (d, a, imm)) else via_reg ()
  | Op.Lsh ->
    let sh = imm land 31 in
    if sh = 0 then e g (A.Or (d, a, a)) else e g (A.Rlwinm (d, a, sh, 0, 31 - sh))
  | Op.Rsh ->
    let sh = imm land 31 in
    if signed_ty t then e g (A.Srawi (d, a, sh))
    else if sh = 0 then e g (A.Or (d, a, a))
    else e g (A.Rlwinm (d, a, 32 - sh, sh, 31))
  | Op.Mul -> if fits16s imm then e g (A.Mulli (d, a, imm)) else via_reg ()
  | Op.Div | Op.Mod -> via_reg ()

let unary g (op : Op.unop) (t : Vtype.t) rd rs =
  Gen.note_write g rd;
  Gen.count_insn g (Opk.unary op);
  if Vtype.is_float t then begin
    let d = rnum rd and s = rnum rs in
    match op with
    | Op.Mov -> e g (A.Fmr (d, s))
    | Op.Neg -> e g (A.Fneg (d, s))
    | Op.Com | Op.Not -> Verror.fail (Verror.Bad_type "float bit operation")
  end
  else
    let d = rnum rd and s = rnum rs in
    match op with
    | Op.Com -> e g (A.Nor (d, s, s))
    | Op.Not ->
      (* the classic PowerPC sequence: cntlzw; >> 5 *)
      e g (A.Cntlzw (d, s));
      e g (A.Rlwinm (d, d, 32 - 5, 5, 31))
    | Op.Mov -> e g (A.Or (d, s, s))
    | Op.Neg -> e g (A.Neg (d, s))

let set g (_t : Vtype.t) rd imm64 =
  Gen.note_write g rd;
  Gen.count_insn g Opk.set;
  if Int64.compare imm64 (-0x80000000L) < 0 || Int64.compare imm64 0xFFFFFFFFL > 0 then
    Verror.fail (Verror.Range (Int64.to_string imm64));
  load_const g (rnum rd) (Int64.to_int imm64)

let setf_core g (t : Vtype.t) rd v =
  let dbl = match t with Vtype.D -> true | _ -> false in
  let site = Codebuf.length g.Gen.buf in
  e g (A.Addis (scratch, 0, 0));
  e g (if dbl then A.Lfd (rnum rd, scratch, 0) else A.Lfs (rnum rd, scratch, 0));
  let bits = if dbl then Int64.bits_of_float v else Int64.of_int32 (Int32.bits_of_float v) in
  Gen.add_fimm g ~site ~bits ~dbl

let setf g t rd v =
  Gen.note_write g rd;
  Gen.count_insn g Opk.setf;
  setf_core g t rd v

(* ------------------------------------------------------------------ *)
(* Branches                                                            *)

let emit_branch_to g ~bo ~bi lab =
  let site = Codebuf.length g.Gen.buf in
  e g (A.Bc (bo, bi, 0));
  Gen.add_reloc g ~site ~lab ~kind:k_branch

(* BO/BI for each condition after a cmp: bit 0 = lt, 1 = gt, 2 = eq *)
let cond_bo_bi = function
  | Op.Lt -> (12, 0)
  | Op.Gt -> (12, 1)
  | Op.Eq -> (12, 2)
  | Op.Ge -> (4, 0)
  | Op.Le -> (4, 1)
  | Op.Ne -> (4, 2)

let branch g (c : Op.cond) (t : Vtype.t) rs1 rs2 lab =
  if Vtype.is_float t then begin
    e g (A.Fcmpu (rnum rs1, rnum rs2));
    let bo, bi = cond_bo_bi c in
    emit_branch_to g ~bo ~bi lab
  end
  else begin
    e g
      (if unsigned_cmp t then A.Cmpl (rnum rs1, rnum rs2)
       else A.Cmp (rnum rs1, rnum rs2));
    let bo, bi = cond_bo_bi c in
    emit_branch_to g ~bo ~bi lab
  end

let branch_imm g (c : Op.cond) (t : Vtype.t) rs1 imm lab =
  if Vtype.is_float t then Verror.fail (Verror.Bad_type "float immediate branch");
  let u = unsigned_cmp t in
  if (not u) && fits16s imm then e g (A.Cmpi (rnum rs1, imm))
  else if u && fits16u imm then e g (A.Cmpli (rnum rs1, imm))
  else begin
    load_const g scratch2 imm;
    e g (if u then A.Cmpl (rnum rs1, scratch2) else A.Cmp (rnum rs1, scratch2))
  end;
  let bo, bi = cond_bo_bi c in
  emit_branch_to g ~bo ~bi lab

(* ------------------------------------------------------------------ *)
(* Conversions: the PowerPC magic-number technique                     *)

let magic_signed = Int64.float_of_bits 0x4330000080000000L
let magic_unsigned = Int64.float_of_bits 0x4330000000000000L

let cvt g ~(from : Vtype.t) ~(to_ : Vtype.t) rd rs =
  Gen.note_write g rd;
  Gen.count_insn g Opk.cvt;
  if (not (Vtype.is_float from)) && not (Vtype.is_float to_) then
    e g (A.Or (rnum rd, rnum rs, rnum rs))
  else
    match (from, to_) with
    | (Vtype.I | Vtype.L), (Vtype.F | Vtype.D) ->
      (* build 0x43300000:(x ^ 0x80000000) in memory, subtract magic *)
      e g (A.Addis (scratch, 0, 0x4330));
      e g (A.Stw (scratch, sp, xfer));
      e g (A.Addis (scratch2, rnum rs, 0x8000)); (* adds 2^31 mod 2^32 = bit flip *)
      e g (A.Stw (scratch2, sp, xfer + 4));
      e g (A.Lfd (rnum rd, sp, xfer));
      setf_core g Vtype.D (Reg.F fscratch) magic_signed;
      e g (A.Fsub (rnum rd, rnum rd, fscratch));
      if to_ = Vtype.F then e g (A.Frsp (rnum rd, rnum rd))
    | (Vtype.U | Vtype.UL), Vtype.D ->
      e g (A.Addis (scratch, 0, 0x4330));
      e g (A.Stw (scratch, sp, xfer));
      e g (A.Stw (rnum rs, sp, xfer + 4));
      e g (A.Lfd (rnum rd, sp, xfer));
      setf_core g Vtype.D (Reg.F fscratch) magic_unsigned;
      e g (A.Fsub (rnum rd, rnum rd, fscratch))
    | (Vtype.F | Vtype.D), (Vtype.I | Vtype.L) ->
      e g (A.Fctiwz (fscratch, rnum rs));
      e g (A.Stfd (fscratch, sp, xfer));
      (* big-endian: the integer word is the low word, at +4 *)
      e g (A.Lwz (rnum rd, sp, xfer + 4))
    | Vtype.F, Vtype.D -> e g (A.Fmr (rnum rd, rnum rs))
    | Vtype.D, Vtype.F -> e g (A.Frsp (rnum rd, rnum rs))
    | _ ->
      Verror.fail
        (Verror.Bad_type
           (Printf.sprintf "cv%s2%s" (Vtype.to_string from) (Vtype.to_string to_)))

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)

(* Emit the access given a base register number and an in-range 16-bit
   displacement. *)
let emit_load g (t : Vtype.t) rd b o =
  match t with
  | Vtype.C ->
    e g (A.Lbz (rnum rd, b, o));
    (* sign-extend the byte: rotate it to the top, arithmetic shift *)
    e g (A.Rlwinm (rnum rd, rnum rd, 24, 0, 31));
    e g (A.Srawi (rnum rd, rnum rd, 24))
  | Vtype.UC -> e g (A.Lbz (rnum rd, b, o))
  | Vtype.S -> e g (A.Lha (rnum rd, b, o))
  | Vtype.US -> e g (A.Lhz (rnum rd, b, o))
  | Vtype.I | Vtype.U | Vtype.L | Vtype.UL | Vtype.P -> e g (A.Lwz (rnum rd, b, o))
  | Vtype.F -> e g (A.Lfs (rnum rd, b, o))
  | Vtype.D -> e g (A.Lfd (rnum rd, b, o))
  | Vtype.V -> Verror.fail (Verror.Bad_type "ld.v")

let emit_store g (t : Vtype.t) rv b o =
  match t with
  | Vtype.C | Vtype.UC -> e g (A.Stb (rnum rv, b, o))
  | Vtype.S | Vtype.US -> e g (A.Sth (rnum rv, b, o))
  | Vtype.I | Vtype.U | Vtype.L | Vtype.UL | Vtype.P -> e g (A.Stw (rnum rv, b, o))
  | Vtype.F -> e g (A.Stfs (rnum rv, b, o))
  | Vtype.D -> e g (A.Stfd (rnum rv, b, o))
  | Vtype.V -> Verror.fail (Verror.Bad_type "st.v")

let load_imm g (t : Vtype.t) rd base off =
  Gen.note_write g rd;
  Gen.count_insn g Opk.ld;
  if fits16s off then emit_load g t rd (rnum base) off
  else begin
    load_const g scratch off;
    e g (A.Add (scratch, scratch, rnum base));
    emit_load g t rd scratch 0
  end

let load_reg g (t : Vtype.t) rd base idx =
  Gen.note_write g rd;
  Gen.count_insn g Opk.ld;
  e g (A.Add (scratch, rnum base, rnum idx));
  emit_load g t rd scratch 0

let store_imm g (t : Vtype.t) rv base off =
  Gen.count_insn g Opk.st;
  if fits16s off then emit_store g t rv (rnum base) off
  else begin
    load_const g scratch off;
    e g (A.Add (scratch, scratch, rnum base));
    emit_store g t rv scratch 0
  end

let store_reg g (t : Vtype.t) rv base idx =
  Gen.count_insn g Opk.st;
  e g (A.Add (scratch, rnum base, rnum idx));
  emit_store g t rv scratch 0

(* ------------------------------------------------------------------ *)
(* Control                                                             *)

let jump g (t : Gen.jtarget) =
  match t with
  | Gen.Jlabel lab ->
    let site = Codebuf.length g.Gen.buf in
    e g (A.B 0);
    Gen.add_reloc g ~site ~lab ~kind:k_jump
  | Gen.Jaddr a ->
    load_const g scratch a;
    e g (A.Mtctr scratch);
    e g A.Bctr
  | Gen.Jreg r ->
    e g (A.Mtctr (rnum r));
    e g A.Bctr

let jal g (t : Gen.jtarget) =
  match t with
  | Gen.Jlabel lab ->
    let site = Codebuf.length g.Gen.buf in
    e g (A.Bl 0);
    Gen.add_reloc g ~site ~lab ~kind:k_call
  | Gen.Jaddr a ->
    let here = g.Gen.base + (4 * Codebuf.length g.Gen.buf) in
    e g (A.Bl ((a - here) asr 2))
  | Gen.Jreg r ->
    e g (A.Mtctr (rnum r));
    e g A.Bctrl

let nop g = emit g A.nop_word

(* ------------------------------------------------------------------ *)
(* Frame protocol: the words [Port.finish] builds the epilogue and the
   backpatched prologue from                                           *)

let frame =
  {
    load =
      (fun (t : Vtype.t) r off ->
        A.encode
          (match t with
          | Vtype.F -> A.Lfs (r, sp, off)
          | Vtype.D -> A.Lfd (r, sp, off)
          | _ -> A.Lwz (r, sp, off)));
    store =
      (fun (t : Vtype.t) r off ->
        A.encode
          (match t with
          | Vtype.F -> A.Stfs (r, sp, off)
          | Vtype.D -> A.Stfd (r, sp, off)
          | _ -> A.Stw (r, sp, off)));
    adjust = (fun n -> A.encode (A.Addi (sp, sp, n)));
    (* LR travels through r12 to its slot at save_base *)
    ra_save = [ A.encode (A.Mflr scratch); A.encode (A.Stw (scratch, sp, save_base)) ];
    ra_restore = [ A.encode (A.Lwz (scratch, sp, save_base)); A.encode (A.Mtlr scratch) ];
    ret = [ A.encode A.Blr ];
    saves_at = save_base + 4;
    fimms = (fun g -> place_fimms_hi_lo g ~hi_word:(fun hi -> A.encode (A.Addis (scratch, 0, hi))));
    window = false;
  }

(* ------------------------------------------------------------------ *)
(* Calls and returns (the convention itself is [desc.conv])           *)

let move g (t : Vtype.t) rd rs =
  e g (if Vtype.is_float t then A.Fmr (rnum rd, rnum rs) else A.Or (rnum rd, rnum rs, rnum rs))

let lambda g tys = bind_params g ~reserve:reserve_words ~fill:A.nop_word tys

let ret g (t : Vtype.t) (r : Reg.t option) =
  ignore (move_ret g ~move t r);
  let site = Codebuf.length g.Gen.buf in
  e g (A.B 0);
  Gen.add_reloc g ~site ~lab:g.Gen.epilogue_lab ~kind:k_retj

let do_call g target = jal g (place_call_args g frame ~move ~via:scratch2 target)

let retval g t r = move_retval g ~move t r

let finish g =
  Port.finish g frame ~apply:(fun ~kind ~site ~dest ->
      let disp = dest - site in
      if kind = k_branch then begin
        if disp < -8192 || disp > 8191 then
          Verror.fail (Verror.Range "conditional branch displacement");
        let old = Codebuf.get g.Gen.buf site in
        Codebuf.set g.Gen.buf site ((old land lnot 0xFFFC) lor ((disp land 0x3FFF) lsl 2))
      end
      else if kind = k_jump || kind = k_call || kind = k_retj then begin
        if disp < -0x800000 || disp > 0x7FFFFF then
          Verror.fail (Verror.Range "branch displacement");
        let old = Codebuf.get g.Gen.buf site in
        Codebuf.set g.Gen.buf site ((old land lnot 0x3FFFFFC) lor ((disp land 0xFFFFFF) lsl 2))
      end
      else Verror.failf "unknown reloc kind %d" kind)

include Raw_hooks

(* Mirror of [arith_imm]'s single-instruction fast paths: addi/mulli are
   signed-16, the logical immediates unsigned-16, sub negates into addi,
   and shift counts always encode. *)
let binop_imm_fits (op : Op.binop) imm =
  match op with
  | Op.Add | Op.Mul -> fits16s imm
  | Op.Sub -> fits16s (-imm)
  | Op.And | Op.Or | Op.Xor -> fits16u imm
  | Op.Lsh | Op.Rsh -> true
  | Op.Div | Op.Mod -> false

let disasm ~word ~addr = A.disasm ~addr word

let extra_insns =
  [
    ("cntlzw", fun g (rs : Reg.t array) -> e g (A.Cntlzw (rnum rs.(0), rnum rs.(1))));
    ("frsp", fun g rs -> e g (A.Frsp (rnum rs.(0), rnum rs.(1))));
    ("mulli3", fun g rs -> e g (A.Mulli (rnum rs.(0), rnum rs.(1), 3)));
  ]

let extra_imm_insns =
  [
    ("addi", fun g (rs : Reg.t array) imm -> e g (A.Addi (rnum rs.(0), rnum rs.(1), imm)));
    ("ori", fun g rs imm -> e g (A.Ori (rnum rs.(0), rnum rs.(1), imm)));
  ]
