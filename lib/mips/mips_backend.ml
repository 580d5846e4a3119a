(* The VCODE MIPS port (paper section 3.3).

   Maps the VCODE core instruction set onto MIPS-I encodings and states
   the calling convention ([desc.conv]) and the frame protocol
   ([frame]) that {!Port} turns into calls, returns and the in-place
   prologue/epilogue backpatching of section 5.2:

   - [lambda] reserves a fixed-size prologue area in the instruction
     stream (48 words: enough to save $ra, all nine callee-saved integer
     registers, six callee-saved doubles, adjust $sp and reload every
     stack-passed argument).
   - The frame has a fixed layout so every offset is known at emission
     time: [sp+16,64) outgoing stack arguments, [sp+64,240) register-save
     area ($ra first), locals from sp+240 up.  The space-for-time
     tradeoff is the paper's own (it wastes at most the save area per
     active frame).
   - [finish] writes the real prologue into the *end* of the reserved
     area and returns the entry index just before it, saving exactly the
     registers recorded in [g.used_callee]/[g.used_fcallee].
   - Return jumps carry a special relocation: if the function turns out
     to need no frame, the backpatcher rewrites [j epilogue] into
     [jr $ra] — the paper's "eliminate this jump" optimization.

   Scratch registers: $at (the classic assembler temporary) and $v1 for
   synthesized sequences; $f18 is the FP scratch.  None are allocatable. *)

open Vcodebase
open Port
module A = Mips_asm

let reserve_words = 48
let save_base = 64         (* register save area: $ra + any forced-callee set *)
let locals_base = 240

(* reloc kinds *)
let k_branch = 0
let k_jump = 1
let k_call = 2

let scratch = 1  (* $at *)
let scratch2 = 3 (* $v1 *)
let fscratch = 18

let e g i = emit g (A.encode i)

let desc : Machdesc.t =
  let r n = Reg.R n and f n = Reg.F n in
  {
    Machdesc.name = "mips";
    word_bits = 32;
    big_endian = false;
    branch_delay_slots = 1;
    load_delay = 1;
    nregs = 32;
    nfregs = 32;
    temps = [| r 8; r 9; r 10; r 11; r 12; r 13; r 14; r 15; r 24; r 25 |];
    vars = [| r 16; r 17; r 18; r 19; r 20; r 21; r 22; r 23; r 30 |];
    ftemps = [| f 4; f 6; f 8; f 10; f 16 |];
    fvars = [| f 20; f 22; f 24; f 26; f 28; f 30 |];
    callee_mask =
      (1 lsl 16) lor (1 lsl 17) lor (1 lsl 18) lor (1 lsl 19) lor (1 lsl 20)
      lor (1 lsl 21) lor (1 lsl 22) lor (1 lsl 23) lor (1 lsl 30);
    fcallee_mask =
      (1 lsl 20) lor (1 lsl 22) lor (1 lsl 24) lor (1 lsl 26) lor (1 lsl 28) lor (1 lsl 30);
    (* a simplified O32: one slot per word; the first two FP arguments
       in slots 0-3 travel in $f12/$f14, other words in slots 0-3 in
       $a0-$a3; stack slot k at sp+16+4k *)
    conv =
      { Callconv.counting = Shared_slots; int_regs = [| 4; 5; 6; 7 |]; fp_regs = [| 12; 14 |];
        slot_bytes = 4; stack_base = 16; single_slots = 1; stack_limit = save_base;
        int_ret = 2; fp_ret = 0; window = 0 };
    sp = r 29;
    locals_base;
    scratch = r 1;
    fscratch = f fscratch;
    reg_name = (fun reg ->
      match reg with Reg.R n -> A.reg_name n | Reg.F n -> A.freg_name n);
  }

(* Load a 32-bit constant into [rd]; 1-2 instructions. *)
let load_const g rd v =
  if not (fits32 v) then
    Verror.fail (Verror.Range (Printf.sprintf "MIPS immediate %d" v));
  let v32 = v land 0xFFFFFFFF in
  let sv = if v32 land 0x80000000 <> 0 then v32 - 0x100000000 else v32 in
  if fits16s sv then emit g (A.W.addiu rd 0 sv)
  else begin
    let hi = (v32 lsr 16) land 0xFFFF and lo = v32 land 0xFFFF in
    emit g (A.W.lui rd hi);
    if lo <> 0 then emit g (A.W.ori rd rd lo)
  end

(* ------------------------------------------------------------------ *)
(* ALU                                                                 *)

let arith_core g (op : Op.binop) (t : Vtype.t) rd rs1 rs2 =
  if Vtype.is_float t then begin
    let fmt = match t with Vtype.F -> A.FS | _ -> A.FD in
    let d = rnum rd and a = rnum rs1 and b = rnum rs2 in
    match op with
    | Op.Add -> e g (A.Fadd (fmt, d, a, b))
    | Op.Sub -> e g (A.Fsub (fmt, d, a, b))
    | Op.Mul -> e g (A.Fmul (fmt, d, a, b))
    | Op.Div -> e g (A.Fdiv (fmt, d, a, b))
    | Op.Mod | Op.And | Op.Or | Op.Xor | Op.Lsh | Op.Rsh ->
      Verror.fail (Verror.Bad_type "float bit operation")
  end
  else
    let d = rnum rd and a = rnum rs1 and b = rnum rs2 in
    match op with
    | Op.Add -> emit g (A.W.addu d a b)
    | Op.Sub -> emit g (A.W.subu d a b)
    | Op.Mul ->
      emit g (A.W.mult a b);
      emit g (A.W.mflo d)
    | Op.Div ->
      emit g (if signed_ty t then A.W.div a b else A.W.divu a b);
      emit g (A.W.mflo d)
    | Op.Mod ->
      emit g (if signed_ty t then A.W.div a b else A.W.divu a b);
      emit g (A.W.mfhi d)
    | Op.And -> emit g (A.W.and_ d a b)
    | Op.Or -> emit g (A.W.or_ d a b)
    | Op.Xor -> emit g (A.W.xor d a b)
    | Op.Lsh -> emit g (A.W.sllv d a b)
    | Op.Rsh -> emit g (if signed_ty t then A.W.srav d a b else A.W.srlv d a b)

let arith g op t rd rs1 rs2 =
  Gen.note_write g rd;
  Gen.count_insn g (Opk.arith op);
  arith_core g op t rd rs1 rs2

let arith_imm g (op : Op.binop) (t : Vtype.t) rd rs1 imm =
  Gen.note_write g rd;
  Gen.count_insn g (Opk.arith_imm op);
  let d = rnum rd and a = rnum rs1 in
  let via_reg () =
    load_const g scratch imm;
    arith_core g op t rd rs1 (Reg.R scratch)
  in
  match op with
  | Op.Add -> if fits16s imm then emit g (A.W.addiu d a imm) else via_reg ()
  | Op.Sub -> if fits16s (-imm) then emit g (A.W.addiu d a (-imm)) else via_reg ()
  | Op.And -> if fits16u imm then emit g (A.W.andi d a imm) else via_reg ()
  | Op.Or -> if fits16u imm then emit g (A.W.ori d a imm) else via_reg ()
  | Op.Xor -> if fits16u imm then emit g (A.W.xori d a imm) else via_reg ()
  | Op.Lsh -> emit g (A.W.sll d a imm)
  | Op.Rsh -> emit g (if signed_ty t then A.W.sra d a imm else A.W.srl d a imm)
  | Op.Mul | Op.Div | Op.Mod -> via_reg ()

let unary_core g (op : Op.unop) (t : Vtype.t) rd rs =
  if Vtype.is_float t then begin
    let fmt = match t with Vtype.F -> A.FS | _ -> A.FD in
    let d = rnum rd and s = rnum rs in
    match op with
    | Op.Mov -> e g (A.Fmov (fmt, d, s))
    | Op.Neg -> e g (A.Fneg (fmt, d, s))
    | Op.Com | Op.Not -> Verror.fail (Verror.Bad_type "float bit operation")
  end
  else
    let d = rnum rd and s = rnum rs in
    match op with
    | Op.Com -> emit g (A.W.nor d s 0)
    | Op.Not -> emit g (A.W.sltiu d s 1)
    | Op.Mov -> emit g (A.W.or_ d s 0)
    | Op.Neg -> emit g (A.W.subu d 0 s)

let unary g op t rd rs =
  Gen.note_write g rd;
  Gen.count_insn g (Opk.unary op);
  unary_core g op t rd rs

let set g (_t : Vtype.t) rd imm64 =
  Gen.note_write g rd;
  Gen.count_insn g Opk.set;
  if Int64.compare imm64 (-0x80000000L) < 0 || Int64.compare imm64 0xFFFFFFFFL > 0 then
    Verror.fail (Verror.Range (Int64.to_string imm64));
  load_const g (rnum rd) (Int64.to_int imm64)

(* FP immediates: emit a two-word load (lui $at, 0 ; l?c1 f, 0($at)) and
   record it; [finish] places the constant after the code and patches the
   pair (paper section 5.2: constants at the end of the function's
   instruction stream so they are reclaimed with it). *)
let setf_core g (t : Vtype.t) rd v =
  let dbl = match t with Vtype.D -> true | _ -> false in
  let site = Codebuf.length g.Gen.buf in
  e g (A.Lui (scratch, 0));
  e g (if dbl then A.Ldc1 (rnum rd, scratch, 0) else A.Lwc1 (rnum rd, scratch, 0));
  let bits = if dbl then Int64.bits_of_float v
    else Int64.of_int32 (Int32.bits_of_float v) in
  Gen.add_fimm g ~site ~bits ~dbl

let setf g t rd v =
  Gen.note_write g rd;
  Gen.count_insn g Opk.setf;
  setf_core g t rd v

(* ------------------------------------------------------------------ *)
(* Branches                                                            *)

(* The single emission point for every control transfer that carries a
   relocation and a delay slot: the branch word (offset patched at
   finish) followed by its slot nop.  Keeping one helper gives the
   peephole stage ([Vcode.Make_peephole]) exactly one shape to rewrite
   when it lifts an independent instruction into the slot: the patch
   site is always the word before the nop. *)
let emit_branch_with_slot ?(kind = k_branch) g w lab =
  let site = Codebuf.length g.Gen.buf in
  emit g w;
  Gen.add_reloc g ~site ~lab ~kind;
  emit g A.W.nop (* delay slot *)

let branch g (c : Op.cond) (t : Vtype.t) rs1 rs2 lab =
  if Vtype.is_float t then begin
    let fmt = match t with Vtype.F -> A.FS | _ -> A.FD in
    let a = rnum rs1 and b = rnum rs2 in
    let cmp, on_true =
      match c with
      | Op.Lt -> (A.Fcmp (A.CLt, fmt, a, b), true)
      | Op.Le -> (A.Fcmp (A.CLe, fmt, a, b), true)
      | Op.Gt -> (A.Fcmp (A.CLt, fmt, b, a), true)
      | Op.Ge -> (A.Fcmp (A.CLe, fmt, b, a), true)
      | Op.Eq -> (A.Fcmp (A.CEq, fmt, a, b), true)
      | Op.Ne -> (A.Fcmp (A.CEq, fmt, a, b), false)
    in
    e g cmp;
    emit_branch_with_slot g (A.encode (if on_true then A.Bc1t 0 else A.Bc1f 0)) lab
  end
  else begin
    let a = rnum rs1 and b = rnum rs2 in
    let u = unsigned_cmp t in
    let slt x y = if u then A.W.sltu scratch x y else A.W.slt scratch x y in
    match c with
    | Op.Eq -> emit_branch_with_slot g (A.W.beq a b 0) lab
    | Op.Ne -> emit_branch_with_slot g (A.W.bne a b 0) lab
    | Op.Lt ->
      emit g (slt a b);
      emit_branch_with_slot g (A.W.bne scratch 0 0) lab
    | Op.Ge ->
      emit g (slt a b);
      emit_branch_with_slot g (A.W.beq scratch 0 0) lab
    | Op.Gt ->
      emit g (slt b a);
      emit_branch_with_slot g (A.W.bne scratch 0 0) lab
    | Op.Le ->
      emit g (slt b a);
      emit_branch_with_slot g (A.W.beq scratch 0 0) lab
  end

let branch_imm g (c : Op.cond) (t : Vtype.t) rs1 imm lab =
  if Vtype.is_float t then
    Verror.fail (Verror.Bad_type "float immediate branch")
  else
    let a = rnum rs1 in
    let u = unsigned_cmp t in
    match c with
    | Op.Eq when imm = 0 -> emit_branch_with_slot g (A.W.beq a 0 0) lab
    | Op.Ne when imm = 0 -> emit_branch_with_slot g (A.W.bne a 0 0) lab
    | Op.Lt when (not u) && imm = 0 -> emit_branch_with_slot g (A.encode (A.Bltz (a, 0))) lab
    | Op.Ge when (not u) && imm = 0 -> emit_branch_with_slot g (A.encode (A.Bgez (a, 0))) lab
    | Op.Gt when (not u) && imm = 0 -> emit_branch_with_slot g (A.encode (A.Bgtz (a, 0))) lab
    | Op.Le when (not u) && imm = 0 -> emit_branch_with_slot g (A.encode (A.Blez (a, 0))) lab
    | Op.Lt when fits16s imm ->
      emit g (if u then A.W.sltiu scratch a imm else A.W.slti scratch a imm);
      emit_branch_with_slot g (A.W.bne scratch 0 0) lab
    | Op.Ge when fits16s imm ->
      emit g (if u then A.W.sltiu scratch a imm else A.W.slti scratch a imm);
      emit_branch_with_slot g (A.W.beq scratch 0 0) lab
    | Op.Eq | Op.Ne | Op.Lt | Op.Le | Op.Gt | Op.Ge ->
      (* general case: materialize the immediate in $at and use $v1 for
         the comparison result where one is needed *)
      load_const g scratch2 imm;
      let b = scratch2 in
      let slt x y = if u then A.W.sltu scratch x y else A.W.slt scratch x y in
      (match c with
      | Op.Eq -> emit_branch_with_slot g (A.W.beq a b 0) lab
      | Op.Ne -> emit_branch_with_slot g (A.W.bne a b 0) lab
      | Op.Lt ->
        emit g (slt a b);
        emit_branch_with_slot g (A.W.bne scratch 0 0) lab
      | Op.Ge ->
        emit g (slt a b);
        emit_branch_with_slot g (A.W.beq scratch 0 0) lab
      | Op.Gt ->
        emit g (slt b a);
        emit_branch_with_slot g (A.W.bne scratch 0 0) lab
      | Op.Le ->
        emit g (slt b a);
        emit_branch_with_slot g (A.W.beq scratch 0 0) lab)

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)

let cvt g ~(from : Vtype.t) ~(to_ : Vtype.t) rd rs =
  Gen.note_write g rd;
  Gen.count_insn g Opk.cvt;
  if (not (Vtype.is_float from)) && not (Vtype.is_float to_) then
    (* all word-class types share a representation on a 32-bit machine *)
    e g (A.Or (rnum rd, rnum rs, 0))
  else
    match (from, to_) with
    | (Vtype.I | Vtype.L), Vtype.F ->
      e g (A.Mtc1 (rnum rs, fscratch));
      e g (A.Cvt (A.FS, A.FW, rnum rd, fscratch))
    | (Vtype.I | Vtype.L), Vtype.D ->
      e g (A.Mtc1 (rnum rs, fscratch));
      e g (A.Cvt (A.FD, A.FW, rnum rd, fscratch))
    | (Vtype.U | Vtype.UL), Vtype.D ->
      (* unsigned convert: signed convert then add 2^32 if the sign bit
         was set *)
      e g (A.Mtc1 (rnum rs, fscratch));
      e g (A.Cvt (A.FD, A.FW, rnum rd, fscratch));
      let skip = Gen.genlabel g in
      let site = Codebuf.length g.Gen.buf in
      e g (A.Bgez (rnum rs, 0));
      Gen.add_reloc g ~site ~lab:skip ~kind:k_branch;
      e g A.Nop;
      setf_core g Vtype.D (Reg.F fscratch) 4294967296.0;
      e g (A.Fadd (A.FD, rnum rd, rnum rd, fscratch));
      Gen.bind_label g skip
    | Vtype.F, (Vtype.I | Vtype.L) ->
      e g (A.Truncw (A.FS, fscratch, rnum rs));
      e g (A.Mfc1 (rnum rd, fscratch))
    | Vtype.D, (Vtype.I | Vtype.L) ->
      e g (A.Truncw (A.FD, fscratch, rnum rs));
      e g (A.Mfc1 (rnum rd, fscratch))
    | Vtype.F, Vtype.D -> e g (A.Cvt (A.FD, A.FS, rnum rd, rnum rs))
    | Vtype.D, Vtype.F -> e g (A.Cvt (A.FS, A.FD, rnum rd, rnum rs))
    | _ ->
      Verror.fail
        (Verror.Bad_type
           (Printf.sprintf "cv%s2%s" (Vtype.to_string from) (Vtype.to_string to_)))

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)

(* Emit the access given a base register number and an in-range 16-bit
   offset.  The immediate-offset entry points below keep the dominant
   fits-in-16-bits case a straight encode with no allocation. *)
let[@inline] emit_load g (t : Vtype.t) rd b o =
  match t with
  | Vtype.C -> emit g (A.W.lb (rnum rd) b o)
  | Vtype.UC -> emit g (A.W.lbu (rnum rd) b o)
  | Vtype.S -> emit g (A.W.lh (rnum rd) b o)
  | Vtype.US -> emit g (A.W.lhu (rnum rd) b o)
  | Vtype.I | Vtype.U | Vtype.L | Vtype.UL | Vtype.P -> emit g (A.W.lw (rnum rd) b o)
  | Vtype.F -> e g (A.Lwc1 (rnum rd, b, o))
  | Vtype.D -> e g (A.Ldc1 (rnum rd, b, o))
  | Vtype.V -> Verror.fail (Verror.Bad_type "ld.v")

let[@inline] emit_store g (t : Vtype.t) rv b o =
  match t with
  | Vtype.C | Vtype.UC -> emit g (A.W.sb (rnum rv) b o)
  | Vtype.S | Vtype.US -> emit g (A.W.sh (rnum rv) b o)
  | Vtype.I | Vtype.U | Vtype.L | Vtype.UL | Vtype.P -> emit g (A.W.sw (rnum rv) b o)
  | Vtype.F -> e g (A.Swc1 (rnum rv, b, o))
  | Vtype.D -> e g (A.Sdc1 (rnum rv, b, o))
  | Vtype.V -> Verror.fail (Verror.Bad_type "st.v")

let load_imm g (t : Vtype.t) rd base off =
  Gen.note_write g rd;
  Gen.count_insn g Opk.ld;
  if fits16s off then emit_load g t rd (rnum base) off
  else begin
    load_const g scratch off;
    emit g (A.W.addu scratch scratch (rnum base));
    emit_load g t rd scratch 0
  end

let load_reg g (t : Vtype.t) rd base idx =
  Gen.note_write g rd;
  Gen.count_insn g Opk.ld;
  emit g (A.W.addu scratch (rnum base) (rnum idx));
  emit_load g t rd scratch 0

let store_imm_core g (t : Vtype.t) rv base off =
  if fits16s off then emit_store g t rv (rnum base) off
  else begin
    load_const g scratch off;
    emit g (A.W.addu scratch scratch (rnum base));
    emit_store g t rv scratch 0
  end

let store_imm g t rv base off =
  Gen.count_insn g Opk.st;
  store_imm_core g t rv base off

let store_reg g (t : Vtype.t) rv base idx =
  Gen.count_insn g Opk.st;
  emit g (A.W.addu scratch (rnum base) (rnum idx));
  emit_store g t rv scratch 0

(* ------------------------------------------------------------------ *)
(* Control                                                             *)

let jump g (t : Gen.jtarget) =
  match t with
  | Gen.Jlabel lab -> emit_branch_with_slot ~kind:k_jump g (A.encode (A.J 0)) lab
  | Gen.Jaddr a ->
    e g (A.J (a lsr 2));
    e g A.Nop
  | Gen.Jreg r ->
    e g (A.Jr (rnum r));
    e g A.Nop

let jal g (t : Gen.jtarget) =
  match t with
  | Gen.Jlabel lab -> emit_branch_with_slot ~kind:k_call g (A.encode (A.Jal 0)) lab
  | Gen.Jaddr a ->
    e g (A.Jal (a lsr 2));
    e g A.Nop
  | Gen.Jreg r ->
    e g (A.Jalr (31, rnum r));
    e g A.Nop

let nop g = e g A.Nop

(* ------------------------------------------------------------------ *)
(* Frame protocol: the words [Port.finish] builds the epilogue and the
   backpatched prologue from (section 5.2)                             *)

let frame =
  {
    load =
      (fun (t : Vtype.t) r off ->
        A.encode
          (match t with
          | Vtype.F -> A.Lwc1 (r, 29, off)
          | Vtype.D -> A.Ldc1 (r, 29, off)
          | _ -> A.Lw (r, 29, off)));
    store =
      (fun (t : Vtype.t) r off ->
        A.encode
          (match t with
          | Vtype.F -> A.Swc1 (r, 29, off)
          | Vtype.D -> A.Sdc1 (r, 29, off)
          | _ -> A.Sw (r, 29, off)));
    adjust = (fun n -> A.encode (A.Addiu (29, 29, n)));
    (* save slot 0 (save_base) is $ra; callee-saved registers follow *)
    ra_save = [ A.encode (A.Sw (31, 29, save_base)) ];
    ra_restore = [ A.encode (A.Lw (31, 29, save_base)) ];
    ret = [ A.encode (A.Jr 31); A.encode A.Nop ];
    saves_at = save_base + 4;
    fimms = (fun g -> place_fimms_hi_lo g ~hi_word:(fun hi -> A.encode (A.Lui (scratch, hi))));
    window = false;
  }

(* ------------------------------------------------------------------ *)
(* Calls and returns (the convention itself is [desc.conv])           *)

let move g t rd rs = unary_core g Op.Mov t rd rs
let lambda g tys = bind_params g ~reserve:reserve_words ~fill:(A.encode A.Nop) tys

let ret g (t : Vtype.t) (r : Reg.t option) =
  (* The return-value move rides in the jump's delay slot, exactly as in
     the paper's Figure 1 output (j ra ; move v0, a0). *)
  let site = Codebuf.length g.Gen.buf in
  e g (A.J 0);
  Gen.add_reloc g ~site ~lab:g.Gen.epilogue_lab ~kind:k_retj;
  if not (move_ret g ~move t r) then e g A.Nop

let do_call g target = jal g (place_call_args g frame ~move ~via:scratch2 target)

let retval g t r = move_retval g ~move t r

let finish g =
  Port.finish g frame ~apply:(fun ~kind ~site ~dest ->
      if kind = k_branch then begin
        let off = dest - (site + 1) in
        if off < -32768 || off > 32767 then
          Verror.fail (Verror.Range "branch displacement");
        let old = Codebuf.get g.Gen.buf site in
        Codebuf.set g.Gen.buf site ((old land 0xFFFF0000) lor (off land 0xFFFF))
      end
      else begin
        let addr = (g.Gen.base + (4 * dest)) lsr 2 in
        if kind = k_jump || kind = k_retj then Codebuf.set g.Gen.buf site (A.encode (A.J addr))
        else if kind = k_call then Codebuf.set g.Gen.buf site (A.encode (A.Jal addr))
        else Verror.failf "unknown reloc kind %d" kind
      end)

include Raw_hooks

(* Mirror of [arith_imm]'s single-instruction fast paths. *)
let binop_imm_fits (op : Op.binop) imm =
  match op with
  | Op.Add -> fits16s imm
  | Op.Sub -> fits16s (-imm)
  | Op.And | Op.Or | Op.Xor -> fits16u imm
  | Op.Lsh | Op.Rsh -> imm >= 0 && imm <= 31
  | Op.Mul | Op.Div | Op.Mod -> false

let disasm ~word ~addr = A.disasm ~addr word

(* Extra machine instructions exported to the extension spec language
   (section 5.4): the paper's running example is MIPS fsqrt. *)
let extra_insns =
  [
    ("fsqrts", fun g (rs : Reg.t array) -> e g (A.Fsqrt (A.FS, rnum rs.(0), rnum rs.(1))));
    ("fsqrtd", fun g rs -> e g (A.Fsqrt (A.FD, rnum rs.(0), rnum rs.(1))));
    ("fabss", fun g rs -> e g (A.Fabs (A.FS, rnum rs.(0), rnum rs.(1))));
    ("fabsd", fun g rs -> e g (A.Fabs (A.FD, rnum rs.(0), rnum rs.(1))));
    ("mfhi", fun g rs -> e g (A.Mfhi (rnum rs.(0))));
    ("mflo", fun g rs -> e g (A.Mflo (rnum rs.(0))));
    ("addu", fun g rs -> emit g (A.W.addu (rnum rs.(0)) (rnum rs.(1)) (rnum rs.(2))));
    ("subu", fun g rs -> emit g (A.W.subu (rnum rs.(0)) (rnum rs.(1)) (rnum rs.(2))));
  ]

let extra_imm_insns =
  [
    ("addiu", fun g (rs : Reg.t array) imm -> e g (A.Addiu (rnum rs.(0), rnum rs.(1), imm)));
    ("ori", fun g rs imm -> e g (A.Ori (rnum rs.(0), rnum rs.(1), imm)));
    ("sll", fun g rs imm -> e g (A.Sll (rnum rs.(0), rnum rs.(1), imm land 31)));
  ]
