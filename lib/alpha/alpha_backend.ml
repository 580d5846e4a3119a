(* The VCODE Alpha port.

   64-bit target, no delay slots.  The interesting parts relative to the
   MIPS port, all discussed in the paper:

   - No byte/halfword memory operations (pre-BWX): loads and stores of
     c/uc/s/us types are synthesized from ldq_u / ext / ins / msk / stq_u
     sequences (section 6.2 quotes eleven instructions worst case for an
     unsigned byte store; ours are comparable once out-of-range offsets
     are included).
   - No integer divide: v_div / v_mod compile to calls to the
     {!Alpha_runtime} millicode, which obeys the special
     "preserves everything" convention of section 5.2 so that even leaf
     procedures may use it; sign fixups use cmov so no branches are
     needed.
   - 32-bit (i/u) values are kept sign-extended in 64-bit registers, the
     Alpha convention; addl/subl/mull re-normalize, and unsigned 32-bit
     shifts/divides zero-extend explicitly.

   Register plan: $28 is the assembler scratch; $24/$25/$27 are the
   millicode argument/result registers and double as synthesis scratch;
   $29 (gp) and $15 (fp) are reserved.  Temps: $1-$8, $22, $23; vars:
   $9-$14.

   Frame layout (16-aligned, grows down):
     sp+0   .. sp+47    outgoing stack arguments (slots 6..11)
     sp+48              saved $ra
     sp+56  .. sp+255   register save area (ints then doubles)
     sp+256 ..          locals
   The int<->float transfer scratch is the 8 bytes below sp, safe in our
   closed world (nothing asynchronous touches the stack). *)

open Vcodebase
open Port
module A = Alpha_asm

let reserve_words = 40
let ra_slot = 48
let save_base = 56
let locals_base = 256
let xfer = -8 (* int<->float transfer scratch, below sp *)

let k_branch = 0 (* 21-bit branch displacement; so is k_retj (Port) *)

let zero = 31
let sp = 30
let gp = 29
let at = 28
let ra = 26
let mr_a = 24  (* millicode dividend / remainder result *)
let mr_b = 25  (* millicode divisor / scratch *)
let mr_q = 27  (* millicode quotient / scratch *)
let fscratch = 1

let _ = gp

let e g i = emit g (A.encode i)

let desc : Machdesc.t =
  let r n = Reg.R n and f n = Reg.F n in
  {
    Machdesc.name = "alpha";
    word_bits = 64;
    big_endian = false;
    branch_delay_slots = 0;
    load_delay = 2;
    nregs = 32;
    nfregs = 32;
    temps = [| r 1; r 2; r 3; r 4; r 5; r 6; r 7; r 8; r 22; r 23 |];
    vars = [| r 9; r 10; r 11; r 12; r 13; r 14 |];
    ftemps = [| f 10; f 11; f 12; f 13; f 14; f 15; f 22; f 23; f 24; f 25; f 26; f 27 |];
    fvars = [| f 2; f 3; f 4; f 5; f 6; f 7; f 8; f 9 |];
    callee_mask =
      (1 lsl 9) lor (1 lsl 10) lor (1 lsl 11) lor (1 lsl 12) lor (1 lsl 13) lor (1 lsl 14);
    fcallee_mask =
      (1 lsl 2) lor (1 lsl 3) lor (1 lsl 4) lor (1 lsl 5) lor (1 lsl 6) lor (1 lsl 7)
      lor (1 lsl 8) lor (1 lsl 9);
    (* argument k in $16+k or $f16+k for k < 6, else at sp+8(k-6) *)
    conv =
      { Callconv.counting = Positional; int_regs = [| 16; 17; 18; 19; 20; 21 |];
        fp_regs = [| 16; 17; 18; 19; 20; 21 |]; slot_bytes = 8; stack_base = -48;
        single_slots = 1; stack_limit = ra_slot; int_ret = 0; fp_ret = 0; window = 0 };
    sp = r 30;
    locals_base;
    scratch = r 28;
    fscratch = f fscratch;
    reg_name = (fun reg ->
      match reg with Reg.R n -> A.reg_name n | Reg.F n -> A.freg_name n);
  }

let fits_lit v = v >= 0 && v <= 255

let sext16 v = ((v land 0xFFFF) lxor 0x8000) - 0x8000

(* Load a 64-bit constant: lda/ldah pairs around an optional sll #32,
   at most five instructions.  Works by the standard gas decomposition;
   all arithmetic is modulo 2^64 so Int64 wraparound is harmless. *)
let emit_const g rd (v : int64) =
  let l0 = sext16 (Int64.to_int (Int64.logand v 0xFFFFL)) in
  let v1 = Int64.shift_right (Int64.sub v (Int64.of_int l0)) 16 in
  let h0 = sext16 (Int64.to_int (Int64.logand v1 0xFFFFL)) in
  let v2 = Int64.shift_right (Int64.sub v1 (Int64.of_int h0)) 16 in
  if Int64.equal v2 0L then begin
    e g (A.Lda (rd, zero, l0));
    if h0 <> 0 then e g (A.Ldah (rd, rd, h0))
  end
  else begin
    let l1 = sext16 (Int64.to_int (Int64.logand v2 0xFFFFL)) in
    let v3 = Int64.shift_right (Int64.sub v2 (Int64.of_int l1)) 16 in
    let h1 = sext16 (Int64.to_int (Int64.logand v3 0xFFFFL)) in
    e g (A.Lda (rd, zero, l1));
    if h1 <> 0 then e g (A.Ldah (rd, rd, h1));
    e g (A.Intop (A.Sll, rd, A.L 32, rd));
    if h0 <> 0 then e g (A.Ldah (rd, rd, h0));
    if l0 <> 0 then e g (A.Lda (rd, rd, l0))
  end

let is_32 (t : Vtype.t) = match t with Vtype.I | Vtype.U -> true | _ -> false

(* re-normalize a 32-bit result to the sign-extended convention *)
let sext32_reg g r = e g (A.Intop (A.Addl, r, A.L 0, r))

(* zero-extend a (sign-extended) 32-bit value into a scratch *)
let zext32_into g dst src =
  e g (A.Intop (A.Sll, src, A.L 32, dst));
  e g (A.Intop (A.Srl, dst, A.L 32, dst))

(* ------------------------------------------------------------------ *)
(* Division via millicode                                              *)

(* unsigned divide/remainder: set up $24/$25, call, fetch result *)
let emit_udivmod g (t : Vtype.t) rd rs1 rs2 ~want_rem =
  let a = rnum rs1 and b = rnum rs2 in
  if t = Vtype.U then begin
    zext32_into g mr_a a;
    zext32_into g mr_b b
  end
  else begin
    e g (A.Intop (A.Bis, a, A.R a, mr_a));
    e g (A.Intop (A.Bis, b, A.R b, mr_b))
  end;
  e g (A.Lda (mr_q, zero, Alpha_runtime.divmodqu_addr));
  e g (A.Jsr (at, mr_q));
  let src = if want_rem then mr_a else mr_q in
  e g (A.Intop (A.Bis, src, A.R src, rnum rd));
  if is_32 t then sext32_reg g (rnum rd)

(* signed divide/remainder with cmov sign fixups (no branches).

   Alias hazard: the divisor may already live in $25 (the millicode
   divisor register) when it was materialized by arith_imm's via_reg
   path.  The sequence therefore (a) reads the divisor's sign before
   overwriting anything, stashing the quotient sign below sp (the
   millicode borrows sp-8..-24, we use sp-32), and (b) computes |b|
   without reading b after a write to $25. *)
let emit_sdivmod g (t : Vtype.t) rd rs1 rs2 ~want_rem =
  let a = rnum rs1 and b = rnum rs2 in
  if not want_rem then begin
    (* quotient sign = sign(a) xor sign(b), saved across the call *)
    e g (A.Intop (A.Xor, a, A.R b, at));
    e g (A.Stq (at, sp, -32))
  end;
  (* $24 = |a| (a is a client register, never a millicode register) *)
  e g (A.Intop (A.Subq, zero, A.R a, mr_a));
  e g (A.Intop (A.Cmovge, a, A.R a, mr_a));
  (* $25 = |b|, alias-safe when b = $25 *)
  e g (A.Intop (A.Subq, zero, A.R b, at));
  if b <> mr_b then e g (A.Intop (A.Bis, b, A.R b, mr_b));
  e g (A.Intop (A.Cmovlt, mr_b, A.R at, mr_b));
  e g (A.Lda (mr_q, zero, Alpha_runtime.divmodqu_addr));
  e g (A.Jsr (at, mr_q));
  if want_rem then begin
    (* remainder sign follows the dividend, still intact in [a] *)
    e g (A.Intop (A.Subq, zero, A.R mr_a, mr_b));
    e g (A.Intop (A.Cmovlt, a, A.R mr_b, mr_a));
    e g (A.Intop (A.Bis, mr_a, A.R mr_a, rnum rd))
  end
  else begin
    e g (A.Ldq (at, sp, -32));
    e g (A.Intop (A.Subq, zero, A.R mr_q, mr_b));
    e g (A.Intop (A.Cmovlt, at, A.R mr_b, mr_q));
    e g (A.Intop (A.Bis, mr_q, A.R mr_q, rnum rd))
  end;
  if is_32 t then sext32_reg g (rnum rd)

(* ------------------------------------------------------------------ *)
(* ALU                                                                 *)

let arith_core g (op : Op.binop) (t : Vtype.t) rd rs1 rs2 =
  if Vtype.is_float t then begin
    let dbl = t <> Vtype.F in
    let d = rnum rd and a = rnum rs1 and b = rnum rs2 in
    let o =
      match op with
      | Op.Add -> if dbl then A.Addt else A.Adds
      | Op.Sub -> if dbl then A.Subt else A.Subs
      | Op.Mul -> if dbl then A.Mult else A.Muls
      | Op.Div -> if dbl then A.Divt else A.Divs
      | Op.Mod | Op.And | Op.Or | Op.Xor | Op.Lsh | Op.Rsh ->
        Verror.fail (Verror.Bad_type "float bit operation")
    in
    e g (A.Fpop (o, a, b, d))
  end
  else
    let d = rnum rd and a = rnum rs1 and b = A.R (rnum rs2) in
    match op with
    | Op.Add -> e g (A.Intop ((if is_32 t then A.Addl else A.Addq), a, b, d))
    | Op.Sub -> e g (A.Intop ((if is_32 t then A.Subl else A.Subq), a, b, d))
    | Op.Mul -> e g (A.Intop ((if is_32 t then A.Mull else A.Mulq), a, b, d))
    | Op.Div ->
      if signed_ty t then emit_sdivmod g t rd rs1 rs2 ~want_rem:false
      else emit_udivmod g t rd rs1 rs2 ~want_rem:false
    | Op.Mod ->
      if signed_ty t then emit_sdivmod g t rd rs1 rs2 ~want_rem:true
      else emit_udivmod g t rd rs1 rs2 ~want_rem:true
    | Op.And -> e g (A.Intop (A.And, a, b, d))
    | Op.Or -> e g (A.Intop (A.Bis, a, b, d))
    | Op.Xor -> e g (A.Intop (A.Xor, a, b, d))
    | Op.Lsh ->
      if is_32 t then begin
        (* 32-bit shifts take the amount modulo 32, unlike the 64-bit
           sll which uses six bits *)
        (match b with A.R br -> e g (A.Intop (A.And, br, A.L 31, at)) | A.L _ -> ());
        e g (A.Intop (A.Sll, a, A.R at, d));
        sext32_reg g d
      end
      else e g (A.Intop (A.Sll, a, b, d))
    | Op.Rsh ->
      if is_32 t then begin
        (match b with A.R br -> e g (A.Intop (A.And, br, A.L 31, at)) | A.L _ -> ());
        if signed_ty t then e g (A.Intop (A.Sra, a, A.R at, d))
        else begin
          (* zero-extend the 32-bit value before the logical shift *)
          zext32_into g mr_b a;
          e g (A.Intop (A.Srl, mr_b, A.R at, d))
        end;
        sext32_reg g d
      end
      else if signed_ty t then e g (A.Intop (A.Sra, a, b, d))
      else e g (A.Intop (A.Srl, a, b, d))

let arith g op t rd rs1 rs2 =
  Gen.note_write g rd;
  Gen.count_insn g (Opk.arith op);
  arith_core g op t rd rs1 rs2

let arith_imm g (op : Op.binop) (t : Vtype.t) rd rs1 imm =
  Gen.note_write g rd;
  Gen.count_insn g (Opk.arith_imm op);
  let d = rnum rd and a = rnum rs1 in
  let small = imm >= 0 && imm <= 255 in
  let lit = A.L (imm land 0xFF) in
  let via_reg () =
    emit_const g mr_b (Int64.of_int imm);
    arith_core g op t rd rs1 (Reg.R mr_b)
  in
  match op with
  | Op.Add when small -> e g (A.Intop ((if is_32 t then A.Addl else A.Addq), a, lit, d))
  | Op.Add when (not (is_32 t)) && imm >= -32768 && imm <= 32767 ->
    e g (A.Lda (d, a, imm))
  | Op.Sub when small -> e g (A.Intop ((if is_32 t then A.Subl else A.Subq), a, lit, d))
  | Op.And when small -> e g (A.Intop (A.And, a, lit, d))
  | Op.Or when small -> e g (A.Intop (A.Bis, a, lit, d))
  | Op.Xor when small -> e g (A.Intop (A.Xor, a, lit, d))
  | Op.Lsh | Op.Rsh ->
    let w = if is_32 t then 31 else 63 in
    let sh = imm land w in
    (match op with
    | Op.Lsh ->
      e g (A.Intop (A.Sll, a, A.L sh, d));
      if is_32 t then sext32_reg g d
    | Op.Rsh ->
      if signed_ty t then e g (A.Intop (A.Sra, a, A.L sh, d))
      else if t = Vtype.U then begin
        zext32_into g at a;
        e g (A.Intop (A.Srl, at, A.L sh, d));
        sext32_reg g d
      end
      else e g (A.Intop (A.Srl, a, A.L sh, d))
    | _ -> assert false)
  | Op.Mul when small -> e g (A.Intop ((if is_32 t then A.Mull else A.Mulq), a, lit, d))
  | Op.Add | Op.Sub | Op.Mul | Op.Div | Op.Mod | Op.And | Op.Or | Op.Xor -> via_reg ()

let unary g (op : Op.unop) (t : Vtype.t) rd rs =
  Gen.note_write g rd;
  Gen.count_insn g (Opk.unary op);
  if Vtype.is_float t then begin
    let d = rnum rd and s = rnum rs in
    match op with
    | Op.Mov -> e g (A.Fpop (A.Cpys, s, s, d))
    | Op.Neg -> e g (A.Fpop (A.Cpysn, s, s, d))
    | Op.Com | Op.Not -> Verror.fail (Verror.Bad_type "float bit operation")
  end
  else
    let d = rnum rd and s = rnum rs in
    match op with
    | Op.Com ->
      e g (A.Intop (A.Ornot, zero, A.R s, d));
      if is_32 t then sext32_reg g d
    | Op.Not -> e g (A.Intop (A.Cmpeq, s, A.L 0, d))
    | Op.Mov -> e g (A.Intop (A.Bis, s, A.R s, d))
    | Op.Neg -> e g (A.Intop ((if is_32 t then A.Subl else A.Subq), zero, A.R s, d))

let set g (t : Vtype.t) rd imm64 =
  Gen.note_write g rd;
  Gen.count_insn g Opk.set;
  let v = if is_32 t then Int64.shift_right (Int64.shift_left imm64 32) 32 else imm64 in
  emit_const g (rnum rd) v

let setf g (t : Vtype.t) rd v =
  Gen.note_write g rd;
  Gen.count_insn g Opk.setf;
  let dbl = match t with Vtype.D -> true | _ -> false in
  let site = Codebuf.length g.Gen.buf in
  e g (A.Ldah (at, zero, 0));
  e g (if dbl then A.Ldt (rnum rd, at, 0) else A.Lds (rnum rd, at, 0));
  let bits = if dbl then Int64.bits_of_float v else Int64.of_int32 (Int32.bits_of_float v) in
  Gen.add_fimm g ~site ~bits ~dbl

(* ------------------------------------------------------------------ *)
(* Branches                                                            *)

let emit_branch_to g ~(mk : int -> A.t) lab =
  let site = Codebuf.length g.Gen.buf in
  e g (mk 0);
  Gen.add_reloc g ~site ~lab ~kind:k_branch

let branch g (c : Op.cond) (t : Vtype.t) rs1 rs2 lab =
  if Vtype.is_float t then begin
    let a = rnum rs1 and b = rnum rs2 in
    let cmp, on_true =
      match c with
      | Op.Lt -> (A.Fpop (A.Cmptlt, a, b, fscratch), true)
      | Op.Le -> (A.Fpop (A.Cmptle, a, b, fscratch), true)
      | Op.Gt -> (A.Fpop (A.Cmptlt, b, a, fscratch), true)
      | Op.Ge -> (A.Fpop (A.Cmptle, b, a, fscratch), true)
      | Op.Eq -> (A.Fpop (A.Cmpteq, a, b, fscratch), true)
      | Op.Ne -> (A.Fpop (A.Cmpteq, a, b, fscratch), false)
    in
    e g cmp;
    emit_branch_to g
      ~mk:(fun d -> if on_true then A.Fbne (fscratch, d) else A.Fbeq (fscratch, d))
      lab
  end
  else begin
    let a = rnum rs1 and b = A.R (rnum rs2) in
    let unsigned =
      match t with Vtype.U | Vtype.UL | Vtype.P -> true | _ -> false
    in
    let cmp, on_true =
      match (c, unsigned) with
      | Op.Lt, false -> (A.Intop (A.Cmplt, a, b, at), true)
      | Op.Le, false -> (A.Intop (A.Cmple, a, b, at), true)
      | Op.Gt, false -> (A.Intop (A.Cmple, a, b, at), false)
      | Op.Ge, false -> (A.Intop (A.Cmplt, a, b, at), false)
      | Op.Lt, true -> (A.Intop (A.Cmpult, a, b, at), true)
      | Op.Le, true -> (A.Intop (A.Cmpule, a, b, at), true)
      | Op.Gt, true -> (A.Intop (A.Cmpule, a, b, at), false)
      | Op.Ge, true -> (A.Intop (A.Cmpult, a, b, at), false)
      | Op.Eq, _ -> (A.Intop (A.Cmpeq, a, b, at), true)
      | Op.Ne, _ -> (A.Intop (A.Cmpeq, a, b, at), false)
    in
    e g cmp;
    emit_branch_to g ~mk:(fun d -> if on_true then A.Bne (at, d) else A.Beq (at, d)) lab
  end

let branch_imm g (c : Op.cond) (t : Vtype.t) rs1 imm lab =
  if Vtype.is_float t then Verror.fail (Verror.Bad_type "float immediate branch");
  let a = rnum rs1 in
  let signed = signed_ty t in
  if imm = 0 && signed then
    let mk =
      match c with
      | Op.Lt -> fun d -> A.Blt (a, d)
      | Op.Le -> fun d -> A.Ble (a, d)
      | Op.Gt -> fun d -> A.Bgt (a, d)
      | Op.Ge -> fun d -> A.Bge (a, d)
      | Op.Eq -> fun d -> A.Beq (a, d)
      | Op.Ne -> fun d -> A.Bne (a, d)
    in
    emit_branch_to g ~mk lab
  else if imm >= 0 && imm <= 255 then begin
    let lit = A.L imm in
    let unsigned = not signed in
    let cmp, on_true =
      match (c, unsigned) with
      | Op.Lt, false -> (A.Intop (A.Cmplt, a, lit, at), true)
      | Op.Le, false -> (A.Intop (A.Cmple, a, lit, at), true)
      | Op.Gt, false -> (A.Intop (A.Cmple, a, lit, at), false)
      | Op.Ge, false -> (A.Intop (A.Cmplt, a, lit, at), false)
      | Op.Lt, true -> (A.Intop (A.Cmpult, a, lit, at), true)
      | Op.Le, true -> (A.Intop (A.Cmpule, a, lit, at), true)
      | Op.Gt, true -> (A.Intop (A.Cmpule, a, lit, at), false)
      | Op.Ge, true -> (A.Intop (A.Cmpult, a, lit, at), false)
      | Op.Eq, _ -> (A.Intop (A.Cmpeq, a, lit, at), true)
      | Op.Ne, _ -> (A.Intop (A.Cmpeq, a, lit, at), false)
    in
    e g cmp;
    emit_branch_to g ~mk:(fun d -> if on_true then A.Bne (at, d) else A.Beq (at, d)) lab
  end
  else begin
    emit_const g mr_b (Int64.of_int imm);
    branch g c t rs1 (Reg.R mr_b) lab
  end

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)

let cvt g ~(from : Vtype.t) ~(to_ : Vtype.t) rd rs =
  Gen.note_write g rd;
  Gen.count_insn g Opk.cvt;
  if (not (Vtype.is_float from)) && not (Vtype.is_float to_) then begin
    (* word-class conversions: adjust the 32/64-bit representation *)
    let d = rnum rd and s = rnum rs in
    match (from, to_) with
    | Vtype.U, (Vtype.L | Vtype.UL | Vtype.P) -> zext32_into g d s
    | (Vtype.L | Vtype.UL | Vtype.P), (Vtype.I | Vtype.U) ->
      e g (A.Intop (A.Addl, s, A.L 0, d))
    | _ -> e g (A.Intop (A.Bis, s, A.R s, d))
  end
  else
    match (from, to_) with
    | (Vtype.I | Vtype.L), (Vtype.F | Vtype.D) ->
      e g (A.Stq (rnum rs, sp, xfer));
      e g (A.Ldt (fscratch, sp, xfer));
      e g (A.Fpop ((if to_ = Vtype.F then A.Cvtqs else A.Cvtqt), zero, fscratch, rnum rd))
    | (Vtype.U | Vtype.UL), Vtype.D ->
      (if from = Vtype.U then begin
         zext32_into g at (rnum rs);
         e g (A.Stq (at, sp, xfer))
       end
       else e g (A.Stq (rnum rs, sp, xfer)));
      e g (A.Ldt (fscratch, sp, xfer));
      e g (A.Fpop (A.Cvtqt, zero, fscratch, rnum rd))
    | (Vtype.F | Vtype.D), (Vtype.I | Vtype.L) ->
      e g (A.Fpop (A.Cvttq, zero, rnum rs, fscratch));
      e g (A.Stt (fscratch, sp, xfer));
      e g (A.Ldq (rnum rd, sp, xfer));
      if to_ = Vtype.I then sext32_reg g (rnum rd)
    | Vtype.F, Vtype.D -> e g (A.Fpop (A.Cpys, rnum rs, rnum rs, rnum rd))
    | Vtype.D, Vtype.F -> e g (A.Fpop (A.Cvtts, zero, rnum rs, rnum rd))
    | _ ->
      Verror.fail
        (Verror.Bad_type
           (Printf.sprintf "cv%s2%s" (Vtype.to_string from) (Vtype.to_string to_)))

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)

(* Put the effective address into a register when the offset is not
   encodable; returns (base reg, disp). *)
let mem_addr g base (off : Gen.offset) : int * int =
  match off with
  | Gen.Oimm i when fits16s i -> (rnum base, i)
  | Gen.Oimm i ->
    emit_const g at (Int64.of_int i);
    e g (A.Intop (A.Addq, at, A.R (rnum base), at));
    (at, 0)
  | Gen.Oreg r ->
    e g (A.Intop (A.Addq, rnum base, A.R (rnum r), at));
    (at, 0)

(* address into $at precisely (byte synthesis needs the low bits) *)
let addr_into_at g base (off : Gen.offset) =
  match off with
  | Gen.Oimm i when fits16s i -> e g (A.Lda (at, rnum base, i))
  | Gen.Oimm i ->
    emit_const g at (Int64.of_int i);
    e g (A.Intop (A.Addq, at, A.R (rnum base), at))
  | Gen.Oreg r -> e g (A.Intop (A.Addq, rnum base, A.R (rnum r), at))

let load_off g (t : Vtype.t) rd base off =
  match t with
  | Vtype.I | Vtype.U ->
    let b, o = mem_addr g base off in
    e g (A.Ldl (rnum rd, b, o))
  | Vtype.L | Vtype.UL | Vtype.P ->
    let b, o = mem_addr g base off in
    e g (A.Ldq (rnum rd, b, o))
  | Vtype.F ->
    let b, o = mem_addr g base off in
    e g (A.Lds (rnum rd, b, o))
  | Vtype.D ->
    let b, o = mem_addr g base off in
    e g (A.Ldt (rnum rd, b, o))
  | Vtype.UC ->
    (* paper section 6.2: synthesized byte load *)
    addr_into_at g base off;
    e g (A.Ldq_u (mr_q, at, 0));
    e g (A.Intop (A.Extbl, mr_q, A.R at, rnum rd))
  | Vtype.C ->
    addr_into_at g base off;
    e g (A.Ldq_u (mr_q, at, 0));
    e g (A.Intop (A.Extbl, mr_q, A.R at, rnum rd));
    e g (A.Intop (A.Sll, rnum rd, A.L 56, rnum rd));
    e g (A.Intop (A.Sra, rnum rd, A.L 56, rnum rd))
  | Vtype.US ->
    addr_into_at g base off;
    e g (A.Ldq_u (mr_q, at, 0));
    e g (A.Intop (A.Extwl, mr_q, A.R at, rnum rd))
  | Vtype.S ->
    addr_into_at g base off;
    e g (A.Ldq_u (mr_q, at, 0));
    e g (A.Intop (A.Extwl, mr_q, A.R at, rnum rd));
    e g (A.Intop (A.Sll, rnum rd, A.L 48, rnum rd));
    e g (A.Intop (A.Sra, rnum rd, A.L 48, rnum rd))
  | Vtype.V -> Verror.fail (Verror.Bad_type "ld.v")

let store_off g (t : Vtype.t) rv base off =
  match t with
  | Vtype.I | Vtype.U ->
    let b, o = mem_addr g base off in
    e g (A.Stl (rnum rv, b, o))
  | Vtype.L | Vtype.UL | Vtype.P ->
    let b, o = mem_addr g base off in
    e g (A.Stq (rnum rv, b, o))
  | Vtype.F ->
    let b, o = mem_addr g base off in
    e g (A.Sts (rnum rv, b, o))
  | Vtype.D ->
    let b, o = mem_addr g base off in
    e g (A.Stt (rnum rv, b, o))
  | Vtype.C | Vtype.UC ->
    (* the eleven-instruction worst case of section 6.2 *)
    addr_into_at g base off;
    e g (A.Ldq_u (mr_q, at, 0));
    e g (A.Intop (A.Insbl, rnum rv, A.R at, mr_b));
    e g (A.Intop (A.Mskbl, mr_q, A.R at, mr_q));
    e g (A.Intop (A.Bis, mr_q, A.R mr_b, mr_q));
    e g (A.Stq_u (mr_q, at, 0))
  | Vtype.S | Vtype.US ->
    addr_into_at g base off;
    e g (A.Ldq_u (mr_q, at, 0));
    e g (A.Intop (A.Inswl, rnum rv, A.R at, mr_b));
    e g (A.Intop (A.Mskwl, mr_q, A.R at, mr_q));
    e g (A.Intop (A.Bis, mr_q, A.R mr_b, mr_q));
    e g (A.Stq_u (mr_q, at, 0))
  | Vtype.V -> Verror.fail (Verror.Bad_type "st.v")

(* The Target.S imm/reg-specialized memory entry points.  The sub-word
   synthesis above keeps the offset-dispatch form internally; the split
   matters for ports on the allocation-free fast path (MIPS). *)
let load_imm g t rd base off = Gen.note_write g rd; Gen.count_insn g Opk.ld; load_off g t rd base (Gen.Oimm off)
let load_reg g t rd base idx = Gen.note_write g rd; Gen.count_insn g Opk.ld; load_off g t rd base (Gen.Oreg idx)
let store_imm g t rv base off = Gen.count_insn g Opk.st; store_off g t rv base (Gen.Oimm off)
let store_reg g t rv base idx = Gen.count_insn g Opk.st; store_off g t rv base (Gen.Oreg idx)

(* ------------------------------------------------------------------ *)
(* Control                                                             *)

let jump g (t : Gen.jtarget) =
  match t with
  | Gen.Jlabel lab ->
    let site = Codebuf.length g.Gen.buf in
    e g (A.Br (zero, 0));
    Gen.add_reloc g ~site ~lab ~kind:k_branch
  | Gen.Jaddr a ->
    emit_const g at (Int64.of_int a);
    e g (A.Jmp (zero, at))
  | Gen.Jreg r -> e g (A.Jmp (zero, rnum r))

let jal g (t : Gen.jtarget) =
  match t with
  | Gen.Jlabel lab ->
    let site = Codebuf.length g.Gen.buf in
    e g (A.Bsr (ra, 0));
    Gen.add_reloc g ~site ~lab ~kind:k_branch
  | Gen.Jaddr a ->
    emit_const g mr_q (Int64.of_int a);
    e g (A.Jsr (ra, mr_q))
  | Gen.Jreg r -> e g (A.Jsr (ra, rnum r))

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
          | Vtype.F -> A.Lds (r, sp, off)
          | Vtype.D -> A.Ldt (r, sp, off)
          | Vtype.I | Vtype.U -> A.Ldl (r, sp, off)
          | _ -> A.Ldq (r, sp, off)));
    store =
      (fun (t : Vtype.t) r off ->
        A.encode
          (match t with
          | Vtype.F -> A.Sts (r, sp, off)
          | Vtype.D -> A.Stt (r, sp, off)
          | _ -> A.Stq (r, sp, off)));
    adjust = (fun n -> A.encode (A.Lda (sp, sp, n)));
    ra_save = [ A.encode (A.Stq (ra, sp, ra_slot)) ];
    ra_restore = [ A.encode (A.Ldq (ra, sp, ra_slot)) ];
    ret = [ A.encode (A.Retj (zero, ra)) ];
    saves_at = save_base;
    fimms = (fun g -> place_fimms_hi_lo g ~hi_word:(fun hi -> A.encode (A.Ldah (at, zero, hi))));
    window = false;
  }

(* ------------------------------------------------------------------ *)
(* Calls and returns (the convention itself is [desc.conv])           *)

let move g (t : Vtype.t) rd rs =
  let d = rnum rd and s = rnum rs in
  e g (if Vtype.is_float t then A.Fpop (A.Cpys, s, s, d) else A.Intop (A.Bis, s, A.R s, d))

let lambda g tys = bind_params g ~reserve:reserve_words ~fill:A.nop_word tys

let ret g (t : Vtype.t) (r : Reg.t option) =
  ignore (move_ret g ~move t r);
  let site = Codebuf.length g.Gen.buf in
  e g (A.Br (zero, 0));
  Gen.add_reloc g ~site ~lab:g.Gen.epilogue_lab ~kind:k_retj

let do_call g target = jal g (place_call_args g frame ~move ~via:mr_q target)

let retval g t r = move_retval g ~move t r

let finish g =
  Port.finish g frame ~apply:(fun ~kind ~site ~dest ->
      let disp = dest - (site + 1) in
      if kind = k_branch || kind = k_retj then begin
        if disp < -0x100000 || disp > 0xFFFFF then
          Verror.fail (Verror.Range "branch displacement");
        let old = Codebuf.get g.Gen.buf site in
        Codebuf.set g.Gen.buf site ((old land lnot 0x1FFFFF) lor (disp land 0x1FFFFF))
      end
      else Verror.failf "unknown reloc kind %d" kind)

include Raw_hooks

(* Mirror of [arith_imm]'s single-instruction fast paths: operate-format
   instructions take an 8-bit zero-extended literal; shift counts are
   masked by the hardware. *)
let binop_imm_fits (op : Op.binop) imm =
  match op with
  | Op.Add | Op.Sub | Op.And | Op.Or | Op.Xor | Op.Mul -> fits_lit imm
  | Op.Lsh | Op.Rsh -> true
  | Op.Div | Op.Mod -> false

let disasm ~word ~addr = A.disasm ~addr word

let extra_insns =
  [
    ("sqrtt", fun g (rs : Reg.t array) -> e g (A.Fpop (A.Sqrtt, zero, rnum rs.(1), rnum rs.(0))));
    ("sqrts", fun g rs -> e g (A.Fpop (A.Sqrts, zero, rnum rs.(1), rnum rs.(0))));
    ("umulh", fun g rs -> e g (A.Intop (A.Umulh, rnum rs.(1), A.R (rnum rs.(2)), rnum rs.(0))));
    ("cmoveq", fun g rs -> e g (A.Intop (A.Cmoveq, rnum rs.(1), A.R (rnum rs.(2)), rnum rs.(0))));
  ]

let extra_imm_insns =
  [
    ("lda", fun g (rs : Reg.t array) imm -> e g (A.Lda (rnum rs.(0), rnum rs.(1), imm)));
    ("addq_lit", fun g rs imm -> e g (A.Intop (A.Addq, rnum rs.(1), A.L (imm land 0xFF), rnum rs.(0))));
  ]
