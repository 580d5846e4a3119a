(* Alpha (21064-era, pre-BWX) assembler: instruction type, bit-accurate
   encoding, decoder and disassembler.

   Formats (Alpha Architecture Handbook):
   - memory:        opcode(6) ra(5) rb(5) disp(16)
   - memory jump:   opcode 0x1A, ra, rb, hint(2) in bits 14-15
   - branch:        opcode(6) ra(5) disp(21)
   - operate:       opcode(6) ra(5) rb(5) 0 func(7) rc(5), or with an
                    8-bit literal when bit 12 is set
   - FP operate:    opcode(6) fa(5) fb(5) func(11) fc(5)

   This generation has no byte/word memory operations (the paper's
   section 6.2: VCODE synthesizes them from ldq_u/ext/ins/msk — the
   worst case it quotes is eleven instructions for an unsigned byte
   store) and no integer divide (synthesized via millicode, see
   {!Alpha_runtime}). *)

type lit = R of int | L of int (* register or 8-bit literal *)

type iop =
  | Addl | Addq | Subl | Subq
  | Cmpeq | Cmplt | Cmple | Cmpult | Cmpule
  | And | Bic | Bis | Ornot | Xor | Eqv
  | Cmoveq | Cmovne | Cmovlt | Cmovge
  | Sll | Srl | Sra
  | Extbl | Extwl | Insbl | Inswl | Mskbl | Mskwl
  | Mull | Mulq | Umulh

let iop_code = function
  | Addl -> (0x10, 0x00) | Addq -> (0x10, 0x20)
  | Subl -> (0x10, 0x09) | Subq -> (0x10, 0x29)
  | Cmpeq -> (0x10, 0x2D) | Cmplt -> (0x10, 0x4D) | Cmple -> (0x10, 0x6D)
  | Cmpult -> (0x10, 0x1D) | Cmpule -> (0x10, 0x3D)
  | And -> (0x11, 0x00) | Bic -> (0x11, 0x08) | Bis -> (0x11, 0x20)
  | Ornot -> (0x11, 0x28) | Xor -> (0x11, 0x40) | Eqv -> (0x11, 0x48)
  | Cmoveq -> (0x11, 0x24) | Cmovne -> (0x11, 0x26)
  | Cmovlt -> (0x11, 0x44) | Cmovge -> (0x11, 0x46)
  | Sll -> (0x12, 0x39) | Srl -> (0x12, 0x34) | Sra -> (0x12, 0x3C)
  | Extbl -> (0x12, 0x06) | Extwl -> (0x12, 0x16)
  | Insbl -> (0x12, 0x0B) | Inswl -> (0x12, 0x1B)
  | Mskbl -> (0x12, 0x02) | Mskwl -> (0x12, 0x12)
  | Mull -> (0x13, 0x00) | Mulq -> (0x13, 0x20) | Umulh -> (0x13, 0x30)

let iop_name = function
  | Addl -> "addl" | Addq -> "addq" | Subl -> "subl" | Subq -> "subq"
  | Cmpeq -> "cmpeq" | Cmplt -> "cmplt" | Cmple -> "cmple"
  | Cmpult -> "cmpult" | Cmpule -> "cmpule"
  | And -> "and" | Bic -> "bic" | Bis -> "bis" | Ornot -> "ornot"
  | Xor -> "xor" | Eqv -> "eqv"
  | Cmoveq -> "cmoveq" | Cmovne -> "cmovne" | Cmovlt -> "cmovlt" | Cmovge -> "cmovge"
  | Sll -> "sll" | Srl -> "srl" | Sra -> "sra"
  | Extbl -> "extbl" | Extwl -> "extwl" | Insbl -> "insbl" | Inswl -> "inswl"
  | Mskbl -> "mskbl" | Mskwl -> "mskwl"
  | Mull -> "mull" | Mulq -> "mulq" | Umulh -> "umulh"

type fop =
  | Adds | Addt | Subs | Subt | Muls | Mult | Divs | Divt
  | Cmpteq | Cmptlt | Cmptle
  | Cvtqs | Cvtqt | Cvttq | Cvtts
  | Cpys | Cpysn
  | Sqrts | Sqrtt

let fop_code = function
  | Adds -> (0x16, 0x080) | Addt -> (0x16, 0x0A0)
  | Subs -> (0x16, 0x081) | Subt -> (0x16, 0x0A1)
  | Muls -> (0x16, 0x082) | Mult -> (0x16, 0x0A2)
  | Divs -> (0x16, 0x083) | Divt -> (0x16, 0x0A3)
  | Cmpteq -> (0x16, 0x0A5) | Cmptlt -> (0x16, 0x0A6) | Cmptle -> (0x16, 0x0A7)
  | Cvtqs -> (0x16, 0x0BC) | Cvtqt -> (0x16, 0x0BE)
  | Cvttq -> (0x16, 0x0AF) | Cvtts -> (0x16, 0x2AC)
  | Cpys -> (0x17, 0x020) | Cpysn -> (0x17, 0x021)
  | Sqrts -> (0x14, 0x08B) | Sqrtt -> (0x14, 0x0AB)

let all_iops =
  [ Addl; Addq; Subl; Subq; Cmpeq; Cmplt; Cmple; Cmpult; Cmpule;
    And; Bic; Bis; Ornot; Xor; Eqv; Cmoveq; Cmovne; Cmovlt; Cmovge;
    Sll; Srl; Sra; Extbl; Extwl; Insbl; Inswl; Mskbl; Mskwl;
    Mull; Mulq; Umulh ]

let all_fops =
  [ Adds; Addt; Subs; Subt; Muls; Mult; Divs; Divt;
    Cmpteq; Cmptlt; Cmptle; Cvtqs; Cvtqt; Cvttq; Cvtts; Cpys; Cpysn;
    Sqrts; Sqrtt ]

let fop_name = function
  | Adds -> "adds" | Addt -> "addt" | Subs -> "subs" | Subt -> "subt"
  | Muls -> "muls" | Mult -> "mult" | Divs -> "divs" | Divt -> "divt"
  | Cmpteq -> "cmpteq" | Cmptlt -> "cmptlt" | Cmptle -> "cmptle"
  | Cvtqs -> "cvtqs" | Cvtqt -> "cvtqt" | Cvttq -> "cvttq" | Cvtts -> "cvtts"
  | Cpys -> "cpys" | Cpysn -> "cpysn"
  | Sqrts -> "sqrts" | Sqrtt -> "sqrtt"

type t =
  | Lda of int * int * int   (* ra, rb, disp: ra <- rb + sext(disp) *)
  | Ldah of int * int * int  (* ra <- rb + sext(disp) * 65536 *)
  | Ldl of int * int * int
  | Ldq of int * int * int
  | Ldq_u of int * int * int
  | Stl of int * int * int
  | Stq of int * int * int
  | Stq_u of int * int * int
  | Lds of int * int * int   (* fa, rb, disp *)
  | Ldt of int * int * int
  | Sts of int * int * int
  | Stt of int * int * int
  | Br of int * int          (* ra, disp21 *)
  | Bsr of int * int
  | Beq of int * int
  | Bne of int * int
  | Blt of int * int
  | Ble of int * int
  | Bgt of int * int
  | Bge of int * int
  | Fbeq of int * int
  | Fbne of int * int
  | Jmp of int * int         (* ra, rb *)
  | Jsr of int * int
  | Retj of int * int        (* ret: same semantics, different hint *)
  | Intop of iop * int * lit * int  (* ra, rb/lit, rc *)
  | Fpop of fop * int * int * int   (* fa, fb, fc *)

let reg_name n =
  if n = 31 then "$31"
  else if n = 30 then "$sp"
  else if n = 26 then "$ra"
  else if n = 28 then "$at"
  else Printf.sprintf "$%d" n

let freg_name n = Printf.sprintf "$f%d" (n land 31)

exception Bad_insn of int

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let mem ~op ~ra ~rb ~disp =
  (op lsl 26) lor (ra lsl 21) lor (rb lsl 16) lor (disp land 0xFFFF)

let bra ~op ~ra ~disp = (op lsl 26) lor (ra lsl 21) lor (disp land 0x1FFFFF)

let operate ~op ~ra ~rb ~func ~rc =
  match rb with
  | R r -> (op lsl 26) lor (ra lsl 21) lor (r lsl 16) lor (func lsl 5) lor rc
  | L v ->
    if v < 0 || v > 255 then raise (Bad_insn v);
    (op lsl 26) lor (ra lsl 21) lor (v lsl 13) lor (1 lsl 12) lor (func lsl 5) lor rc

let fpoperate ~op ~fa ~fb ~func ~fc =
  (op lsl 26) lor (fa lsl 21) lor (fb lsl 16) lor (func lsl 5) lor fc

let encode : t -> int = function
  | Lda (ra, rb, d) -> mem ~op:0x08 ~ra ~rb ~disp:d
  | Ldah (ra, rb, d) -> mem ~op:0x09 ~ra ~rb ~disp:d
  | Ldl (ra, rb, d) -> mem ~op:0x28 ~ra ~rb ~disp:d
  | Ldq (ra, rb, d) -> mem ~op:0x29 ~ra ~rb ~disp:d
  | Ldq_u (ra, rb, d) -> mem ~op:0x0B ~ra ~rb ~disp:d
  | Stl (ra, rb, d) -> mem ~op:0x2C ~ra ~rb ~disp:d
  | Stq (ra, rb, d) -> mem ~op:0x2D ~ra ~rb ~disp:d
  | Stq_u (ra, rb, d) -> mem ~op:0x0F ~ra ~rb ~disp:d
  | Lds (fa, rb, d) -> mem ~op:0x22 ~ra:fa ~rb ~disp:d
  | Ldt (fa, rb, d) -> mem ~op:0x23 ~ra:fa ~rb ~disp:d
  | Sts (fa, rb, d) -> mem ~op:0x26 ~ra:fa ~rb ~disp:d
  | Stt (fa, rb, d) -> mem ~op:0x27 ~ra:fa ~rb ~disp:d
  | Br (ra, d) -> bra ~op:0x30 ~ra ~disp:d
  | Bsr (ra, d) -> bra ~op:0x34 ~ra ~disp:d
  | Beq (ra, d) -> bra ~op:0x39 ~ra ~disp:d
  | Bne (ra, d) -> bra ~op:0x3D ~ra ~disp:d
  | Blt (ra, d) -> bra ~op:0x3A ~ra ~disp:d
  | Ble (ra, d) -> bra ~op:0x3B ~ra ~disp:d
  | Bgt (ra, d) -> bra ~op:0x3F ~ra ~disp:d
  | Bge (ra, d) -> bra ~op:0x3E ~ra ~disp:d
  | Fbeq (fa, d) -> bra ~op:0x31 ~ra:fa ~disp:d
  | Fbne (fa, d) -> bra ~op:0x35 ~ra:fa ~disp:d
  | Jmp (ra, rb) -> mem ~op:0x1A ~ra ~rb ~disp:0x0000
  | Jsr (ra, rb) -> mem ~op:0x1A ~ra ~rb ~disp:0x4000
  | Retj (ra, rb) -> mem ~op:0x1A ~ra ~rb ~disp:0x8000
  | Intop (o, ra, rb, rc) ->
    let op, func = iop_code o in
    operate ~op ~ra ~rb ~func ~rc
  | Fpop (o, fa, fb, fc) ->
    let op, func = fop_code o in
    fpoperate ~op ~fa ~fb ~func ~fc

let nop_word = encode (Intop (Bis, 31, R 31, 31))

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

let sext16 v = if v land 0x8000 <> 0 then v - 0x10000 else v
let sext21 v = if v land 0x100000 <> 0 then v - 0x200000 else v

(* The decoder's (opcode, function) -> operation tables, built once
   from [iop_code]/[fop_code]: operate opcodes 0x10-0x13 with a 7-bit
   function, FP opcodes 0x14-0x17 with an 11-bit one.  An unassigned
   pair holds [None]. *)
let iop_table =
  let t = Array.make (4 lsl 7) None in
  List.iter (fun o -> let op, func = iop_code o in t.(((op - 0x10) lsl 7) lor func) <- Some o)
    all_iops;
  t

let fop_table =
  let t = Array.make (4 lsl 11) None in
  List.iter (fun o -> let op, func = fop_code o in t.(((op - 0x14) lsl 11) lor func) <- Some o)
    all_fops;
  t

let decode (w : int) : t =
  let op = (w lsr 26) land 0x3F in
  let ra = (w lsr 21) land 31 in
  let rb = (w lsr 16) land 31 in
  let disp = sext16 (w land 0xFFFF) in
  let bdisp = sext21 (w land 0x1FFFFF) in
  match op with
  | 0x08 -> Lda (ra, rb, disp)
  | 0x09 -> Ldah (ra, rb, disp)
  | 0x28 -> Ldl (ra, rb, disp)
  | 0x29 -> Ldq (ra, rb, disp)
  | 0x0B -> Ldq_u (ra, rb, disp)
  | 0x2C -> Stl (ra, rb, disp)
  | 0x2D -> Stq (ra, rb, disp)
  | 0x0F -> Stq_u (ra, rb, disp)
  | 0x22 -> Lds (ra, rb, disp)
  | 0x23 -> Ldt (ra, rb, disp)
  | 0x26 -> Sts (ra, rb, disp)
  | 0x27 -> Stt (ra, rb, disp)
  | 0x30 -> Br (ra, bdisp)
  | 0x34 -> Bsr (ra, bdisp)
  | 0x39 -> Beq (ra, bdisp)
  | 0x3D -> Bne (ra, bdisp)
  | 0x3A -> Blt (ra, bdisp)
  | 0x3B -> Ble (ra, bdisp)
  | 0x3F -> Bgt (ra, bdisp)
  | 0x3E -> Bge (ra, bdisp)
  | 0x31 -> Fbeq (ra, bdisp)
  | 0x35 -> Fbne (ra, bdisp)
  | 0x1A -> (
    match (w lsr 14) land 3 with
    | 0 -> Jmp (ra, rb)
    | 1 -> Jsr (ra, rb)
    | 2 -> Retj (ra, rb)
    | _ -> raise (Bad_insn w))
  | 0x10 | 0x11 | 0x12 | 0x13 ->
    let func = (w lsr 5) land 0x7F in
    let rc = w land 31 in
    let rb_or_lit =
      if w land (1 lsl 12) <> 0 then L ((w lsr 13) land 0xFF) else R rb
    in
    (match Array.unsafe_get iop_table (((op - 0x10) lsl 7) lor func) with
    | Some o -> Intop (o, ra, rb_or_lit, rc)
    | None -> raise (Bad_insn w))
  | 0x14 | 0x16 | 0x17 ->
    let func = (w lsr 5) land 0x7FF in
    let fc = w land 31 in
    (match Array.unsafe_get fop_table (((op - 0x14) lsl 11) lor func) with
    | Some o -> Fpop (o, ra, rb, fc)
    | None -> raise (Bad_insn w))
  | _ -> raise (Bad_insn w)

(* ------------------------------------------------------------------ *)
(* Disassembly                                                         *)

let lit_str = function R r -> reg_name r | L v -> "#" ^ string_of_int v

let disasm ?(addr = 0) (w : int) : string =
  try
    match decode w with
    | Intop (Bis, 31, R 31, 31) -> "nop"
    | Lda (ra, rb, d) -> Printf.sprintf "lda %s, %d(%s)" (reg_name ra) d (reg_name rb)
    | Ldah (ra, rb, d) -> Printf.sprintf "ldah %s, %d(%s)" (reg_name ra) d (reg_name rb)
    | Ldl (ra, rb, d) -> Printf.sprintf "ldl %s, %d(%s)" (reg_name ra) d (reg_name rb)
    | Ldq (ra, rb, d) -> Printf.sprintf "ldq %s, %d(%s)" (reg_name ra) d (reg_name rb)
    | Ldq_u (ra, rb, d) -> Printf.sprintf "ldq_u %s, %d(%s)" (reg_name ra) d (reg_name rb)
    | Stl (ra, rb, d) -> Printf.sprintf "stl %s, %d(%s)" (reg_name ra) d (reg_name rb)
    | Stq (ra, rb, d) -> Printf.sprintf "stq %s, %d(%s)" (reg_name ra) d (reg_name rb)
    | Stq_u (ra, rb, d) -> Printf.sprintf "stq_u %s, %d(%s)" (reg_name ra) d (reg_name rb)
    | Lds (fa, rb, d) -> Printf.sprintf "lds %s, %d(%s)" (freg_name fa) d (reg_name rb)
    | Ldt (fa, rb, d) -> Printf.sprintf "ldt %s, %d(%s)" (freg_name fa) d (reg_name rb)
    | Sts (fa, rb, d) -> Printf.sprintf "sts %s, %d(%s)" (freg_name fa) d (reg_name rb)
    | Stt (fa, rb, d) -> Printf.sprintf "stt %s, %d(%s)" (freg_name fa) d (reg_name rb)
    | Br (ra, d) -> Printf.sprintf "br %s, 0x%x" (reg_name ra) (addr + 4 + (4 * d))
    | Bsr (ra, d) -> Printf.sprintf "bsr %s, 0x%x" (reg_name ra) (addr + 4 + (4 * d))
    | Beq (ra, d) -> Printf.sprintf "beq %s, 0x%x" (reg_name ra) (addr + 4 + (4 * d))
    | Bne (ra, d) -> Printf.sprintf "bne %s, 0x%x" (reg_name ra) (addr + 4 + (4 * d))
    | Blt (ra, d) -> Printf.sprintf "blt %s, 0x%x" (reg_name ra) (addr + 4 + (4 * d))
    | Ble (ra, d) -> Printf.sprintf "ble %s, 0x%x" (reg_name ra) (addr + 4 + (4 * d))
    | Bgt (ra, d) -> Printf.sprintf "bgt %s, 0x%x" (reg_name ra) (addr + 4 + (4 * d))
    | Bge (ra, d) -> Printf.sprintf "bge %s, 0x%x" (reg_name ra) (addr + 4 + (4 * d))
    | Fbeq (fa, d) -> Printf.sprintf "fbeq %s, 0x%x" (freg_name fa) (addr + 4 + (4 * d))
    | Fbne (fa, d) -> Printf.sprintf "fbne %s, 0x%x" (freg_name fa) (addr + 4 + (4 * d))
    | Jmp (ra, rb) -> Printf.sprintf "jmp %s, (%s)" (reg_name ra) (reg_name rb)
    | Jsr (ra, rb) -> Printf.sprintf "jsr %s, (%s)" (reg_name ra) (reg_name rb)
    | Retj (ra, rb) -> Printf.sprintf "ret %s, (%s)" (reg_name ra) (reg_name rb)
    | Intop (o, ra, rb, rc) ->
      Printf.sprintf "%s %s, %s, %s" (iop_name o) (reg_name ra) (lit_str rb) (reg_name rc)
    | Fpop (o, fa, fb, fc) ->
      Printf.sprintf "%s %s, %s, %s" (fop_name o) (freg_name fa) (freg_name fb) (freg_name fc)
  with Bad_insn _ -> Printf.sprintf ".word 0x%08x" w
