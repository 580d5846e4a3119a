(* MIPS-I simulator.

   Executes the binary code emitted by the VCODE MIPS port.  This is the
   execution substrate that replaces the paper's DECstation hardware: a
   little-endian R2000/R3000-style core with one branch delay slot, one
   load delay cycle, HI/LO multiply/divide results, 32 single-precision
   FP registers paired for doubles, and direct-mapped I/D caches with
   configurable miss penalties (see {!Vmachine.Mconfig}).

   Register values are OCaml ints holding sign-extended 32-bit values;
   every write goes through [sext32] so the invariant is maintained.
   Cycle accounting: 1 cycle per issued instruction, plus cache miss
   penalties, plus multi-cycle costs for mult/div and FP ops (rough R3000
   latencies). *)

open Vmachine
open Engine

type state = {
  regs : int array;   (* 32, sign-extended 32-bit *)
  fregs : int array;  (* 32, raw 32-bit patterns; doubles use even pairs *)
  mutable hi : int;
  mutable lo : int;
  mutable fcc : bool;
}

type m = (Mips_asm.t, state) machine

(* branchless sign-extension from bit 31 (OCaml ints are 63-bit, so the
   shift pair drops bits 32+ and replicates bit 31 upward) *)
let[@inline] sext32 v = (v lsl 31) asr 31

let u32 v = v land 0xFFFFFFFF

(* register numbers come out of [Mips_asm.decode] masked to 5 bits, so
   the array bounds check is dead weight on the per-step path *)
let[@inline] set_reg s r v = if r <> 0 then Array.unsafe_set s.regs r (sext32 v)
let[@inline] rget s n = Array.unsafe_get s.regs n

(* Doubles live in even/odd pairs, low word in the even register
   (little-endian pairing). *)
let get_double s f =
  let lo = s.fregs.(f) land 0xFFFFFFFF and hi = s.fregs.(f + 1) land 0xFFFFFFFF in
  Int64.float_of_bits
    (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))

let set_double s f v =
  let bits = Int64.bits_of_float v in
  s.fregs.(f) <- Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
  s.fregs.(f + 1) <- Int64.to_int (Int64.logand (Int64.shift_right_logical bits 32) 0xFFFFFFFFL)

let get_single s f = Int32.float_of_bits (Int32.of_int s.fregs.(f))
let set_single s f v = s.fregs.(f) <- Int32.to_int (Int32.bits_of_float v) land 0xFFFFFFFF

let get_fmt s fmt f =
  match fmt with
  | Mips_asm.FS -> get_single s f
  | Mips_asm.FD -> get_double s f
  | Mips_asm.FW -> float_of_int (sext32 s.fregs.(f))

let set_fmt s fmt f v =
  match fmt with
  | Mips_asm.FS -> set_single s f v
  | Mips_asm.FD -> set_double s f v
  | Mips_asm.FW -> s.fregs.(f) <- u32 (int_of_float v)

(* a J/Jal target: the 256 MB region of the delay slot *)
let[@inline] j_target pc t = (u32 (pc + 4) land 0xF0000000) lor (t * 4)

let[@inline] branch m pc off taken =
  if taken then m.btarget <- pc + 4 + (4 * off)

let decode mem pc =
  let w = Mem.read_u32 mem pc in
  try Mips_asm.decode w with Mips_asm.Bad_insn _ -> illegal w pc

(* Execute the instruction at [m.pc]; updates pc/npc.  The engine has
   already counted it and made its icache timing access: doing that in
   the small run loop rather than in this large function keeps its
   register pressure out of every arm. *)
let step_inner (m : m) =
  let pc = m.pc in
  let insn = match cached m pc with Some i -> i | None -> remember m pc (decode m.mem pc) in
  let s = m.st in
  let next = m.npc in
  m.btarget <- next + 4;
  (match insn with
  | Nop -> ()
  | Sll (rd, rt, sh) -> set_reg s rd (rget s rt lsl sh)
  | Srl (rd, rt, sh) -> set_reg s rd (u32 (rget s rt) lsr sh)
  | Sra (rd, rt, sh) -> set_reg s rd (rget s rt asr sh)
  | Sllv (rd, rt, rs) -> set_reg s rd (rget s rt lsl (rget s rs land 31))
  | Srlv (rd, rt, rs) -> set_reg s rd (u32 (rget s rt) lsr (rget s rs land 31))
  | Srav (rd, rt, rs) -> set_reg s rd (rget s rt asr (rget s rs land 31))
  | Jr rs -> m.btarget <- u32 (rget s rs)
  | Jalr (rd, rs) ->
    set_reg s rd (pc + 8);
    m.btarget <- u32 (rget s rs)
  | Mfhi rd -> set_reg s rd s.hi
  | Mflo rd -> set_reg s rd s.lo
  | Mult (rs, rt) ->
    m.cycles <- m.cycles + 11;
    let p = Int64.mul (Int64.of_int (rget s rs)) (Int64.of_int (rget s rt)) in
    s.lo <- sext32 (Int64.to_int (Int64.logand p 0xFFFFFFFFL));
    s.hi <- sext32 (Int64.to_int (Int64.logand (Int64.shift_right_logical p 32) 0xFFFFFFFFL))
  | Multu (rs, rt) ->
    m.cycles <- m.cycles + 11;
    let p = Int64.mul (Int64.of_int (u32 (rget s rs))) (Int64.of_int (u32 (rget s rt))) in
    s.lo <- sext32 (Int64.to_int (Int64.logand p 0xFFFFFFFFL));
    s.hi <- sext32 (Int64.to_int (Int64.logand (Int64.shift_right_logical p 32) 0xFFFFFFFFL))
  | Div (rs, rt) ->
    m.cycles <- m.cycles + 34;
    let a = rget s rs and b = rget s rt in
    if b = 0 then begin s.lo <- 0; s.hi <- 0 end
    else begin
      (* C-style truncating division *)
      let q = if (a < 0) <> (b < 0) then -(abs a / abs b) else abs a / abs b in
      let rm = a - (q * b) in
      s.lo <- sext32 q;
      s.hi <- sext32 rm
    end
  | Divu (rs, rt) ->
    m.cycles <- m.cycles + 34;
    let a = u32 (rget s rs) and b = u32 (rget s rt) in
    if b = 0 then begin s.lo <- 0; s.hi <- 0 end
    else begin
      s.lo <- sext32 (a / b);
      s.hi <- sext32 (a mod b)
    end
  | Addu (rd, rs, rt) -> set_reg s rd (rget s rs + rget s rt)
  | Subu (rd, rs, rt) -> set_reg s rd (rget s rs - rget s rt)
  | And (rd, rs, rt) -> set_reg s rd (rget s rs land rget s rt)
  | Or (rd, rs, rt) -> set_reg s rd (rget s rs lor rget s rt)
  | Xor (rd, rs, rt) -> set_reg s rd (rget s rs lxor rget s rt)
  | Nor (rd, rs, rt) -> set_reg s rd (lnot (rget s rs lor rget s rt))
  | Slt (rd, rs, rt) -> set_reg s rd (if rget s rs < rget s rt then 1 else 0)
  | Sltu (rd, rs, rt) -> set_reg s rd (if u32 (rget s rs) < u32 (rget s rt) then 1 else 0)
  | Addiu (rt, rs, i) -> set_reg s rt (rget s rs + i)
  | Slti (rt, rs, i) -> set_reg s rt (if rget s rs < i then 1 else 0)
  | Sltiu (rt, rs, i) -> set_reg s rt (if u32 (rget s rs) < u32 (sext32 i) then 1 else 0)
  | Andi (rt, rs, i) -> set_reg s rt (rget s rs land i)
  | Ori (rt, rs, i) -> set_reg s rt (rget s rs lor i)
  | Xori (rt, rs, i) -> set_reg s rt (rget s rs lxor i)
  | Lui (rt, i) -> set_reg s rt (i lsl 16)
  | J t -> m.btarget <- j_target pc t
  | Jal t ->
    set_reg s 31 (pc + 8);
    m.btarget <- j_target pc t
  | Beq (rs, rt, off) -> branch m pc off (rget s rs = rget s rt)
  | Bne (rs, rt, off) -> branch m pc off (rget s rs <> rget s rt)
  | Blez (rs, off) -> branch m pc off (rget s rs <= 0)
  | Bgtz (rs, off) -> branch m pc off (rget s rs > 0)
  | Bltz (rs, off) -> branch m pc off (rget s rs < 0)
  | Bgez (rs, off) -> branch m pc off (rget s rs >= 0)
  | Lb (rt, b, o) ->
    let a = u32 (rget s b) + o in
    daccess m a;
    let v = Mem.read_u8 m.mem a in
    set_reg s rt (if v land 0x80 <> 0 then v - 0x100 else v)
  | Lbu (rt, b, o) ->
    let a = u32 (rget s b) + o in
    daccess m a;
    set_reg s rt (Mem.read_u8 m.mem a)
  | Lh (rt, b, o) ->
    let a = u32 (rget s b) + o in
    daccess m a;
    let v = Mem.read_u16 m.mem a in
    set_reg s rt (if v land 0x8000 <> 0 then v - 0x10000 else v)
  | Lhu (rt, b, o) ->
    let a = u32 (rget s b) + o in
    daccess m a;
    set_reg s rt (Mem.read_u16 m.mem a)
  | Lw (rt, b, o) ->
    let a = u32 (rget s b) + o in
    daccess m a;
    set_reg s rt (Mem.read_u32 m.mem a)
  | Sb (rt, b, o) ->
    let a = u32 (rget s b) + o in
    waccess m a;
    Mem.write_u8 m.mem a (rget s rt)
  | Sh (rt, b, o) ->
    let a = u32 (rget s b) + o in
    waccess m a;
    Mem.write_u16 m.mem a (rget s rt)
  | Sw (rt, b, o) ->
    let a = u32 (rget s b) + o in
    waccess m a;
    Mem.write_u32 m.mem a (u32 (rget s rt))
  | Lwc1 (ft, b, o) ->
    let a = u32 (rget s b) + o in
    daccess m a;
    s.fregs.(ft) <- Mem.read_u32 m.mem a
  | Swc1 (ft, b, o) ->
    let a = u32 (rget s b) + o in
    waccess m a;
    Mem.write_u32 m.mem a s.fregs.(ft)
  | Ldc1 (ft, b, o) ->
    let a = u32 (rget s b) + o in
    daccess m a;
    s.fregs.(ft) <- Mem.read_u32 m.mem a;
    s.fregs.(ft + 1) <- Mem.read_u32 m.mem (a + 4)
  | Sdc1 (ft, b, o) ->
    let a = u32 (rget s b) + o in
    waccess m a;
    Mem.write_u32 m.mem a s.fregs.(ft);
    Mem.write_u32 m.mem (a + 4) s.fregs.(ft + 1)
  | Mtc1 (rt, fs) -> s.fregs.(fs) <- u32 (rget s rt)
  | Mfc1 (rt, fs) -> set_reg s rt s.fregs.(fs)
  | Fadd (fmt, fd, fs, ft) ->
    m.cycles <- m.cycles + 1;
    set_fmt s fmt fd (get_fmt s fmt fs +. get_fmt s fmt ft)
  | Fsub (fmt, fd, fs, ft) ->
    m.cycles <- m.cycles + 1;
    set_fmt s fmt fd (get_fmt s fmt fs -. get_fmt s fmt ft)
  | Fmul (fmt, fd, fs, ft) ->
    m.cycles <- m.cycles + (match fmt with FS -> 3 | _ -> 4);
    set_fmt s fmt fd (get_fmt s fmt fs *. get_fmt s fmt ft)
  | Fdiv (fmt, fd, fs, ft) ->
    m.cycles <- m.cycles + (match fmt with FS -> 11 | _ -> 18);
    set_fmt s fmt fd (get_fmt s fmt fs /. get_fmt s fmt ft)
  | Fsqrt (fmt, fd, fs) ->
    m.cycles <- m.cycles + (match fmt with FS -> 13 | _ -> 25);
    set_fmt s fmt fd (sqrt (get_fmt s fmt fs))
  | Fabs (fmt, fd, fs) -> set_fmt s fmt fd (abs_float (get_fmt s fmt fs))
  | Fmov (fmt, fd, fs) -> (
    match fmt with
    | FS | FW -> s.fregs.(fd) <- s.fregs.(fs)
    | FD ->
      s.fregs.(fd) <- s.fregs.(fs);
      s.fregs.(fd + 1) <- s.fregs.(fs + 1))
  | Fneg (fmt, fd, fs) -> set_fmt s fmt fd (-.get_fmt s fmt fs)
  | Truncw (fmt, fd, fs) ->
    let v = get_fmt s fmt fs in
    s.fregs.(fd) <- u32 (int_of_float (Float.trunc v))
  | Cvt (to_, from, fd, fs) ->
    let v = get_fmt s from fs in
    set_fmt s to_ fd v
  | Fcmp (c, fmt, fs, ft) ->
    let a = get_fmt s fmt fs and b = get_fmt s fmt ft in
    s.fcc <- (match c with CEq -> a = b | CLt -> a < b | CLe -> a <= b)
  | Bc1t off -> branch m pc off s.fcc
  | Bc1f off -> branch m pc off (not s.fcc)
  | Break code -> raise (Machine_error (Printf.sprintf "break %d at 0x%x" code pc)));
  m.pc <- next;
  m.npc <- m.btarget

(* ------------------------------------------------------------------ *)
(* Compiled closures for the engine's superblocks and regions: each one
   replicates its [step_inner] arm exactly — same arithmetic, same
   memory-access order, same cycle surcharges — so a compiled run
   retires with the same architectural state and timing as the
   interpreter. *)

(* Compiled action for one *body* (non-control) instruction; [None]
   when the instruction terminates a block (branches/jumps compile via
   [term_of]; Break never compiles, so the interpreter raises on it).
   Store closures test the block cache's dirty flag after writing: a
   store that invalidated a resident block — possibly the very one
   running — aborts the rest of the run with [Block_cache.Retired]. *)
let act_of (m : m) (insn : Mips_asm.t) : (unit -> unit) option =
  let s = m.st in
  match insn with
  | Nop -> Some (fun () -> ())
  | Sll (rd, rt, sh) -> Some (fun () -> set_reg s rd (rget s rt lsl sh))
  | Srl (rd, rt, sh) -> Some (fun () -> set_reg s rd (u32 (rget s rt) lsr sh))
  | Sra (rd, rt, sh) -> Some (fun () -> set_reg s rd (rget s rt asr sh))
  | Sllv (rd, rt, rs) -> Some (fun () -> set_reg s rd (rget s rt lsl (rget s rs land 31)))
  | Srlv (rd, rt, rs) -> Some (fun () -> set_reg s rd (u32 (rget s rt) lsr (rget s rs land 31)))
  | Srav (rd, rt, rs) -> Some (fun () -> set_reg s rd (rget s rt asr (rget s rs land 31)))
  | Mfhi rd -> Some (fun () -> set_reg s rd s.hi)
  | Mflo rd -> Some (fun () -> set_reg s rd s.lo)
  | Mult (rs, rt) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 11;
        let p = Int64.mul (Int64.of_int (rget s rs)) (Int64.of_int (rget s rt)) in
        s.lo <- sext32 (Int64.to_int (Int64.logand p 0xFFFFFFFFL));
        s.hi <- sext32 (Int64.to_int (Int64.logand (Int64.shift_right_logical p 32) 0xFFFFFFFFL)))
  | Multu (rs, rt) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 11;
        let p = Int64.mul (Int64.of_int (u32 (rget s rs))) (Int64.of_int (u32 (rget s rt))) in
        s.lo <- sext32 (Int64.to_int (Int64.logand p 0xFFFFFFFFL));
        s.hi <- sext32 (Int64.to_int (Int64.logand (Int64.shift_right_logical p 32) 0xFFFFFFFFL)))
  | Div (rs, rt) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 34;
        let a = rget s rs and b = rget s rt in
        if b = 0 then begin s.lo <- 0; s.hi <- 0 end
        else begin
          let q = if (a < 0) <> (b < 0) then -(abs a / abs b) else abs a / abs b in
          let rm = a - (q * b) in
          s.lo <- sext32 q;
          s.hi <- sext32 rm
        end)
  | Divu (rs, rt) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 34;
        let a = u32 (rget s rs) and b = u32 (rget s rt) in
        if b = 0 then begin s.lo <- 0; s.hi <- 0 end
        else begin
          s.lo <- sext32 (a / b);
          s.hi <- sext32 (a mod b)
        end)
  | Addu (rd, rs, rt) -> Some (fun () -> set_reg s rd (rget s rs + rget s rt))
  | Subu (rd, rs, rt) -> Some (fun () -> set_reg s rd (rget s rs - rget s rt))
  | And (rd, rs, rt) -> Some (fun () -> set_reg s rd (rget s rs land rget s rt))
  | Or (rd, rs, rt) -> Some (fun () -> set_reg s rd (rget s rs lor rget s rt))
  | Xor (rd, rs, rt) -> Some (fun () -> set_reg s rd (rget s rs lxor rget s rt))
  | Nor (rd, rs, rt) -> Some (fun () -> set_reg s rd (lnot (rget s rs lor rget s rt)))
  | Slt (rd, rs, rt) -> Some (fun () -> set_reg s rd (if rget s rs < rget s rt then 1 else 0))
  | Sltu (rd, rs, rt) ->
    Some (fun () -> set_reg s rd (if u32 (rget s rs) < u32 (rget s rt) then 1 else 0))
  | Addiu (rt, rs, i) -> Some (fun () -> set_reg s rt (rget s rs + i))
  | Slti (rt, rs, i) -> Some (fun () -> set_reg s rt (if rget s rs < i then 1 else 0))
  | Sltiu (rt, rs, i) ->
    Some (fun () -> set_reg s rt (if u32 (rget s rs) < u32 (sext32 i) then 1 else 0))
  | Andi (rt, rs, i) -> Some (fun () -> set_reg s rt (rget s rs land i))
  | Ori (rt, rs, i) -> Some (fun () -> set_reg s rt (rget s rs lor i))
  | Xori (rt, rs, i) -> Some (fun () -> set_reg s rt (rget s rs lxor i))
  | Lui (rt, i) -> Some (fun () -> set_reg s rt (i lsl 16))
  | Lb (rt, b, o) ->
    Some
      (fun () ->
        let a = u32 (rget s b) + o in
        daccess m a;
        let v = Mem.read_u8 m.mem a in
        set_reg s rt (if v land 0x80 <> 0 then v - 0x100 else v))
  | Lbu (rt, b, o) ->
    Some
      (fun () ->
        let a = u32 (rget s b) + o in
        daccess m a;
        set_reg s rt (Mem.read_u8 m.mem a))
  | Lh (rt, b, o) ->
    Some
      (fun () ->
        let a = u32 (rget s b) + o in
        daccess m a;
        let v = Mem.read_u16 m.mem a in
        set_reg s rt (if v land 0x8000 <> 0 then v - 0x10000 else v))
  | Lhu (rt, b, o) ->
    Some
      (fun () ->
        let a = u32 (rget s b) + o in
        daccess m a;
        set_reg s rt (Mem.read_u16 m.mem a))
  | Lw (rt, b, o) ->
    Some
      (fun () ->
        let a = u32 (rget s b) + o in
        daccess m a;
        set_reg s rt (Mem.read_u32 m.mem a))
  | Sb (rt, b, o) ->
    Some
      (fun () ->
        let a = u32 (rget s b) + o in
        waccess m a;
        Mem.write_u8 m.mem a (rget s rt);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | Sh (rt, b, o) ->
    Some
      (fun () ->
        let a = u32 (rget s b) + o in
        waccess m a;
        Mem.write_u16 m.mem a (rget s rt);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | Sw (rt, b, o) ->
    Some
      (fun () ->
        let a = u32 (rget s b) + o in
        waccess m a;
        Mem.write_u32 m.mem a (u32 (rget s rt));
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | Lwc1 (ft, b, o) ->
    Some
      (fun () ->
        let a = u32 (rget s b) + o in
        daccess m a;
        s.fregs.(ft) <- Mem.read_u32 m.mem a)
  | Swc1 (ft, b, o) ->
    Some
      (fun () ->
        let a = u32 (rget s b) + o in
        waccess m a;
        Mem.write_u32 m.mem a s.fregs.(ft);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | Ldc1 (ft, b, o) ->
    Some
      (fun () ->
        let a = u32 (rget s b) + o in
        daccess m a;
        s.fregs.(ft) <- Mem.read_u32 m.mem a;
        s.fregs.(ft + 1) <- Mem.read_u32 m.mem (a + 4))
  | Sdc1 (ft, b, o) ->
    Some
      (fun () ->
        let a = u32 (rget s b) + o in
        waccess m a;
        Mem.write_u32 m.mem a s.fregs.(ft);
        Mem.write_u32 m.mem (a + 4) s.fregs.(ft + 1);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | Mtc1 (rt, fs) -> Some (fun () -> s.fregs.(fs) <- u32 (rget s rt))
  | Mfc1 (rt, fs) -> Some (fun () -> set_reg s rt s.fregs.(fs))
  | Fadd (fmt, fd, fs, ft) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 1;
        set_fmt s fmt fd (get_fmt s fmt fs +. get_fmt s fmt ft))
  | Fsub (fmt, fd, fs, ft) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 1;
        set_fmt s fmt fd (get_fmt s fmt fs -. get_fmt s fmt ft))
  | Fmul (fmt, fd, fs, ft) ->
    let c = match fmt with Mips_asm.FS -> 3 | _ -> 4 in
    Some
      (fun () ->
        m.cycles <- m.cycles + c;
        set_fmt s fmt fd (get_fmt s fmt fs *. get_fmt s fmt ft))
  | Fdiv (fmt, fd, fs, ft) ->
    let c = match fmt with Mips_asm.FS -> 11 | _ -> 18 in
    Some
      (fun () ->
        m.cycles <- m.cycles + c;
        set_fmt s fmt fd (get_fmt s fmt fs /. get_fmt s fmt ft))
  | Fsqrt (fmt, fd, fs) ->
    let c = match fmt with Mips_asm.FS -> 13 | _ -> 25 in
    Some
      (fun () ->
        m.cycles <- m.cycles + c;
        set_fmt s fmt fd (sqrt (get_fmt s fmt fs)))
  | Fabs (fmt, fd, fs) -> Some (fun () -> set_fmt s fmt fd (abs_float (get_fmt s fmt fs)))
  | Fmov (fmt, fd, fs) -> (
    match fmt with
    | FS | FW -> Some (fun () -> s.fregs.(fd) <- s.fregs.(fs))
    | FD ->
      Some
        (fun () ->
          s.fregs.(fd) <- s.fregs.(fs);
          s.fregs.(fd + 1) <- s.fregs.(fs + 1)))
  | Fneg (fmt, fd, fs) -> Some (fun () -> set_fmt s fmt fd (-.get_fmt s fmt fs))
  | Truncw (fmt, fd, fs) ->
    Some
      (fun () ->
        let v = get_fmt s fmt fs in
        s.fregs.(fd) <- u32 (int_of_float (Float.trunc v)))
  | Cvt (to_, from, fd, fs) -> Some (fun () -> set_fmt s to_ fd (get_fmt s from fs))
  | Fcmp (c, fmt, fs, ft) ->
    Some
      (match c with
      | CEq -> fun () -> s.fcc <- get_fmt s fmt fs = get_fmt s fmt ft
      | CLt -> fun () -> s.fcc <- get_fmt s fmt fs < get_fmt s fmt ft
      | CLe -> fun () -> s.fcc <- get_fmt s fmt fs <= get_fmt s fmt ft)
  | Jr _ | Jalr _ | J _ | Jal _ | Beq _ | Bne _ | Blez _ | Bgtz _ | Bltz _ | Bgez _
  | Bc1t _ | Bc1f _ | Break _ ->
    None

(* Compiled closure for a block *terminator* at address [pc]: leaves
   the control-transfer target in [m.btarget] (fallthrough [pc + 8] for
   an untaken branch) — exactly the interpreter's btarget discipline.
   The delay-slot action runs next and the block commit moves
   btarget into pc. *)
let term_of (m : m) pc (insn : Mips_asm.t) : (unit -> unit) option =
  let s = m.st in
  let ft = pc + 8 in
  match insn with
  | Jr rs -> Some (fun () -> m.btarget <- u32 (rget s rs))
  | Jalr (rd, rs) ->
    Some
      (fun () ->
        set_reg s rd (pc + 8);
        m.btarget <- u32 (rget s rs))
  | J t ->
    let tgt = j_target pc t in
    Some (fun () -> m.btarget <- tgt)
  | Jal t ->
    let tgt = j_target pc t in
    Some
      (fun () ->
        set_reg s 31 (pc + 8);
        m.btarget <- tgt)
  | Beq (rs, rt, off) ->
    let tk = pc + 4 + (4 * off) in
    Some (fun () -> m.btarget <- (if rget s rs = rget s rt then tk else ft))
  | Bne (rs, rt, off) ->
    let tk = pc + 4 + (4 * off) in
    Some (fun () -> m.btarget <- (if rget s rs <> rget s rt then tk else ft))
  | Blez (rs, off) ->
    let tk = pc + 4 + (4 * off) in
    Some (fun () -> m.btarget <- (if rget s rs <= 0 then tk else ft))
  | Bgtz (rs, off) ->
    let tk = pc + 4 + (4 * off) in
    Some (fun () -> m.btarget <- (if rget s rs > 0 then tk else ft))
  | Bltz (rs, off) ->
    let tk = pc + 4 + (4 * off) in
    Some (fun () -> m.btarget <- (if rget s rs < 0 then tk else ft))
  | Bgez (rs, off) ->
    let tk = pc + 4 + (4 * off) in
    Some (fun () -> m.btarget <- (if rget s rs >= 0 then tk else ft))
  | Bc1t off ->
    let tk = pc + 4 + (4 * off) in
    Some (fun () -> m.btarget <- (if s.fcc then tk else ft))
  | Bc1f off ->
    let tk = pc + 4 + (4 * off) in
    Some (fun () -> m.btarget <- (if not s.fcc then tk else ft))
  | _ -> None

(* Only closures for these instructions can raise: a memory fault from
   a load/store, or [Block_cache.Retired] from a store that invalidated
   a resident block.  Everything else [act_of] compiles is pure OCaml
   arithmetic that cannot raise (the division arms are zero-guarded),
   and MIPS terminators only write [m.btarget]. *)
let act_raises (insn : Mips_asm.t) : bool =
  match insn with
  | Lb _ | Lbu _ | Lh _ | Lhu _ | Lw _ | Sb _ | Sh _ | Sw _
  | Lwc1 _ | Swc1 _ | Ldc1 _ | Sdc1 _ -> true
  | _ -> false

let rec run_go m tags shift mask fuel =
  if interp_ready m tags shift mask fuel then begin
    step_inner m;
    run_go m tags shift mask (fuel - 1)
  end

include Engine.Make (struct
  type insn = Mips_asm.t
  type nonrec state = state

  let name = "mips"
  let big_endian = false
  let stack_reserve = 256

  let init_state () =
    { regs = Array.make 32 0; fregs = Array.make 32 0; hi = 0; lo = 0; fcc = false }

  let init_mem _ = ()

  let decode = decode
  let delay_slot = true
  let step_inner = step_inner
  let run_go = run_go
  let act_of = act_of
  let term_of = term_of
  let act_raises = act_raises
  let term_raises = false

  let jump_target pc : Mips_asm.t -> int option = function
    | J t | Jal t -> Some (j_target pc t)
    | _ -> None

  let is_nop : Mips_asm.t -> bool = function Nop -> true | _ -> false
end)

(* The simplified O32-like argument convention shared with the backend:
   each argument consumes one slot (doubles two, even-aligned); the first
   four slots of integer-class args go in $a0..$a3; the first two FP args
   go in $f12/$f14 (if their slot < 4); everything else is on the stack
   at [16 + 4*slot] above the entry $sp. *)
type arg = Int of int | Single of float | Double of float

(* allocation-free: plain recursion over the list with slot/fargs as
   accumulators, so a hot caller (the throughput bench) pays no per-call
   ref cells or iteration closure *)
let rec place_rest s mem sp args slot fargs =
  match args with
  | [] -> ()
  | Int v :: rest ->
    if slot < 4 then set_reg s (4 + slot) v
    else Mem.write_u32 mem (sp + 16 + (4 * slot)) (u32 v);
    place_rest s mem sp rest (slot + 1) fargs
  | Single v :: rest ->
    if fargs < 2 && slot < 4 then set_single s (12 + (2 * fargs)) v
    else
      Mem.write_u32 mem
        (sp + 16 + (4 * slot))
        (Int32.to_int (Int32.bits_of_float v) land 0xFFFFFFFF);
    place_rest s mem sp rest (slot + 1) (fargs + 1)
  | Double v :: rest ->
    let slot = slot + (slot land 1) in
    if fargs < 2 && slot < 4 then set_double s (12 + (2 * fargs)) v
    else Mem.write_u64 mem (sp + 16 + (4 * slot)) (Int64.bits_of_float v);
    place_rest s mem sp rest (slot + 2) (fargs + 1)

let place_args (m : t) ~sp args = place_rest m.st m.mem sp args 0 0

(* Call the generated function at [entry] with [args]; returns after the
   function executes its epilogue (jr $ra to the halt address). *)
let call ?fuel (m : t) ~entry args =
  let sp = m.stack_top land lnot 7 in
  m.st.regs.(Mips_asm.sp) <- sp;
  m.st.regs.(Mips_asm.ra) <- halt_addr;
  place_args m ~sp args;
  m.pc <- entry;
  m.npc <- entry + 4;
  run ?fuel m

let ret_int (m : t) = m.st.regs.(Mips_asm.v0)
let ret_single (m : t) = get_single m.st 0
let ret_double (m : t) = get_double m.st 0
