(* Alpha simulator.

   64-bit little-endian core, no delay slots.  Integer registers hold
   Int64 values ($31 pinned to zero); FP registers hold raw 64-bit
   T-format bit patterns ($f31 pinned to +0.0), which models the real
   machine: S-format loads expand to T-format in the register, and
   cvttq leaves an *integer* bit pattern in an FP register.

   The division millicode (see {!Alpha_runtime}) is installed at its
   fixed address by [create]. *)

open Vmachine
open Engine
module A = Alpha_asm

type state = {
  regs : int64 array;
  fregs : int64 array; (* bit patterns *)
}

type m = (A.t, state) machine

(* register numbers come out of [Alpha_asm.decode] masked to 5 bits *)
let[@inline] get_reg s r = if r = 31 then 0L else Array.unsafe_get s.regs r
let[@inline] set_reg s r v = if r <> 31 then Array.unsafe_set s.regs r v

let get_f s f = if f = 31 then 0L else s.fregs.(f)
let set_f s f v = if f <> 31 then s.fregs.(f) <- v

let fval s f = Int64.float_of_bits (get_f s f)
let set_fval s f v = set_f s f (Int64.bits_of_float v)

(* round a double result to single precision (S-format ops) *)
let single v = Int32.float_of_bits (Int32.bits_of_float v)

let sext32_64 (v : int64) : int64 =
  Int64.shift_right (Int64.shift_left v 32) 32

let lit_val s = function A.R r -> get_reg s r | A.L v -> Int64.of_int v

let addr_of (v : int64) = Int64.to_int (Int64.logand v 0x7FFFFFFFL)

let bool64 b = if b then 1L else 0L

let[@inline] branch m pc d taken = if taken then m.btarget <- pc + 4 + (4 * d)

let decode mem pc =
  let w = Mem.read_u32 mem pc in
  try A.decode w with A.Bad_insn _ -> illegal w pc

(* Execute the instruction at [m.pc].  The engine has already counted
   it and made its icache timing access: doing that in the small run
   loop rather than in this large function keeps its register pressure
   out of every arm. *)
let step_inner (m : m) =
  let pc = m.pc in
  let insn = match cached m pc with Some i -> i | None -> remember m pc (decode m.mem pc) in
  let s = m.st in
  m.btarget <- pc + 4;
  (match insn with
  | A.Lda (ra, rb, d) -> set_reg s ra (Int64.add (get_reg s rb) (Int64.of_int d))
  | A.Ldah (ra, rb, d) ->
    set_reg s ra (Int64.add (get_reg s rb) (Int64.of_int (d * 65536)))
  | A.Ldl (ra, rb, d) ->
    let a = addr_of (get_reg s rb) + d in
    daccess m a;
    set_reg s ra (Int64.of_int (Int32.to_int (Int32.of_int (Mem.read_u32 m.mem a))))
  | A.Ldq (ra, rb, d) ->
    let a = addr_of (get_reg s rb) + d in
    daccess m a;
    set_reg s ra (Mem.read_u64 m.mem a)
  | A.Ldq_u (ra, rb, d) ->
    let a = (addr_of (get_reg s rb) + d) land lnot 7 in
    daccess m a;
    set_reg s ra (Mem.read_u64 m.mem a)
  | A.Stl (ra, rb, d) ->
    let a = addr_of (get_reg s rb) + d in
    waccess m a;
    Mem.write_u32 m.mem a (Int64.to_int (Int64.logand (get_reg s ra) 0xFFFFFFFFL))
  | A.Stq (ra, rb, d) ->
    let a = addr_of (get_reg s rb) + d in
    waccess m a;
    Mem.write_u64 m.mem a (get_reg s ra)
  | A.Stq_u (ra, rb, d) ->
    let a = (addr_of (get_reg s rb) + d) land lnot 7 in
    waccess m a;
    Mem.write_u64 m.mem a (get_reg s ra)
  | A.Lds (fa, rb, d) ->
    let a = addr_of (get_reg s rb) + d in
    daccess m a;
    let bits32 = Mem.read_u32 m.mem a in
    set_fval s fa (Int32.float_of_bits (Int32.of_int bits32))
  | A.Ldt (fa, rb, d) ->
    let a = addr_of (get_reg s rb) + d in
    daccess m a;
    set_f s fa (Mem.read_u64 m.mem a)
  | A.Sts (fa, rb, d) ->
    let a = addr_of (get_reg s rb) + d in
    waccess m a;
    Mem.write_u32 m.mem a
      (Int32.to_int (Int32.bits_of_float (fval s fa)) land 0xFFFFFFFF)
  | A.Stt (fa, rb, d) ->
    let a = addr_of (get_reg s rb) + d in
    waccess m a;
    Mem.write_u64 m.mem a (get_f s fa)
  | A.Br (ra, d) ->
    set_reg s ra (Int64.of_int (pc + 4));
    m.btarget <- pc + 4 + (4 * d)
  | A.Bsr (ra, d) ->
    set_reg s ra (Int64.of_int (pc + 4));
    m.btarget <- pc + 4 + (4 * d)
  | A.Beq (ra, d) -> branch m pc d (get_reg s ra = 0L)
  | A.Bne (ra, d) -> branch m pc d (get_reg s ra <> 0L)
  | A.Blt (ra, d) -> branch m pc d (Int64.compare (get_reg s ra) 0L < 0)
  | A.Ble (ra, d) -> branch m pc d (Int64.compare (get_reg s ra) 0L <= 0)
  | A.Bgt (ra, d) -> branch m pc d (Int64.compare (get_reg s ra) 0L > 0)
  | A.Bge (ra, d) -> branch m pc d (Int64.compare (get_reg s ra) 0L >= 0)
  | A.Fbeq (fa, d) -> branch m pc d (fval s fa = 0.0)
  | A.Fbne (fa, d) -> branch m pc d (fval s fa <> 0.0)
  | A.Jmp (ra, rb) | A.Jsr (ra, rb) | A.Retj (ra, rb) ->
    let t = addr_of (get_reg s rb) land lnot 3 in
    set_reg s ra (Int64.of_int (pc + 4));
    m.btarget <- t
  | A.Intop (o, ra, rb, rc) -> (
    let x = get_reg s ra and y = lit_val s rb in
    let shamt = Int64.to_int (Int64.logand y 63L) in
    match o with
    | A.Addq -> set_reg s rc (Int64.add x y)
    | A.Subq -> set_reg s rc (Int64.sub x y)
    | A.Addl -> set_reg s rc (sext32_64 (Int64.add x y))
    | A.Subl -> set_reg s rc (sext32_64 (Int64.sub x y))
    | A.Mull ->
      m.cycles <- m.cycles + 7;
      set_reg s rc (sext32_64 (Int64.mul x y))
    | A.Mulq ->
      m.cycles <- m.cycles + 11;
      set_reg s rc (Int64.mul x y)
    | A.Umulh ->
      m.cycles <- m.cycles + 11;
      (* high 64 bits of the unsigned 128-bit product *)
      let lo_mask = 0xFFFFFFFFL in
      let xl = Int64.logand x lo_mask and xh = Int64.shift_right_logical x 32 in
      let yl = Int64.logand y lo_mask and yh = Int64.shift_right_logical y 32 in
      let ll = Int64.mul xl yl in
      let lh = Int64.mul xl yh in
      let hl = Int64.mul xh yl in
      let hh = Int64.mul xh yh in
      let s1 = Int64.add lh hl in
      let c1 = if Int64.unsigned_compare s1 lh < 0 then 0x100000000L else 0L in
      let s2 = Int64.add s1 (Int64.shift_right_logical ll 32) in
      let c2 = if Int64.unsigned_compare s2 s1 < 0 then 0x100000000L else 0L in
      set_reg s rc
        (Int64.add hh
           (Int64.add (Int64.shift_right_logical s2 32) (Int64.add c1 c2)))
    | A.Cmpeq -> set_reg s rc (bool64 (Int64.equal x y))
    | A.Cmplt -> set_reg s rc (bool64 (Int64.compare x y < 0))
    | A.Cmple -> set_reg s rc (bool64 (Int64.compare x y <= 0))
    | A.Cmpult -> set_reg s rc (bool64 (Int64.unsigned_compare x y < 0))
    | A.Cmpule -> set_reg s rc (bool64 (Int64.unsigned_compare x y <= 0))
    | A.And -> set_reg s rc (Int64.logand x y)
    | A.Bic -> set_reg s rc (Int64.logand x (Int64.lognot y))
    | A.Bis -> set_reg s rc (Int64.logor x y)
    | A.Ornot -> set_reg s rc (Int64.logor x (Int64.lognot y))
    | A.Xor -> set_reg s rc (Int64.logxor x y)
    | A.Eqv -> set_reg s rc (Int64.lognot (Int64.logxor x y))
    | A.Cmoveq -> if x = 0L then set_reg s rc y
    | A.Cmovne -> if x <> 0L then set_reg s rc y
    | A.Cmovlt -> if Int64.compare x 0L < 0 then set_reg s rc y
    | A.Cmovge -> if Int64.compare x 0L >= 0 then set_reg s rc y
    | A.Sll -> set_reg s rc (Int64.shift_left x shamt)
    | A.Srl -> set_reg s rc (Int64.shift_right_logical x shamt)
    | A.Sra -> set_reg s rc (Int64.shift_right x shamt)
    | A.Extbl ->
      let sh = 8 * (Int64.to_int (Int64.logand y 7L)) in
      set_reg s rc (Int64.logand (Int64.shift_right_logical x sh) 0xFFL)
    | A.Extwl ->
      let sh = 8 * (Int64.to_int (Int64.logand y 7L)) in
      set_reg s rc (Int64.logand (Int64.shift_right_logical x sh) 0xFFFFL)
    | A.Insbl ->
      let sh = 8 * (Int64.to_int (Int64.logand y 7L)) in
      set_reg s rc (Int64.shift_left (Int64.logand x 0xFFL) sh)
    | A.Inswl ->
      let sh = 8 * (Int64.to_int (Int64.logand y 7L)) in
      set_reg s rc (Int64.shift_left (Int64.logand x 0xFFFFL) sh)
    | A.Mskbl ->
      let sh = 8 * (Int64.to_int (Int64.logand y 7L)) in
      set_reg s rc (Int64.logand x (Int64.lognot (Int64.shift_left 0xFFL sh)))
    | A.Mskwl ->
      let sh = 8 * (Int64.to_int (Int64.logand y 7L)) in
      set_reg s rc (Int64.logand x (Int64.lognot (Int64.shift_left 0xFFFFL sh))))
  | A.Fpop (o, fa, fb, fc) -> (
    let a () = fval s fa and b () = fval s fb in
    match o with
    | A.Adds -> m.cycles <- m.cycles + 3; set_fval s fc (single (a () +. b ()))
    | A.Addt -> m.cycles <- m.cycles + 3; set_fval s fc (a () +. b ())
    | A.Subs -> m.cycles <- m.cycles + 3; set_fval s fc (single (a () -. b ()))
    | A.Subt -> m.cycles <- m.cycles + 3; set_fval s fc (a () -. b ())
    | A.Muls -> m.cycles <- m.cycles + 3; set_fval s fc (single (a () *. b ()))
    | A.Mult -> m.cycles <- m.cycles + 3; set_fval s fc (a () *. b ())
    | A.Divs -> m.cycles <- m.cycles + 15; set_fval s fc (single (a () /. b ()))
    | A.Divt -> m.cycles <- m.cycles + 22; set_fval s fc (a () /. b ())
    | A.Cmpteq -> set_fval s fc (if a () = b () then 2.0 else 0.0)
    | A.Cmptlt -> set_fval s fc (if a () < b () then 2.0 else 0.0)
    | A.Cmptle -> set_fval s fc (if a () <= b () then 2.0 else 0.0)
    | A.Cvtqs ->
      (* quadword integer (bits of fb) to single *)
      set_fval s fc (single (Int64.to_float (get_f s fb)))
    | A.Cvtqt -> set_fval s fc (Int64.to_float (get_f s fb))
    | A.Cvttq -> set_f s fc (Int64.of_float (Float.trunc (b ())))
    | A.Cvtts -> set_fval s fc (single (b ()))
    | A.Cpys ->
      (* copy sign of fa, rest of fb; cpys f,f,f is fmov *)
      let sa = Int64.logand (get_f s fa) Int64.min_int in
      let rest = Int64.logand (get_f s fb) Int64.max_int in
      set_f s fc (Int64.logor sa rest)
    | A.Cpysn ->
      let sa = Int64.logand (Int64.lognot (get_f s fa)) Int64.min_int in
      let rest = Int64.logand (get_f s fb) Int64.max_int in
      set_f s fc (Int64.logor sa rest)
    | A.Sqrts -> m.cycles <- m.cycles + 15; set_fval s fc (single (sqrt (b ())))
    | A.Sqrtt -> m.cycles <- m.cycles + 30; set_fval s fc (sqrt (b ()))));
  m.pc <- m.btarget

(* ------------------------------------------------------------------ *)
(* Compiled closures for the engine's superblocks and regions: each one
   replicates its [step_inner] arm exactly — same arithmetic, same
   memory-access order, same cycle surcharges — so a compiled run
   retires with the same architectural state and timing as the
   interpreter.  No delay slots: a block is body instructions plus
   (optionally) the control transfer itself, whose closure leaves the
   target in [m.btarget] for the commit. *)

(* Compiled action for one *body* (non-control) instruction; [None]
   for the control transfers compiled via [term_of].  Store closures
   test the block cache's dirty flag after writing and abort with
   [Block_cache.Retired]. *)
let act_of (m : m) (insn : A.t) : (unit -> unit) option =
  let s = m.st in
  match insn with
  | A.Lda (ra, rb, d) ->
    Some (fun () -> set_reg s ra (Int64.add (get_reg s rb) (Int64.of_int d)))
  | A.Ldah (ra, rb, d) ->
    let dd = d * 65536 in
    Some (fun () -> set_reg s ra (Int64.add (get_reg s rb) (Int64.of_int dd)))
  | A.Ldl (ra, rb, d) ->
    Some
      (fun () ->
        let a = addr_of (get_reg s rb) + d in
        daccess m a;
        set_reg s ra (Int64.of_int (Int32.to_int (Int32.of_int (Mem.read_u32 m.mem a)))))
  | A.Ldq (ra, rb, d) ->
    Some
      (fun () ->
        let a = addr_of (get_reg s rb) + d in
        daccess m a;
        set_reg s ra (Mem.read_u64 m.mem a))
  | A.Ldq_u (ra, rb, d) ->
    Some
      (fun () ->
        let a = (addr_of (get_reg s rb) + d) land lnot 7 in
        daccess m a;
        set_reg s ra (Mem.read_u64 m.mem a))
  | A.Stl (ra, rb, d) ->
    Some
      (fun () ->
        let a = addr_of (get_reg s rb) + d in
        waccess m a;
        Mem.write_u32 m.mem a (Int64.to_int (Int64.logand (get_reg s ra) 0xFFFFFFFFL));
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | A.Stq (ra, rb, d) ->
    Some
      (fun () ->
        let a = addr_of (get_reg s rb) + d in
        waccess m a;
        Mem.write_u64 m.mem a (get_reg s ra);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | A.Stq_u (ra, rb, d) ->
    Some
      (fun () ->
        let a = (addr_of (get_reg s rb) + d) land lnot 7 in
        waccess m a;
        Mem.write_u64 m.mem a (get_reg s ra);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | A.Lds (fa, rb, d) ->
    Some
      (fun () ->
        let a = addr_of (get_reg s rb) + d in
        daccess m a;
        let bits32 = Mem.read_u32 m.mem a in
        set_fval s fa (Int32.float_of_bits (Int32.of_int bits32)))
  | A.Ldt (fa, rb, d) ->
    Some
      (fun () ->
        let a = addr_of (get_reg s rb) + d in
        daccess m a;
        set_f s fa (Mem.read_u64 m.mem a))
  | A.Sts (fa, rb, d) ->
    Some
      (fun () ->
        let a = addr_of (get_reg s rb) + d in
        waccess m a;
        Mem.write_u32 m.mem a (Int32.to_int (Int32.bits_of_float (fval s fa)) land 0xFFFFFFFF);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | A.Stt (fa, rb, d) ->
    Some
      (fun () ->
        let a = addr_of (get_reg s rb) + d in
        waccess m a;
        Mem.write_u64 m.mem a (get_f s fa);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | A.Intop (o, ra, rb, rc) ->
    Some
      (match o with
      | A.Addq -> fun () -> set_reg s rc (Int64.add (get_reg s ra) (lit_val s rb))
      | A.Subq -> fun () -> set_reg s rc (Int64.sub (get_reg s ra) (lit_val s rb))
      | A.Addl -> fun () -> set_reg s rc (sext32_64 (Int64.add (get_reg s ra) (lit_val s rb)))
      | A.Subl -> fun () -> set_reg s rc (sext32_64 (Int64.sub (get_reg s ra) (lit_val s rb)))
      | A.Mull ->
        fun () ->
          m.cycles <- m.cycles + 7;
          set_reg s rc (sext32_64 (Int64.mul (get_reg s ra) (lit_val s rb)))
      | A.Mulq ->
        fun () ->
          m.cycles <- m.cycles + 11;
          set_reg s rc (Int64.mul (get_reg s ra) (lit_val s rb))
      | A.Umulh ->
        fun () ->
          m.cycles <- m.cycles + 11;
          let x = get_reg s ra and y = lit_val s rb in
          let lo_mask = 0xFFFFFFFFL in
          let xl = Int64.logand x lo_mask and xh = Int64.shift_right_logical x 32 in
          let yl = Int64.logand y lo_mask and yh = Int64.shift_right_logical y 32 in
          let ll = Int64.mul xl yl in
          let lh = Int64.mul xl yh in
          let hl = Int64.mul xh yl in
          let hh = Int64.mul xh yh in
          let s1 = Int64.add lh hl in
          let c1 = if Int64.unsigned_compare s1 lh < 0 then 0x100000000L else 0L in
          let s2 = Int64.add s1 (Int64.shift_right_logical ll 32) in
          let c2 = if Int64.unsigned_compare s2 s1 < 0 then 0x100000000L else 0L in
          set_reg s rc
            (Int64.add hh (Int64.add (Int64.shift_right_logical s2 32) (Int64.add c1 c2)))
      | A.Cmpeq -> fun () -> set_reg s rc (bool64 (Int64.equal (get_reg s ra) (lit_val s rb)))
      | A.Cmplt ->
        fun () -> set_reg s rc (bool64 (Int64.compare (get_reg s ra) (lit_val s rb) < 0))
      | A.Cmple ->
        fun () -> set_reg s rc (bool64 (Int64.compare (get_reg s ra) (lit_val s rb) <= 0))
      | A.Cmpult ->
        fun () -> set_reg s rc (bool64 (Int64.unsigned_compare (get_reg s ra) (lit_val s rb) < 0))
      | A.Cmpule ->
        fun () ->
          set_reg s rc (bool64 (Int64.unsigned_compare (get_reg s ra) (lit_val s rb) <= 0))
      | A.And -> fun () -> set_reg s rc (Int64.logand (get_reg s ra) (lit_val s rb))
      | A.Bic -> fun () -> set_reg s rc (Int64.logand (get_reg s ra) (Int64.lognot (lit_val s rb)))
      | A.Bis -> fun () -> set_reg s rc (Int64.logor (get_reg s ra) (lit_val s rb))
      | A.Ornot ->
        fun () -> set_reg s rc (Int64.logor (get_reg s ra) (Int64.lognot (lit_val s rb)))
      | A.Xor -> fun () -> set_reg s rc (Int64.logxor (get_reg s ra) (lit_val s rb))
      | A.Eqv -> fun () -> set_reg s rc (Int64.lognot (Int64.logxor (get_reg s ra) (lit_val s rb)))
      | A.Cmoveq -> fun () -> if get_reg s ra = 0L then set_reg s rc (lit_val s rb)
      | A.Cmovne -> fun () -> if get_reg s ra <> 0L then set_reg s rc (lit_val s rb)
      | A.Cmovlt -> fun () -> if Int64.compare (get_reg s ra) 0L < 0 then set_reg s rc (lit_val s rb)
      | A.Cmovge ->
        fun () -> if Int64.compare (get_reg s ra) 0L >= 0 then set_reg s rc (lit_val s rb)
      | A.Sll ->
        fun () ->
          let shamt = Int64.to_int (Int64.logand (lit_val s rb) 63L) in
          set_reg s rc (Int64.shift_left (get_reg s ra) shamt)
      | A.Srl ->
        fun () ->
          let shamt = Int64.to_int (Int64.logand (lit_val s rb) 63L) in
          set_reg s rc (Int64.shift_right_logical (get_reg s ra) shamt)
      | A.Sra ->
        fun () ->
          let shamt = Int64.to_int (Int64.logand (lit_val s rb) 63L) in
          set_reg s rc (Int64.shift_right (get_reg s ra) shamt)
      | A.Extbl ->
        fun () ->
          let sh = 8 * Int64.to_int (Int64.logand (lit_val s rb) 7L) in
          set_reg s rc (Int64.logand (Int64.shift_right_logical (get_reg s ra) sh) 0xFFL)
      | A.Extwl ->
        fun () ->
          let sh = 8 * Int64.to_int (Int64.logand (lit_val s rb) 7L) in
          set_reg s rc (Int64.logand (Int64.shift_right_logical (get_reg s ra) sh) 0xFFFFL)
      | A.Insbl ->
        fun () ->
          let sh = 8 * Int64.to_int (Int64.logand (lit_val s rb) 7L) in
          set_reg s rc (Int64.shift_left (Int64.logand (get_reg s ra) 0xFFL) sh)
      | A.Inswl ->
        fun () ->
          let sh = 8 * Int64.to_int (Int64.logand (lit_val s rb) 7L) in
          set_reg s rc (Int64.shift_left (Int64.logand (get_reg s ra) 0xFFFFL) sh)
      | A.Mskbl ->
        fun () ->
          let sh = 8 * Int64.to_int (Int64.logand (lit_val s rb) 7L) in
          set_reg s rc (Int64.logand (get_reg s ra) (Int64.lognot (Int64.shift_left 0xFFL sh)))
      | A.Mskwl ->
        fun () ->
          let sh = 8 * Int64.to_int (Int64.logand (lit_val s rb) 7L) in
          set_reg s rc (Int64.logand (get_reg s ra) (Int64.lognot (Int64.shift_left 0xFFFFL sh))))
  | A.Fpop (o, fa, fb, fc) ->
    Some
      (match o with
      | A.Adds ->
        fun () ->
          m.cycles <- m.cycles + 3;
          set_fval s fc (single (fval s fa +. fval s fb))
      | A.Addt ->
        fun () ->
          m.cycles <- m.cycles + 3;
          set_fval s fc (fval s fa +. fval s fb)
      | A.Subs ->
        fun () ->
          m.cycles <- m.cycles + 3;
          set_fval s fc (single (fval s fa -. fval s fb))
      | A.Subt ->
        fun () ->
          m.cycles <- m.cycles + 3;
          set_fval s fc (fval s fa -. fval s fb)
      | A.Muls ->
        fun () ->
          m.cycles <- m.cycles + 3;
          set_fval s fc (single (fval s fa *. fval s fb))
      | A.Mult ->
        fun () ->
          m.cycles <- m.cycles + 3;
          set_fval s fc (fval s fa *. fval s fb)
      | A.Divs ->
        fun () ->
          m.cycles <- m.cycles + 15;
          set_fval s fc (single (fval s fa /. fval s fb))
      | A.Divt ->
        fun () ->
          m.cycles <- m.cycles + 22;
          set_fval s fc (fval s fa /. fval s fb)
      | A.Cmpteq -> fun () -> set_fval s fc (if fval s fa = fval s fb then 2.0 else 0.0)
      | A.Cmptlt -> fun () -> set_fval s fc (if fval s fa < fval s fb then 2.0 else 0.0)
      | A.Cmptle -> fun () -> set_fval s fc (if fval s fa <= fval s fb then 2.0 else 0.0)
      | A.Cvtqs -> fun () -> set_fval s fc (single (Int64.to_float (get_f s fb)))
      | A.Cvtqt -> fun () -> set_fval s fc (Int64.to_float (get_f s fb))
      | A.Cvttq -> fun () -> set_f s fc (Int64.of_float (Float.trunc (fval s fb)))
      | A.Cvtts -> fun () -> set_fval s fc (single (fval s fb))
      | A.Cpys ->
        fun () ->
          let sa = Int64.logand (get_f s fa) Int64.min_int in
          let rest = Int64.logand (get_f s fb) Int64.max_int in
          set_f s fc (Int64.logor sa rest)
      | A.Cpysn ->
        fun () ->
          let sa = Int64.logand (Int64.lognot (get_f s fa)) Int64.min_int in
          let rest = Int64.logand (get_f s fb) Int64.max_int in
          set_f s fc (Int64.logor sa rest)
      | A.Sqrts ->
        fun () ->
          m.cycles <- m.cycles + 15;
          set_fval s fc (single (sqrt (fval s fb)))
      | A.Sqrtt ->
        fun () ->
          m.cycles <- m.cycles + 30;
          set_fval s fc (sqrt (fval s fb)))
  | A.Br _ | A.Bsr _ | A.Beq _ | A.Bne _ | A.Blt _ | A.Ble _ | A.Bgt _ | A.Bge _ | A.Fbeq _
  | A.Fbne _ | A.Jmp _ | A.Jsr _ | A.Retj _ ->
    None

(* Compiled closure for a block *terminator* at address [pc]: leaves
   the control-transfer target in [m.btarget] (fallthrough [pc + 4] for
   an untaken branch) — exactly the interpreter's discipline; the
   commit moves it into pc. *)
let term_of (m : m) pc (insn : A.t) : (unit -> unit) option =
  let s = m.st in
  let ft = pc + 4 in
  match insn with
  | A.Br (ra, d) | A.Bsr (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    Some
      (fun () ->
        set_reg s ra (Int64.of_int ft);
        m.btarget <- tk)
  | A.Beq (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    Some (fun () -> m.btarget <- (if get_reg s ra = 0L then tk else ft))
  | A.Bne (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    Some (fun () -> m.btarget <- (if get_reg s ra <> 0L then tk else ft))
  | A.Blt (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    Some (fun () -> m.btarget <- (if Int64.compare (get_reg s ra) 0L < 0 then tk else ft))
  | A.Ble (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    Some (fun () -> m.btarget <- (if Int64.compare (get_reg s ra) 0L <= 0 then tk else ft))
  | A.Bgt (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    Some (fun () -> m.btarget <- (if Int64.compare (get_reg s ra) 0L > 0 then tk else ft))
  | A.Bge (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    Some (fun () -> m.btarget <- (if Int64.compare (get_reg s ra) 0L >= 0 then tk else ft))
  | A.Fbeq (fa, d) ->
    let tk = pc + 4 + (4 * d) in
    Some (fun () -> m.btarget <- (if fval s fa = 0.0 then tk else ft))
  | A.Fbne (fa, d) ->
    let tk = pc + 4 + (4 * d) in
    Some (fun () -> m.btarget <- (if fval s fa <> 0.0 then tk else ft))
  | A.Jmp (ra, rb) | A.Jsr (ra, rb) | A.Retj (ra, rb) ->
    Some
      (fun () ->
        let t = addr_of (get_reg s rb) land lnot 3 in
        set_reg s ra (Int64.of_int ft);
        m.btarget <- t)
  | _ -> None

(* Only closures for these instructions can raise: a memory fault from
   a load/store, or [Block_cache.Retired] from a store that invalidated
   a resident block ([Lda]/[Ldah] are pure address arithmetic).
   Everything else [act_of] compiles is pure OCaml arithmetic that
   cannot raise, and Alpha terminators only write [m.btarget], so the
   per-instruction [m.blk_i] bookkeeping is baked in at compile time
   for can-raise instructions alone and elided everywhere else. *)
let act_raises (insn : A.t) : bool =
  match insn with
  | A.Ldl _ | A.Ldq _ | A.Stl _ | A.Stq _ | A.Lds _ | A.Ldt _ | A.Sts _ | A.Stt _ -> true
  | _ -> false

let rec run_go m tags shift mask fuel =
  if interp_ready m tags shift mask fuel then begin
    step_inner m;
    run_go m tags shift mask (fuel - 1)
  end

include Engine.Make (struct
  type insn = A.t
  type nonrec state = state

  let name = "alpha"
  let big_endian = false
  let stack_reserve = 512
  let init_state () = { regs = Array.make 32 0L; fregs = Array.make 32 0L }
  let init_mem = Alpha_runtime.install

  let decode = decode
  let delay_slot = false
  let step_inner = step_inner
  let run_go = run_go
  let act_of = act_of
  let term_of = term_of
  let act_raises = act_raises
  let term_raises = false

  let jump_target pc : A.t -> int option = function
    | A.Br (_, d) | A.Bsr (_, d) -> Some (pc + 4 + (4 * d))
    | _ -> None

  let is_nop : A.t -> bool = function A.Intop (A.Bis, 31, A.R 31, 31) -> true | _ -> false
end)

(* ------------------------------------------------------------------ *)
(* Harness: args in $16-$21 / $f16-$f21 by slot; further args on the
   stack at sp+0, 8 bytes per slot.                                    *)

type arg = Int of int | Int64 of int64 | Double of float | Single of float

let place_args (m : t) ~sp args =
  let slot = ref 0 in
  List.iter
    (fun a ->
      let k = !slot in
      incr slot;
      match a with
      | Int v ->
        if k < 6 then set_reg m.st (16 + k) (Int64.of_int v)
        else Mem.write_u64 m.mem (sp + (8 * (k - 6))) (Int64.of_int v)
      | Int64 v ->
        if k < 6 then set_reg m.st (16 + k) v else Mem.write_u64 m.mem (sp + (8 * (k - 6))) v
      | Double v ->
        if k < 6 then set_fval m.st (16 + k) v
        else Mem.write_u64 m.mem (sp + (8 * (k - 6))) (Int64.bits_of_float v)
      | Single v ->
        if k < 6 then set_fval m.st (16 + k) v
        else
          Mem.write_u64 m.mem
            (sp + (8 * (k - 6)))
            (Int64.bits_of_float (Int32.float_of_bits (Int32.bits_of_float v))))
    args

let call ?fuel (m : t) ~entry args =
  let sp = m.stack_top land lnot 15 in
  set_reg m.st 30 (Int64.of_int sp);
  set_reg m.st 26 (Int64.of_int halt_addr);
  place_args m ~sp args;
  m.pc <- entry;
  run ?fuel m

let ret_int64 (m : t) = m.st.regs.(0)
let ret_int (m : t) = Int64.to_int m.st.regs.(0)
let ret_double (m : t) = fval m.st 0
let ret_single (m : t) = fval m.st 0
