(* SPARC-V8 simulator.

   Big-endian core with register windows (NWINDOWS = 8), one branch
   delay slot, integer condition codes, the Y register for the 64-bit
   multiply/divide results, and paired FP registers (doubles in
   even/odd pairs, most-significant word in the even register).

   Window model: window [w] owns 16 registers (8 locals + 8 ins); the
   outs of window [w] are the ins of window [w-1] (save decrements the
   current window pointer).  Overflow/underflow traps are not modeled —
   call depth beyond NWINDOWS-1 is a machine error, which the VCODE
   experiments never approach (the paper's SPARC port runs under the
   same restriction in practice since trap handling lives in the OS). *)

open Vmachine
open Engine

let nwindows = 8

type state = {
  globals : int array;              (* g0-g7; g0 pinned to 0 *)
  wins : int array;                 (* nwindows * 16: locals + ins *)
  mutable cwp : int;
  mutable depth : int;              (* save depth, for overflow checking *)
  fregs : int array;                (* 32 x 32-bit patterns *)
  mutable y : int;
  mutable icc_n : bool;
  mutable icc_z : bool;
  mutable icc_v : bool;
  mutable icc_c : bool;
  mutable fcc : int;                (* 0 =, 1 <, 2 > *)
}

type m = (Sparc_asm.t, state) machine

(* branchless sign-extension from bit 31 (OCaml ints are 63-bit, so the
   shift pair drops bits 32+ and replicates bit 31 upward) *)
let[@inline] sext32 v = (v lsl 31) asr 31

let u32 v = v land 0xFFFFFFFF

(* window-relative register access: outs of window w live as ins of
   window (w-1) mod nwindows *)
let win_slot s r =
  if r < 16 then (* outs *) ((s.cwp - 1 + nwindows) mod nwindows * 16) + 8 + (r - 8)
  else if r < 24 then (s.cwp * 16) + (r - 16) (* locals *)
  else (s.cwp * 16) + 8 + (r - 24) (* ins *)

let get_reg s r =
  if r = 0 then 0
  else if r < 8 then s.globals.(r)
  else s.wins.(win_slot s r)

let set_reg s r v =
  if r = 0 then ()
  else if r < 8 then s.globals.(r) <- sext32 v
  else s.wins.(win_slot s r) <- sext32 v

(* doubles: even register holds the most-significant word *)
let get_double s f =
  let hi = s.fregs.(f) land 0xFFFFFFFF and lo = s.fregs.(f + 1) land 0xFFFFFFFF in
  Int64.float_of_bits
    (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))

let set_double s f v =
  let bits = Int64.bits_of_float v in
  s.fregs.(f + 1) <- Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
  s.fregs.(f) <- Int64.to_int (Int64.logand (Int64.shift_right_logical bits 32) 0xFFFFFFFFL)

let get_single s f = Int32.float_of_bits (Int32.of_int s.fregs.(f))
let set_single s f v = s.fregs.(f) <- Int32.to_int (Int32.bits_of_float v) land 0xFFFFFFFF

let ri_val s = function Sparc_asm.R r -> get_reg s r | Sparc_asm.Imm v -> v

let set_icc_sub s a b r =
  s.icc_z <- u32 r = 0;
  s.icc_n <- r land 0x80000000 <> 0;
  s.icc_v <- (a lxor b) land (a lxor r) land 0x80000000 <> 0;
  s.icc_c <- u32 a < u32 b

let[@inline] branch m pc disp taken = if taken then m.btarget <- pc + (4 * disp)

let decode mem pc =
  let w = Mem.read_u32 mem pc in
  try Sparc_asm.decode w with Sparc_asm.Bad_insn _ -> illegal w pc

(* Execute the instruction at [m.pc].  The engine has already counted
   it and made its icache timing access: doing that in the small run
   loop rather than in this large function keeps its register pressure
   out of every arm. *)
let step_inner (m : m) =
  let pc = m.pc in
  let insn = match cached m pc with Some i -> i | None -> remember m pc (decode m.mem pc) in
  let s = m.st in
  let next = m.npc in
  m.btarget <- m.npc + 4;
  (match insn with
  | Sparc_asm.Nop -> ()
  | Sparc_asm.Sethi (rd, imm22) -> set_reg s rd (imm22 lsl 10)
  | Sparc_asm.Alu (a, rd, rs1, ri) -> (
    let x = get_reg s rs1 and y = ri_val s ri in
    match a with
    | Sparc_asm.Add -> set_reg s rd (x + y)
    | Sparc_asm.Sub -> set_reg s rd (x - y)
    | Sparc_asm.And -> set_reg s rd (x land y)
    | Sparc_asm.Or -> set_reg s rd (x lor y)
    | Sparc_asm.Xor -> set_reg s rd (x lxor y)
    | Sparc_asm.Andn -> set_reg s rd (x land lnot y)
    | Sparc_asm.Orn -> set_reg s rd (x lor lnot y)
    | Sparc_asm.Xnor -> set_reg s rd (lnot (x lxor y))
    | Sparc_asm.Addx -> set_reg s rd (x + y + if s.icc_c then 1 else 0)
    | Sparc_asm.Sll -> set_reg s rd (x lsl (y land 31))
    | Sparc_asm.Srl -> set_reg s rd (u32 x lsr (y land 31))
    | Sparc_asm.Sra -> set_reg s rd (x asr (y land 31))
    | Sparc_asm.Umul ->
      m.cycles <- m.cycles + 18;
      let p = Int64.mul (Int64.of_int (u32 x)) (Int64.of_int (u32 y)) in
      s.y <- Int64.to_int (Int64.shift_right_logical p 32) land 0xFFFFFFFF;
      set_reg s rd (Int64.to_int (Int64.logand p 0xFFFFFFFFL))
    | Sparc_asm.Smul ->
      m.cycles <- m.cycles + 18;
      let p = Int64.mul (Int64.of_int x) (Int64.of_int y) in
      s.y <- Int64.to_int (Int64.shift_right_logical p 32) land 0xFFFFFFFF;
      set_reg s rd (Int64.to_int (Int64.logand p 0xFFFFFFFFL))
    | Sparc_asm.Udiv ->
      m.cycles <- m.cycles + 36;
      let dividend =
        Int64.logor
          (Int64.shift_left (Int64.of_int (u32 s.y)) 32)
          (Int64.of_int (u32 x))
      in
      let dv = u32 y in
      if dv = 0 then set_reg s rd 0
      else set_reg s rd (Int64.to_int (Int64.div dividend (Int64.of_int dv)))
    | Sparc_asm.Sdiv ->
      m.cycles <- m.cycles + 36;
      let dividend =
        Int64.logor
          (Int64.shift_left (Int64.of_int (u32 s.y)) 32)
          (Int64.of_int (u32 x))
      in
      if y = 0 then set_reg s rd 0
      else set_reg s rd (Int64.to_int (Int64.div dividend (Int64.of_int y)))
    | Sparc_asm.Addcc ->
      let r = x + y in
      s.icc_z <- u32 r = 0;
      s.icc_n <- r land 0x80000000 <> 0;
      s.icc_v <- lnot (x lxor y) land (x lxor r) land 0x80000000 <> 0;
      s.icc_c <- u32 r < u32 x;
      set_reg s rd r
    | Sparc_asm.Subcc ->
      let r = x - y in
      set_icc_sub s x y r;
      set_reg s rd r)
  | Sparc_asm.Bicc (c, disp) ->
    let t =
      let open Sparc_asm in
      match c with
      | BA -> true
      | BN -> false
      | BNE -> not s.icc_z
      | BE -> s.icc_z
      | BG -> not (s.icc_z || s.icc_n <> s.icc_v)
      | BLE -> s.icc_z || s.icc_n <> s.icc_v
      | BGE -> s.icc_n = s.icc_v
      | BL -> s.icc_n <> s.icc_v
      | BGU -> (not s.icc_c) && not s.icc_z
      | BLEU -> s.icc_c || s.icc_z
      | BCC -> not s.icc_c
      | BCS -> s.icc_c
      | BPOS -> not s.icc_n
      | BNEG -> s.icc_n
    in
    branch m pc disp t
  | Sparc_asm.Fbfcc (c, disp) ->
    let t =
      let open Sparc_asm in
      match c with
      | FBE -> s.fcc = 0
      | FBNE -> s.fcc <> 0
      | FBL -> s.fcc = 1
      | FBG -> s.fcc = 2
      | FBLE -> s.fcc = 0 || s.fcc = 1
      | FBGE -> s.fcc = 0 || s.fcc = 2
    in
    branch m pc disp t
  | Sparc_asm.Call disp ->
    set_reg s 15 pc;
    m.btarget <- pc + (4 * disp)
  | Sparc_asm.Jmpl (rd, rs1, ri) ->
    set_reg s rd pc;
    m.btarget <- u32 (get_reg s rs1 + ri_val s ri)
  | Sparc_asm.Save (rd, rs1, ri) ->
    if s.depth >= nwindows - 2 then raise (Machine_error "register window overflow");
    let v = get_reg s rs1 + ri_val s ri in
    s.cwp <- (s.cwp - 1 + nwindows) mod nwindows;
    s.depth <- s.depth + 1;
    set_reg s rd v
  | Sparc_asm.Restore (rd, rs1, ri) ->
    if s.depth <= 0 then raise (Machine_error "register window underflow");
    let v = get_reg s rs1 + ri_val s ri in
    s.cwp <- (s.cwp + 1) mod nwindows;
    s.depth <- s.depth - 1;
    set_reg s rd v
  | Sparc_asm.Rdy rd -> set_reg s rd s.y
  | Sparc_asm.Wry (rs1, ri) -> s.y <- u32 (get_reg s rs1 lxor ri_val s ri)
  | Sparc_asm.Ld (rd, rs1, ri) ->
    let a = u32 (get_reg s rs1 + ri_val s ri) in
    daccess m a;
    set_reg s rd (Mem.read_u32 m.mem a)
  | Sparc_asm.Ldsb (rd, rs1, ri) ->
    let a = u32 (get_reg s rs1 + ri_val s ri) in
    daccess m a;
    let v = Mem.read_u8 m.mem a in
    set_reg s rd (if v land 0x80 <> 0 then v - 0x100 else v)
  | Sparc_asm.Ldub (rd, rs1, ri) ->
    let a = u32 (get_reg s rs1 + ri_val s ri) in
    daccess m a;
    set_reg s rd (Mem.read_u8 m.mem a)
  | Sparc_asm.Ldsh (rd, rs1, ri) ->
    let a = u32 (get_reg s rs1 + ri_val s ri) in
    daccess m a;
    let v = Mem.read_u16 m.mem a in
    set_reg s rd (if v land 0x8000 <> 0 then v - 0x10000 else v)
  | Sparc_asm.Lduh (rd, rs1, ri) ->
    let a = u32 (get_reg s rs1 + ri_val s ri) in
    daccess m a;
    set_reg s rd (Mem.read_u16 m.mem a)
  | Sparc_asm.St (rd, rs1, ri) ->
    let a = u32 (get_reg s rs1 + ri_val s ri) in
    waccess m a;
    Mem.write_u32 m.mem a (u32 (get_reg s rd))
  | Sparc_asm.Stb (rd, rs1, ri) ->
    let a = u32 (get_reg s rs1 + ri_val s ri) in
    waccess m a;
    Mem.write_u8 m.mem a (get_reg s rd)
  | Sparc_asm.Sth (rd, rs1, ri) ->
    let a = u32 (get_reg s rs1 + ri_val s ri) in
    waccess m a;
    Mem.write_u16 m.mem a (get_reg s rd)
  | Sparc_asm.Ldf (rd, rs1, ri) ->
    let a = u32 (get_reg s rs1 + ri_val s ri) in
    daccess m a;
    s.fregs.(rd) <- Mem.read_u32 m.mem a
  | Sparc_asm.Lddf (rd, rs1, ri) ->
    let a = u32 (get_reg s rs1 + ri_val s ri) in
    daccess m a;
    s.fregs.(rd) <- Mem.read_u32 m.mem a;
    s.fregs.(rd + 1) <- Mem.read_u32 m.mem (a + 4)
  | Sparc_asm.Stf (rd, rs1, ri) ->
    let a = u32 (get_reg s rs1 + ri_val s ri) in
    waccess m a;
    Mem.write_u32 m.mem a s.fregs.(rd)
  | Sparc_asm.Stdf (rd, rs1, ri) ->
    let a = u32 (get_reg s rs1 + ri_val s ri) in
    waccess m a;
    Mem.write_u32 m.mem a s.fregs.(rd);
    Mem.write_u32 m.mem (a + 4) s.fregs.(rd + 1)
  | Sparc_asm.Fpop (p, rd, rs1, rs2) -> (
    let open Sparc_asm in
    match p with
    | Fadds -> m.cycles <- m.cycles + 1; set_single s rd (get_single s rs1 +. get_single s rs2)
    | Faddd -> m.cycles <- m.cycles + 1; set_double s rd (get_double s rs1 +. get_double s rs2)
    | Fsubs -> m.cycles <- m.cycles + 1; set_single s rd (get_single s rs1 -. get_single s rs2)
    | Fsubd -> m.cycles <- m.cycles + 1; set_double s rd (get_double s rs1 -. get_double s rs2)
    | Fmuls -> m.cycles <- m.cycles + 3; set_single s rd (get_single s rs1 *. get_single s rs2)
    | Fmuld -> m.cycles <- m.cycles + 4; set_double s rd (get_double s rs1 *. get_double s rs2)
    | Fdivs -> m.cycles <- m.cycles + 12; set_single s rd (get_single s rs1 /. get_single s rs2)
    | Fdivd -> m.cycles <- m.cycles + 18; set_double s rd (get_double s rs1 /. get_double s rs2)
    | Fmovs -> s.fregs.(rd) <- s.fregs.(rs2)
    | Fnegs -> set_single s rd (-.get_single s rs2)
    | Fabss -> set_single s rd (abs_float (get_single s rs2))
    | Fsqrts -> m.cycles <- m.cycles + 13; set_single s rd (sqrt (get_single s rs2))
    | Fsqrtd -> m.cycles <- m.cycles + 25; set_double s rd (sqrt (get_double s rs2))
    | Fitos -> set_single s rd (float_of_int (sext32 s.fregs.(rs2)))
    | Fitod -> set_double s rd (float_of_int (sext32 s.fregs.(rs2)))
    | Fstoi -> s.fregs.(rd) <- u32 (int_of_float (Float.trunc (get_single s rs2)))
    | Fdtoi -> s.fregs.(rd) <- u32 (int_of_float (Float.trunc (get_double s rs2)))
    | Fstod -> set_double s rd (get_single s rs2)
    | Fdtos -> set_single s rd (get_double s rs2))
  | Sparc_asm.Fcmps (rs1, rs2) ->
    let a = get_single s rs1 and b = get_single s rs2 in
    s.fcc <- (if a = b then 0 else if a < b then 1 else 2)
  | Sparc_asm.Fcmpd (rs1, rs2) ->
    let a = get_double s rs1 and b = get_double s rs2 in
    s.fcc <- (if a = b then 0 else if a < b then 1 else 2));
  m.pc <- next;
  m.npc <- m.btarget

(* ------------------------------------------------------------------ *)
(* Compiled closures for the engine's superblocks and regions: each one
   replicates its [step_inner] arm exactly — same arithmetic, same
   memory-access and window-shift order, same cycle surcharges — so a
   compiled run retires with the same architectural state and timing as
   the interpreter.  Save/Restore stay block *body* instructions: their
   window overflow/underflow checks raise before touching state, which
   the engine's fault fixup handles like any other trap. *)

(* Compiled action for one *body* (non-control) instruction; [None]
   when the instruction terminates a block (Bicc/Fbfcc/Call/Jmpl,
   compiled via [term_of]).  Store closures test the block cache's
   dirty flag after writing and abort with [Block_cache.Retired]. *)
let act_of (m : m) (insn : Sparc_asm.t) : (unit -> unit) option =
  let s = m.st in
  match insn with
  | Sparc_asm.Nop -> Some (fun () -> ())
  | Sparc_asm.Sethi (rd, imm22) -> Some (fun () -> set_reg s rd (imm22 lsl 10))
  | Sparc_asm.Alu (a, rd, rs1, ri) ->
    Some
      (match a with
      | Sparc_asm.Add -> fun () -> set_reg s rd (get_reg s rs1 + ri_val s ri)
      | Sparc_asm.Sub -> fun () -> set_reg s rd (get_reg s rs1 - ri_val s ri)
      | Sparc_asm.And -> fun () -> set_reg s rd (get_reg s rs1 land ri_val s ri)
      | Sparc_asm.Or -> fun () -> set_reg s rd (get_reg s rs1 lor ri_val s ri)
      | Sparc_asm.Xor -> fun () -> set_reg s rd (get_reg s rs1 lxor ri_val s ri)
      | Sparc_asm.Andn -> fun () -> set_reg s rd (get_reg s rs1 land lnot (ri_val s ri))
      | Sparc_asm.Orn -> fun () -> set_reg s rd (get_reg s rs1 lor lnot (ri_val s ri))
      | Sparc_asm.Xnor -> fun () -> set_reg s rd (lnot (get_reg s rs1 lxor ri_val s ri))
      | Sparc_asm.Addx ->
        fun () -> set_reg s rd (get_reg s rs1 + ri_val s ri + if s.icc_c then 1 else 0)
      | Sparc_asm.Sll -> fun () -> set_reg s rd (get_reg s rs1 lsl (ri_val s ri land 31))
      | Sparc_asm.Srl -> fun () -> set_reg s rd (u32 (get_reg s rs1) lsr (ri_val s ri land 31))
      | Sparc_asm.Sra -> fun () -> set_reg s rd (get_reg s rs1 asr (ri_val s ri land 31))
      | Sparc_asm.Umul ->
        fun () ->
          m.cycles <- m.cycles + 18;
          let x = get_reg s rs1 and y = ri_val s ri in
          let p = Int64.mul (Int64.of_int (u32 x)) (Int64.of_int (u32 y)) in
          s.y <- Int64.to_int (Int64.shift_right_logical p 32) land 0xFFFFFFFF;
          set_reg s rd (Int64.to_int (Int64.logand p 0xFFFFFFFFL))
      | Sparc_asm.Smul ->
        fun () ->
          m.cycles <- m.cycles + 18;
          let x = get_reg s rs1 and y = ri_val s ri in
          let p = Int64.mul (Int64.of_int x) (Int64.of_int y) in
          s.y <- Int64.to_int (Int64.shift_right_logical p 32) land 0xFFFFFFFF;
          set_reg s rd (Int64.to_int (Int64.logand p 0xFFFFFFFFL))
      | Sparc_asm.Udiv ->
        fun () ->
          m.cycles <- m.cycles + 36;
          let x = get_reg s rs1 and y = ri_val s ri in
          let dividend =
            Int64.logor
              (Int64.shift_left (Int64.of_int (u32 s.y)) 32)
              (Int64.of_int (u32 x))
          in
          let dv = u32 y in
          if dv = 0 then set_reg s rd 0
          else set_reg s rd (Int64.to_int (Int64.div dividend (Int64.of_int dv)))
      | Sparc_asm.Sdiv ->
        fun () ->
          m.cycles <- m.cycles + 36;
          let x = get_reg s rs1 and y = ri_val s ri in
          let dividend =
            Int64.logor
              (Int64.shift_left (Int64.of_int (u32 s.y)) 32)
              (Int64.of_int (u32 x))
          in
          if y = 0 then set_reg s rd 0
          else set_reg s rd (Int64.to_int (Int64.div dividend (Int64.of_int y)))
      | Sparc_asm.Addcc ->
        fun () ->
          let x = get_reg s rs1 and y = ri_val s ri in
          let r = x + y in
          s.icc_z <- u32 r = 0;
          s.icc_n <- r land 0x80000000 <> 0;
          s.icc_v <- lnot (x lxor y) land (x lxor r) land 0x80000000 <> 0;
          s.icc_c <- u32 r < u32 x;
          set_reg s rd r
      | Sparc_asm.Subcc ->
        fun () ->
          let x = get_reg s rs1 and y = ri_val s ri in
          let r = x - y in
          set_icc_sub s x y r;
          set_reg s rd r)
  | Sparc_asm.Save (rd, rs1, ri) ->
    Some
      (fun () ->
        if s.depth >= nwindows - 2 then raise (Machine_error "register window overflow");
        let v = get_reg s rs1 + ri_val s ri in
        s.cwp <- (s.cwp - 1 + nwindows) mod nwindows;
        s.depth <- s.depth + 1;
        set_reg s rd v)
  | Sparc_asm.Restore (rd, rs1, ri) ->
    Some
      (fun () ->
        if s.depth <= 0 then raise (Machine_error "register window underflow");
        let v = get_reg s rs1 + ri_val s ri in
        s.cwp <- (s.cwp + 1) mod nwindows;
        s.depth <- s.depth - 1;
        set_reg s rd v)
  | Sparc_asm.Rdy rd -> Some (fun () -> set_reg s rd s.y)
  | Sparc_asm.Wry (rs1, ri) -> Some (fun () -> s.y <- u32 (get_reg s rs1 lxor ri_val s ri))
  | Sparc_asm.Ld (rd, rs1, ri) ->
    Some
      (fun () ->
        let a = u32 (get_reg s rs1 + ri_val s ri) in
        daccess m a;
        set_reg s rd (Mem.read_u32 m.mem a))
  | Sparc_asm.Ldsb (rd, rs1, ri) ->
    Some
      (fun () ->
        let a = u32 (get_reg s rs1 + ri_val s ri) in
        daccess m a;
        let v = Mem.read_u8 m.mem a in
        set_reg s rd (if v land 0x80 <> 0 then v - 0x100 else v))
  | Sparc_asm.Ldub (rd, rs1, ri) ->
    Some
      (fun () ->
        let a = u32 (get_reg s rs1 + ri_val s ri) in
        daccess m a;
        set_reg s rd (Mem.read_u8 m.mem a))
  | Sparc_asm.Ldsh (rd, rs1, ri) ->
    Some
      (fun () ->
        let a = u32 (get_reg s rs1 + ri_val s ri) in
        daccess m a;
        let v = Mem.read_u16 m.mem a in
        set_reg s rd (if v land 0x8000 <> 0 then v - 0x10000 else v))
  | Sparc_asm.Lduh (rd, rs1, ri) ->
    Some
      (fun () ->
        let a = u32 (get_reg s rs1 + ri_val s ri) in
        daccess m a;
        set_reg s rd (Mem.read_u16 m.mem a))
  | Sparc_asm.St (rd, rs1, ri) ->
    Some
      (fun () ->
        let a = u32 (get_reg s rs1 + ri_val s ri) in
        waccess m a;
        Mem.write_u32 m.mem a (u32 (get_reg s rd));
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | Sparc_asm.Stb (rd, rs1, ri) ->
    Some
      (fun () ->
        let a = u32 (get_reg s rs1 + ri_val s ri) in
        waccess m a;
        Mem.write_u8 m.mem a (get_reg s rd);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | Sparc_asm.Sth (rd, rs1, ri) ->
    Some
      (fun () ->
        let a = u32 (get_reg s rs1 + ri_val s ri) in
        waccess m a;
        Mem.write_u16 m.mem a (get_reg s rd);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | Sparc_asm.Ldf (rd, rs1, ri) ->
    Some
      (fun () ->
        let a = u32 (get_reg s rs1 + ri_val s ri) in
        daccess m a;
        s.fregs.(rd) <- Mem.read_u32 m.mem a)
  | Sparc_asm.Lddf (rd, rs1, ri) ->
    Some
      (fun () ->
        let a = u32 (get_reg s rs1 + ri_val s ri) in
        daccess m a;
        s.fregs.(rd) <- Mem.read_u32 m.mem a;
        s.fregs.(rd + 1) <- Mem.read_u32 m.mem (a + 4))
  | Sparc_asm.Stf (rd, rs1, ri) ->
    Some
      (fun () ->
        let a = u32 (get_reg s rs1 + ri_val s ri) in
        waccess m a;
        Mem.write_u32 m.mem a s.fregs.(rd);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | Sparc_asm.Stdf (rd, rs1, ri) ->
    Some
      (fun () ->
        let a = u32 (get_reg s rs1 + ri_val s ri) in
        waccess m a;
        Mem.write_u32 m.mem a s.fregs.(rd);
        Mem.write_u32 m.mem (a + 4) s.fregs.(rd + 1);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | Sparc_asm.Fpop (p, rd, rs1, rs2) ->
    Some
      (let open Sparc_asm in
       match p with
       | Fadds ->
         fun () ->
           m.cycles <- m.cycles + 1;
           set_single s rd (get_single s rs1 +. get_single s rs2)
       | Faddd ->
         fun () ->
           m.cycles <- m.cycles + 1;
           set_double s rd (get_double s rs1 +. get_double s rs2)
       | Fsubs ->
         fun () ->
           m.cycles <- m.cycles + 1;
           set_single s rd (get_single s rs1 -. get_single s rs2)
       | Fsubd ->
         fun () ->
           m.cycles <- m.cycles + 1;
           set_double s rd (get_double s rs1 -. get_double s rs2)
       | Fmuls ->
         fun () ->
           m.cycles <- m.cycles + 3;
           set_single s rd (get_single s rs1 *. get_single s rs2)
       | Fmuld ->
         fun () ->
           m.cycles <- m.cycles + 4;
           set_double s rd (get_double s rs1 *. get_double s rs2)
       | Fdivs ->
         fun () ->
           m.cycles <- m.cycles + 12;
           set_single s rd (get_single s rs1 /. get_single s rs2)
       | Fdivd ->
         fun () ->
           m.cycles <- m.cycles + 18;
           set_double s rd (get_double s rs1 /. get_double s rs2)
       | Fmovs -> fun () -> s.fregs.(rd) <- s.fregs.(rs2)
       | Fnegs -> fun () -> set_single s rd (-.get_single s rs2)
       | Fabss -> fun () -> set_single s rd (abs_float (get_single s rs2))
       | Fsqrts ->
         fun () ->
           m.cycles <- m.cycles + 13;
           set_single s rd (sqrt (get_single s rs2))
       | Fsqrtd ->
         fun () ->
           m.cycles <- m.cycles + 25;
           set_double s rd (sqrt (get_double s rs2))
       | Fitos -> fun () -> set_single s rd (float_of_int (sext32 s.fregs.(rs2)))
       | Fitod -> fun () -> set_double s rd (float_of_int (sext32 s.fregs.(rs2)))
       | Fstoi -> fun () -> s.fregs.(rd) <- u32 (int_of_float (Float.trunc (get_single s rs2)))
       | Fdtoi -> fun () -> s.fregs.(rd) <- u32 (int_of_float (Float.trunc (get_double s rs2)))
       | Fstod -> fun () -> set_double s rd (get_single s rs2)
       | Fdtos -> fun () -> set_single s rd (get_double s rs2))
  | Sparc_asm.Fcmps (rs1, rs2) ->
    Some
      (fun () ->
        let a = get_single s rs1 and b = get_single s rs2 in
        s.fcc <- (if a = b then 0 else if a < b then 1 else 2))
  | Sparc_asm.Fcmpd (rs1, rs2) ->
    Some
      (fun () ->
        let a = get_double s rs1 and b = get_double s rs2 in
        s.fcc <- (if a = b then 0 else if a < b then 1 else 2))
  | Sparc_asm.Bicc _ | Sparc_asm.Fbfcc _ | Sparc_asm.Call _ | Sparc_asm.Jmpl _ -> None

(* Compiled closure for a block *terminator* at address [pc]: leaves
   the control-transfer target in [m.btarget] (fallthrough [pc + 8] for
   an untaken branch) — exactly the interpreter's btarget discipline.
   The delay-slot action runs next and the block commit moves btarget
   into pc. *)
let term_of (m : m) pc (insn : Sparc_asm.t) : (unit -> unit) option =
  let s = m.st in
  let ft = pc + 8 in
  match insn with
  | Sparc_asm.Bicc (c, disp) ->
    let tk = pc + (4 * disp) in
    Some
      (let open Sparc_asm in
       match c with
       | BA -> fun () -> m.btarget <- tk
       | BN -> fun () -> m.btarget <- ft
       | BNE -> fun () -> m.btarget <- (if not s.icc_z then tk else ft)
       | BE -> fun () -> m.btarget <- (if s.icc_z then tk else ft)
       | BG -> fun () -> m.btarget <- (if not (s.icc_z || s.icc_n <> s.icc_v) then tk else ft)
       | BLE -> fun () -> m.btarget <- (if s.icc_z || s.icc_n <> s.icc_v then tk else ft)
       | BGE -> fun () -> m.btarget <- (if s.icc_n = s.icc_v then tk else ft)
       | BL -> fun () -> m.btarget <- (if s.icc_n <> s.icc_v then tk else ft)
       | BGU -> fun () -> m.btarget <- (if (not s.icc_c) && not s.icc_z then tk else ft)
       | BLEU -> fun () -> m.btarget <- (if s.icc_c || s.icc_z then tk else ft)
       | BCC -> fun () -> m.btarget <- (if not s.icc_c then tk else ft)
       | BCS -> fun () -> m.btarget <- (if s.icc_c then tk else ft)
       | BPOS -> fun () -> m.btarget <- (if not s.icc_n then tk else ft)
       | BNEG -> fun () -> m.btarget <- (if s.icc_n then tk else ft))
  | Sparc_asm.Fbfcc (c, disp) ->
    let tk = pc + (4 * disp) in
    Some
      (let open Sparc_asm in
       match c with
       | FBE -> fun () -> m.btarget <- (if s.fcc = 0 then tk else ft)
       | FBNE -> fun () -> m.btarget <- (if s.fcc <> 0 then tk else ft)
       | FBL -> fun () -> m.btarget <- (if s.fcc = 1 then tk else ft)
       | FBG -> fun () -> m.btarget <- (if s.fcc = 2 then tk else ft)
       | FBLE -> fun () -> m.btarget <- (if s.fcc = 0 || s.fcc = 1 then tk else ft)
       | FBGE -> fun () -> m.btarget <- (if s.fcc = 0 || s.fcc = 2 then tk else ft))
  | Sparc_asm.Call disp ->
    let tk = pc + (4 * disp) in
    Some
      (fun () ->
        set_reg s 15 pc;
        m.btarget <- tk)
  | Sparc_asm.Jmpl (rd, rs1, ri) ->
    Some
      (fun () ->
        set_reg s rd pc;
        m.btarget <- u32 (get_reg s rs1 + ri_val s ri))
  | _ -> None

(* Only closures for these instructions can raise: a memory fault from
   a load/store, a window spill/fill from Save/Restore, or
   [Block_cache.Retired] from a store that invalidated a resident
   block.  Everything else [act_of] compiles is pure OCaml arithmetic
   that cannot raise (the division arms are zero-guarded), and SPARC
   terminators only write [m.btarget]. *)
let act_raises (insn : Sparc_asm.t) : bool =
  match insn with
  | Sparc_asm.Save _ | Sparc_asm.Restore _
  | Sparc_asm.Ld _ | Sparc_asm.Ldsb _ | Sparc_asm.Ldub _ | Sparc_asm.Ldsh _ | Sparc_asm.Lduh _
  | Sparc_asm.St _ | Sparc_asm.Stb _ | Sparc_asm.Sth _
  | Sparc_asm.Ldf _ | Sparc_asm.Lddf _ | Sparc_asm.Stf _ | Sparc_asm.Stdf _ -> true
  | _ -> false

let rec run_go m tags shift mask fuel =
  if interp_ready m tags shift mask fuel then begin
    step_inner m;
    run_go m tags shift mask (fuel - 1)
  end

include Engine.Make (struct
  type insn = Sparc_asm.t
  type nonrec state = state

  let name = "sparc"
  let big_endian = true
  let stack_reserve = 256

  let init_state () =
    {
      globals = Array.make 8 0;
      wins = Array.make (nwindows * 16) 0;
      cwp = 0;
      depth = 0;
      fregs = Array.make 32 0;
      y = 0;
      icc_n = false;
      icc_z = false;
      icc_v = false;
      icc_c = false;
      fcc = 0;
    }

  let init_mem _ = ()

  let decode = decode
  let delay_slot = true
  let step_inner = step_inner
  let run_go = run_go
  let act_of = act_of
  let term_of = term_of
  let act_raises = act_raises
  let term_raises = false

  let jump_target pc : Sparc_asm.t -> int option = function
    | Sparc_asm.Bicc (Sparc_asm.BA, disp) | Sparc_asm.Call disp -> Some (pc + (4 * disp))
    | _ -> None

  let is_nop : Sparc_asm.t -> bool = function Sparc_asm.Nop -> true | _ -> false
end)

(* Harness calls pass arguments where the backend's convention
   ([Sparc_backend.desc.conv]) puts them. *)
type arg = Vcodebase.Callconv.arg = Int of int | Int64 of int64 | Single of float | Double of float

let conv = Sparc_backend.desc.Vcodebase.Machdesc.conv

let set_arg s n : arg -> unit = function
  | Int v -> set_reg s n v
  | Int64 v -> set_reg s n (Int64.to_int v)
  | Single v -> set_single s n v
  | Double v -> set_double s n v

let call ?fuel (m : t) ~entry args =
  let sp = m.stack_top land lnot 7 in
  set_reg m.st 14 sp; (* %sp = %o6 *)
  set_reg m.st 15 (halt_addr - 8); (* %o7: ret = jmpl %i7+8 *)
  Vcodebase.Callconv.place conv ~set_reg:set_arg m.st ~write32:Mem.write_u32
    ~write64:Mem.write_u64 m.mem ~sp args;
  m.pc <- entry;
  m.npc <- entry + 4;
  run ?fuel m

let ret_int (m : t) = get_reg m.st conv.int_ret (* %o0 after the callee's restore *)
let ret_single (m : t) = get_single m.st conv.fp_ret
let ret_double (m : t) = get_double m.st conv.fp_ret
