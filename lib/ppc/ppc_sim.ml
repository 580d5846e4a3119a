(* PowerPC (32-bit) simulator.

   Big-endian core, no delay slots.  Integer registers hold
   sign-extended 32-bit values in OCaml ints; FP registers hold 64-bit
   IEEE bit patterns (fctiwz leaves an integer word in an FP register,
   as on hardware).  CR0's lt/gt/eq bits, LR and CTR are modeled; other
   CR fields, XER and the record forms are not needed by the VCODE
   port. *)

open Vmachine
open Engine
module A = Ppc_asm

type state = {
  regs : int array;    (* 32, sign-extended 32-bit *)
  fregs : int64 array; (* 32, raw bit patterns *)
  mutable lr : int;
  mutable ctr : int;
  mutable cr_lt : bool;
  mutable cr_gt : bool;
  mutable cr_eq : bool;
}

type m = (A.t, state) machine

(* branchless sign-extension from bit 31 (OCaml ints are 63-bit, so the
   shift pair drops bits 32+ and replicates bit 31 upward) *)
let[@inline] sext32 v = (v lsl 31) asr 31

let u32 v = v land 0xFFFFFFFF

(* register numbers come out of [Ppc_asm.decode] masked to 5 bits *)
let[@inline] get s r = Array.unsafe_get s.regs r
let[@inline] set s r v = Array.unsafe_set s.regs r (sext32 v)

(* RA = 0 means literal zero in D-form address/operand computation *)
let[@inline] get0 s r = if r = 0 then 0 else Array.unsafe_get s.regs r

let fval s f = Int64.float_of_bits s.fregs.(f)
let set_fval s f v = s.fregs.(f) <- Int64.bits_of_float v
let single v = Int32.float_of_bits (Int32.bits_of_float v)

let set_cr_signed s a b =
  s.cr_lt <- a < b;
  s.cr_gt <- a > b;
  s.cr_eq <- a = b

let set_cr_unsigned s a b =
  let a = u32 a and b = u32 b in
  s.cr_lt <- a < b;
  s.cr_gt <- a > b;
  s.cr_eq <- a = b

let rlwinm_mask mb me =
  let mask = ref 0 in
  let i = ref mb in
  let stop = ref false in
  while not !stop do
    mask := !mask lor (1 lsl (31 - !i));
    if !i = me then stop := true else i := (!i + 1) land 31
  done;
  !mask

let rotl32 v sh = u32 ((u32 v lsl sh) lor (u32 v lsr (32 - sh land 31)))

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
  | A.Addi (rt, ra, si) -> set s rt (get0 s ra + si)
  | A.Addis (rt, ra, si) -> set s rt (get0 s ra + (si * 65536))
  | A.Mulli (rt, ra, si) ->
    m.cycles <- m.cycles + 4;
    set s rt (get s ra * si)
  | A.Cmpi (ra, si) -> set_cr_signed s (get s ra) si
  | A.Cmpli (ra, ui) -> set_cr_unsigned s (get s ra) ui
  | A.Ori (ra, rs, ui) -> set s ra (get s rs lor ui)
  | A.Oris (ra, rs, ui) -> set s ra (get s rs lor (ui lsl 16))
  | A.Xori (ra, rs, ui) -> set s ra (get s rs lxor ui)
  | A.Andi (ra, rs, ui) ->
    let v = get s rs land ui in
    set s ra v;
    set_cr_signed s (sext32 v) 0
  | A.Add (rt, ra, rb) -> set s rt (get s ra + get s rb)
  | A.Subf (rt, ra, rb) -> set s rt (get s rb - get s ra)
  | A.Mullw (rt, ra, rb) ->
    m.cycles <- m.cycles + 4;
    set s rt (get s ra * get s rb)
  | A.Divw (rt, ra, rb) ->
    m.cycles <- m.cycles + 19;
    let a = get s ra and b = get s rb in
    if b = 0 then set s rt 0 else set s rt (Int.div a b)
  | A.Divwu (rt, ra, rb) ->
    m.cycles <- m.cycles + 19;
    let a = u32 (get s ra) and b = u32 (get s rb) in
    if b = 0 then set s rt 0 else set s rt (a / b)
  | A.Neg (rt, ra) -> set s rt (-get s ra)
  | A.And (ra, rs, rb) -> set s ra (get s rs land get s rb)
  | A.Or (ra, rs, rb) -> set s ra (get s rs lor get s rb)
  | A.Xor (ra, rs, rb) -> set s ra (get s rs lxor get s rb)
  | A.Nor (ra, rs, rb) -> set s ra (lnot (get s rs lor get s rb))
  | A.Slw (ra, rs, rb) ->
    let sh = get s rb land 63 in
    set s ra (if sh > 31 then 0 else get s rs lsl sh)
  | A.Srw (ra, rs, rb) ->
    let sh = get s rb land 63 in
    set s ra (if sh > 31 then 0 else u32 (get s rs) lsr sh)
  | A.Sraw (ra, rs, rb) ->
    let sh = get s rb land 63 in
    set s ra (get s rs asr min sh 31)
  | A.Srawi (ra, rs, sh) -> set s ra (get s rs asr sh)
  | A.Cntlzw (ra, rs) ->
    let v = u32 (get s rs) in
    let rec go n bit = if bit < 0 || v land (1 lsl bit) <> 0 then n else go (n + 1) (bit - 1) in
    set s ra (if v = 0 then 32 else go 0 31)
  | A.Cmp (ra, rb) -> set_cr_signed s (get s ra) (get s rb)
  | A.Cmpl (ra, rb) -> set_cr_unsigned s (get s ra) (get s rb)
  | A.Rlwinm (ra, rs, sh, mb, me) ->
    set s ra (rotl32 (get s rs) sh land rlwinm_mask mb me)
  | A.Lbz (rt, ra, d) ->
    let a = u32 (get0 s ra) + d in
    daccess m a;
    set s rt (Mem.read_u8 m.mem a)
  | A.Lhz (rt, ra, d) ->
    let a = u32 (get0 s ra) + d in
    daccess m a;
    set s rt (Mem.read_u16 m.mem a)
  | A.Lha (rt, ra, d) ->
    let a = u32 (get0 s ra) + d in
    daccess m a;
    let v = Mem.read_u16 m.mem a in
    set s rt (if v land 0x8000 <> 0 then v - 0x10000 else v)
  | A.Lwz (rt, ra, d) ->
    let a = u32 (get0 s ra) + d in
    daccess m a;
    set s rt (Mem.read_u32 m.mem a)
  | A.Stb (rt, ra, d) ->
    let a = u32 (get0 s ra) + d in
    waccess m a;
    Mem.write_u8 m.mem a (get s rt)
  | A.Sth (rt, ra, d) ->
    let a = u32 (get0 s ra) + d in
    waccess m a;
    Mem.write_u16 m.mem a (get s rt)
  | A.Stw (rt, ra, d) ->
    let a = u32 (get0 s ra) + d in
    waccess m a;
    Mem.write_u32 m.mem a (u32 (get s rt))
  | A.Lfs (t, ra, d) ->
    let a = u32 (get0 s ra) + d in
    daccess m a;
    set_fval s t (Int32.float_of_bits (Int32.of_int (Mem.read_u32 m.mem a)))
  | A.Lfd (t, ra, d) ->
    let a = u32 (get0 s ra) + d in
    daccess m a;
    s.fregs.(t) <- Mem.read_u64 m.mem a
  | A.Stfs (t, ra, d) ->
    let a = u32 (get0 s ra) + d in
    waccess m a;
    Mem.write_u32 m.mem a (Int32.to_int (Int32.bits_of_float (fval s t)) land 0xFFFFFFFF)
  | A.Stfd (t, ra, d) ->
    let a = u32 (get0 s ra) + d in
    waccess m a;
    Mem.write_u64 m.mem a s.fregs.(t)
  | A.B li -> m.btarget <- pc + (4 * li)
  | A.Bl li ->
    s.lr <- pc + 4;
    m.btarget <- pc + (4 * li)
  | A.Bc (bo, bi, bd) ->
    let bit = match bi with 0 -> s.cr_lt | 1 -> s.cr_gt | 2 -> s.cr_eq | _ -> false in
    let taken =
      match bo with
      | 12 -> bit
      | 4 -> not bit
      | 20 -> true
      | _ -> raise (Machine_error (Printf.sprintf "unsupported BO %d at 0x%x" bo pc))
    in
    if taken then m.btarget <- pc + (4 * bd)
  | A.Blr -> m.btarget <- u32 s.lr
  | A.Bctr -> m.btarget <- u32 s.ctr
  | A.Bctrl ->
    s.lr <- pc + 4;
    m.btarget <- u32 s.ctr
  | A.Mflr rt -> set s rt s.lr
  | A.Mtlr rs -> s.lr <- u32 (get s rs)
  | A.Mtctr rs -> s.ctr <- u32 (get s rs)
  | A.Fadd (t, a, b) -> m.cycles <- m.cycles + 2; set_fval s t (fval s a +. fval s b)
  | A.Fsub (t, a, b) -> m.cycles <- m.cycles + 2; set_fval s t (fval s a -. fval s b)
  | A.Fmul (t, a, c) -> m.cycles <- m.cycles + 3; set_fval s t (fval s a *. fval s c)
  | A.Fdiv (t, a, b) -> m.cycles <- m.cycles + 17; set_fval s t (fval s a /. fval s b)
  | A.Fadds (t, a, b) -> m.cycles <- m.cycles + 2; set_fval s t (single (fval s a +. fval s b))
  | A.Fsubs (t, a, b) -> m.cycles <- m.cycles + 2; set_fval s t (single (fval s a -. fval s b))
  | A.Fmuls (t, a, c) -> m.cycles <- m.cycles + 3; set_fval s t (single (fval s a *. fval s c))
  | A.Fdivs (t, a, b) -> m.cycles <- m.cycles + 17; set_fval s t (single (fval s a /. fval s b))
  | A.Fneg (t, b) -> set_fval s t (-.fval s b)
  | A.Fmr (t, b) -> s.fregs.(t) <- s.fregs.(b)
  | A.Frsp (t, b) -> set_fval s t (single (fval s b))
  | A.Fctiwz (t, b) ->
    let v = Int64.of_float (Float.trunc (fval s b)) in
    s.fregs.(t) <- Int64.logand v 0xFFFFFFFFL
  | A.Fcmpu (a, b) ->
    let x = fval s a and y = fval s b in
    s.cr_lt <- x < y;
    s.cr_gt <- x > y;
    s.cr_eq <- x = y);
  m.pc <- m.btarget

(* ------------------------------------------------------------------ *)
(* Compiled closures for the engine's superblocks and regions: each one
   replicates its [step_inner] arm exactly — same arithmetic, same
   memory-access order, same cycle surcharges — so a compiled run
   retires with the same architectural state and timing as the
   interpreter.  No delay slots: a block is body instructions plus
   (optionally) the control transfer itself, whose closure leaves the
   target in [m.btarget] for the commit.  A [Bc] with an unsupported BO
   field compiles to a closure raising the interpreter's exact machine
   error, which is why PPC terminators count as can-raise. *)

(* Compiled action for one *body* (non-control) instruction; [None]
   for the control transfers compiled via [term_of].  Store closures
   test the block cache's dirty flag after writing and abort with
   [Block_cache.Retired]. *)
let act_of (m : m) (insn : A.t) : (unit -> unit) option =
  let s = m.st in
  match insn with
  | A.Addi (rt, ra, si) -> Some (fun () -> set s rt (get0 s ra + si))
  | A.Addis (rt, ra, si) ->
    let v = si * 65536 in
    Some (fun () -> set s rt (get0 s ra + v))
  | A.Mulli (rt, ra, si) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 4;
        set s rt (get s ra * si))
  | A.Cmpi (ra, si) -> Some (fun () -> set_cr_signed s (get s ra) si)
  | A.Cmpli (ra, ui) -> Some (fun () -> set_cr_unsigned s (get s ra) ui)
  | A.Ori (ra, rs, ui) -> Some (fun () -> set s ra (get s rs lor ui))
  | A.Oris (ra, rs, ui) ->
    let v = ui lsl 16 in
    Some (fun () -> set s ra (get s rs lor v))
  | A.Xori (ra, rs, ui) -> Some (fun () -> set s ra (get s rs lxor ui))
  | A.Andi (ra, rs, ui) ->
    Some
      (fun () ->
        let v = get s rs land ui in
        set s ra v;
        set_cr_signed s (sext32 v) 0)
  | A.Add (rt, ra, rb) -> Some (fun () -> set s rt (get s ra + get s rb))
  | A.Subf (rt, ra, rb) -> Some (fun () -> set s rt (get s rb - get s ra))
  | A.Mullw (rt, ra, rb) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 4;
        set s rt (get s ra * get s rb))
  | A.Divw (rt, ra, rb) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 19;
        let a = get s ra and b = get s rb in
        if b = 0 then set s rt 0 else set s rt (Int.div a b))
  | A.Divwu (rt, ra, rb) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 19;
        let a = u32 (get s ra) and b = u32 (get s rb) in
        if b = 0 then set s rt 0 else set s rt (a / b))
  | A.Neg (rt, ra) -> Some (fun () -> set s rt (-get s ra))
  | A.And (ra, rs, rb) -> Some (fun () -> set s ra (get s rs land get s rb))
  | A.Or (ra, rs, rb) -> Some (fun () -> set s ra (get s rs lor get s rb))
  | A.Xor (ra, rs, rb) -> Some (fun () -> set s ra (get s rs lxor get s rb))
  | A.Nor (ra, rs, rb) -> Some (fun () -> set s ra (lnot (get s rs lor get s rb)))
  | A.Slw (ra, rs, rb) ->
    Some
      (fun () ->
        let sh = get s rb land 63 in
        set s ra (if sh > 31 then 0 else get s rs lsl sh))
  | A.Srw (ra, rs, rb) ->
    Some
      (fun () ->
        let sh = get s rb land 63 in
        set s ra (if sh > 31 then 0 else u32 (get s rs) lsr sh))
  | A.Sraw (ra, rs, rb) ->
    Some
      (fun () ->
        let sh = get s rb land 63 in
        set s ra (get s rs asr min sh 31))
  | A.Srawi (ra, rs, sh) -> Some (fun () -> set s ra (get s rs asr sh))
  | A.Cntlzw (ra, rs) ->
    Some
      (fun () ->
        let v = u32 (get s rs) in
        let rec go n bit =
          if bit < 0 || v land (1 lsl bit) <> 0 then n else go (n + 1) (bit - 1)
        in
        set s ra (if v = 0 then 32 else go 0 31))
  | A.Cmp (ra, rb) -> Some (fun () -> set_cr_signed s (get s ra) (get s rb))
  | A.Cmpl (ra, rb) -> Some (fun () -> set_cr_unsigned s (get s ra) (get s rb))
  | A.Rlwinm (ra, rs, sh, mb, me) ->
    let mask = rlwinm_mask mb me in
    Some (fun () -> set s ra (rotl32 (get s rs) sh land mask))
  | A.Lbz (rt, ra, d) ->
    Some
      (fun () ->
        let a = u32 (get0 s ra) + d in
        daccess m a;
        set s rt (Mem.read_u8 m.mem a))
  | A.Lhz (rt, ra, d) ->
    Some
      (fun () ->
        let a = u32 (get0 s ra) + d in
        daccess m a;
        set s rt (Mem.read_u16 m.mem a))
  | A.Lha (rt, ra, d) ->
    Some
      (fun () ->
        let a = u32 (get0 s ra) + d in
        daccess m a;
        let v = Mem.read_u16 m.mem a in
        set s rt (if v land 0x8000 <> 0 then v - 0x10000 else v))
  | A.Lwz (rt, ra, d) ->
    Some
      (fun () ->
        let a = u32 (get0 s ra) + d in
        daccess m a;
        set s rt (Mem.read_u32 m.mem a))
  | A.Stb (rt, ra, d) ->
    Some
      (fun () ->
        let a = u32 (get0 s ra) + d in
        waccess m a;
        Mem.write_u8 m.mem a (get s rt);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | A.Sth (rt, ra, d) ->
    Some
      (fun () ->
        let a = u32 (get0 s ra) + d in
        waccess m a;
        Mem.write_u16 m.mem a (get s rt);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | A.Stw (rt, ra, d) ->
    Some
      (fun () ->
        let a = u32 (get0 s ra) + d in
        waccess m a;
        Mem.write_u32 m.mem a (u32 (get s rt));
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | A.Lfs (t, ra, d) ->
    Some
      (fun () ->
        let a = u32 (get0 s ra) + d in
        daccess m a;
        set_fval s t (Int32.float_of_bits (Int32.of_int (Mem.read_u32 m.mem a))))
  | A.Lfd (t, ra, d) ->
    Some
      (fun () ->
        let a = u32 (get0 s ra) + d in
        daccess m a;
        s.fregs.(t) <- Mem.read_u64 m.mem a)
  | A.Stfs (t, ra, d) ->
    Some
      (fun () ->
        let a = u32 (get0 s ra) + d in
        waccess m a;
        Mem.write_u32 m.mem a (Int32.to_int (Int32.bits_of_float (fval s t)) land 0xFFFFFFFF);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | A.Stfd (t, ra, d) ->
    Some
      (fun () ->
        let a = u32 (get0 s ra) + d in
        waccess m a;
        Mem.write_u64 m.mem a s.fregs.(t);
        if Block_cache.dirty m.bc then raise Block_cache.Retired)
  | A.Mflr rt -> Some (fun () -> set s rt s.lr)
  | A.Mtlr rs -> Some (fun () -> s.lr <- u32 (get s rs))
  | A.Mtctr rs -> Some (fun () -> s.ctr <- u32 (get s rs))
  | A.Fadd (t, a, b) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 2;
        set_fval s t (fval s a +. fval s b))
  | A.Fsub (t, a, b) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 2;
        set_fval s t (fval s a -. fval s b))
  | A.Fmul (t, a, c) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 3;
        set_fval s t (fval s a *. fval s c))
  | A.Fdiv (t, a, b) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 17;
        set_fval s t (fval s a /. fval s b))
  | A.Fadds (t, a, b) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 2;
        set_fval s t (single (fval s a +. fval s b)))
  | A.Fsubs (t, a, b) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 2;
        set_fval s t (single (fval s a -. fval s b)))
  | A.Fmuls (t, a, c) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 3;
        set_fval s t (single (fval s a *. fval s c)))
  | A.Fdivs (t, a, b) ->
    Some
      (fun () ->
        m.cycles <- m.cycles + 17;
        set_fval s t (single (fval s a /. fval s b)))
  | A.Fneg (t, b) -> Some (fun () -> set_fval s t (-.fval s b))
  | A.Fmr (t, b) -> Some (fun () -> s.fregs.(t) <- s.fregs.(b))
  | A.Frsp (t, b) -> Some (fun () -> set_fval s t (single (fval s b)))
  | A.Fctiwz (t, b) ->
    Some
      (fun () ->
        let v = Int64.of_float (Float.trunc (fval s b)) in
        s.fregs.(t) <- Int64.logand v 0xFFFFFFFFL)
  | A.Fcmpu (a, b) ->
    Some
      (fun () ->
        let x = fval s a and y = fval s b in
        s.cr_lt <- x < y;
        s.cr_gt <- x > y;
        s.cr_eq <- x = y)
  | A.B _ | A.Bl _ | A.Bc _ | A.Blr | A.Bctr | A.Bctrl -> None

(* Compiled closure for a block *terminator* at address [pc]: leaves
   the control-transfer target in [m.btarget] (fallthrough [pc + 4] for
   an untaken branch) — exactly the interpreter's discipline; the
   commit moves it into pc. *)
let term_of (m : m) pc (insn : A.t) : (unit -> unit) option =
  let s = m.st in
  let ft = pc + 4 in
  match insn with
  | A.B li ->
    let tk = pc + (4 * li) in
    Some (fun () -> m.btarget <- tk)
  | A.Bl li ->
    let tk = pc + (4 * li) in
    Some
      (fun () ->
        s.lr <- pc + 4;
        m.btarget <- tk)
  | A.Bc (bo, bi, bd) -> (
    let tk = pc + (4 * bd) in
    let bit () = match bi with 0 -> s.cr_lt | 1 -> s.cr_gt | 2 -> s.cr_eq | _ -> false in
    match bo with
    | 12 -> Some (fun () -> m.btarget <- (if bit () then tk else ft))
    | 4 -> Some (fun () -> m.btarget <- (if not (bit ()) then tk else ft))
    | 20 -> Some (fun () -> m.btarget <- tk)
    | _ ->
      Some
        (fun () -> raise (Machine_error (Printf.sprintf "unsupported BO %d at 0x%x" bo pc))))
  | A.Blr -> Some (fun () -> m.btarget <- u32 s.lr)
  | A.Bctr -> Some (fun () -> m.btarget <- u32 s.ctr)
  | A.Bctrl ->
    Some
      (fun () ->
        s.lr <- pc + 4;
        m.btarget <- u32 s.ctr)
  | _ -> None

(* Only closures for these instructions can raise: a memory fault from
   a load/store, or [Block_cache.Retired] from a store that invalidated
   a resident block.  Everything else [act_of] compiles is pure OCaml
   arithmetic that cannot raise (the division arms are zero-guarded),
   so the per-instruction [m.blk_i] bookkeeping is baked in at compile
   time for can-raise instructions alone and elided everywhere else.
   The terminator is always classified can-raise: the unsupported-BO
   trap raises from inside its closure. *)
let act_raises (insn : A.t) : bool =
  match insn with
  | A.Lbz _ | A.Lhz _ | A.Lha _ | A.Lwz _ | A.Stb _ | A.Sth _ | A.Stw _
  | A.Lfs _ | A.Lfd _ | A.Stfs _ | A.Stfd _ -> true
  | _ -> false

let rec run_go m tags shift mask fuel =
  if interp_ready m tags shift mask fuel then begin
    step_inner m;
    run_go m tags shift mask (fuel - 1)
  end

include Engine.Make (struct
  type insn = A.t
  type nonrec state = state

  let name = "ppc"
  let big_endian = true
  let stack_reserve = 256

  let init_state () =
    {
      regs = Array.make 32 0;
      fregs = Array.make 32 0L;
      lr = 0;
      ctr = 0;
      cr_lt = false;
      cr_gt = false;
      cr_eq = false;
    }

  let init_mem _ = ()

  let decode = decode
  let delay_slot = false
  let step_inner = step_inner
  let run_go = run_go
  let act_of = act_of
  let term_of = term_of
  let act_raises = act_raises
  let term_raises = true

  let jump_target pc : A.t -> int option = function
    | A.B li | A.Bl li -> Some (pc + (4 * li))
    | A.Bc (20, _, bd) -> Some (pc + (4 * bd))
    | _ -> None

  let is_nop : A.t -> bool = function A.Ori (0, 0, 0) -> true | _ -> false
end)

(* Harness calls pass arguments where the backend's convention
   ([Ppc_backend.desc.conv]) puts them. *)
type arg = Vcodebase.Callconv.arg = Int of int | Int64 of int64 | Single of float | Double of float

let conv = Ppc_backend.desc.Vcodebase.Machdesc.conv

let set_arg s n : arg -> unit = function
  | Int v -> set s n v
  | Int64 v -> set s n (Int64.to_int v)
  | Single v -> set_fval s n (single v)
  | Double v -> set_fval s n v

let call ?fuel (m : t) ~entry args =
  let sp = m.stack_top land lnot 7 in
  set m.st 1 sp;
  m.st.lr <- halt_addr;
  Vcodebase.Callconv.place conv ~set_reg:set_arg m.st ~write32:Mem.write_u32
    ~write64:Mem.write_u64 m.mem ~sp args;
  m.pc <- entry;
  run ?fuel m

let ret_int (m : t) = m.st.regs.(conv.int_ret)
let ret_double (m : t) = fval m.st conv.fp_ret
let ret_single (m : t) = fval m.st conv.fp_ret
