(* VCODE: the client-facing dynamic code generation interface.

   [Make] instantiates the machine-independent API over one target port
   (MIPS, SPARC, Alpha).  The API mirrors the paper's macro interface:

   - [lambda] / [end_gen] bracket the generation of one function
     (v_lambda / v_end, section 3.2);
   - [getreg]/[putreg], [genlabel]/[label], [local] manage VCODE objects;
   - the generic emitters ([arith], [load], ...) plus the flat
     paper-style instruction names in [Names] (v_addii becomes
     [Names.addii]) specify code;
   - [Sched] is the portable delay-slot interface of section 5.3
     (v_schedule_delay / v_raw_load);
   - [Strength] is the multiplication/division strength reducer built on
     top of VCODE described in section 5.4;
   - [Ext] is the extensible-instruction registry driven by the
     specification language of section 5.4 (see {!Spec_lang}).

   Emission is in place: each call encodes machine words directly into
   the function's code buffer.  The only bookkeeping is labels and
   unresolved jumps (see {!Vcodebase.Gen}). *)

open Vcodebase

(* Re-export: the extension specification language (section 5.4). *)
module Spec_lang = Spec_lang

(* The result of [end_gen]: everything needed to install and run the
   dynamically generated function. *)
type code = {
  gen : Gen.t;
  base : int;        (* address the code was generated for *)
  entry_addr : int;  (* address of the first instruction to execute *)
  code_bytes : int;
}

module type TARGET = Target.S

(* Operand-validation switch, the paper's NDEBUG discipline: the C
   VCODE compiles its assertion macros out for production use.  [Make]
   instantiates the API with checks on (the default); [Make_unchecked]
   with checks off.  Both run the same emission code and produce
   bit-for-bit identical machine words — only the misuse diagnostics
   (type/class/lifecycle validation) are elided. *)
module type CHECKS = sig
  val enabled : bool
end

module Checked : CHECKS = struct let enabled = true end
module Unchecked : CHECKS = struct let enabled = false end

(* ------------------------------------------------------------------ *)
(* Operand validation, shared by every [Make_gen] instantiation.

   These live outside the functor and are deliberately [@inline never]:
   in a checked instantiation an emitter pays one direct call here; in
   an unchecked one the guard compiles down to a load-test-branch with
   the call in the never-taken arm, so the emitter's inlined body stays
   a few instructions instead of dragging a dead copy of the validation
   (and its diagnostic-string construction) into every call site. *)

let[@inline never] bad name t =
  Verror.fail
    (Verror.Bad_type (Printf.sprintf "%s.%s" name (Vtype.to_string t)))

(* Cold path: the diagnostic string is built only on failure — the hot
   path tests [Reg.matches_type] inline and never touches the
   instruction name. *)
let[@inline never] bad_reg name t r =
  Verror.fail
    (Verror.Bad_operand
       (Printf.sprintf "%s.%s: register %s has the wrong class" name
          (Vtype.to_string t) (Reg.to_string r)))

let[@inline] chk_reg name t r = if not (Reg.matches_type t r) then bad_reg name t r

let word_ty = function
  | Vtype.I | Vtype.U | Vtype.L | Vtype.UL | Vtype.P -> true
  | _ -> false

let[@inline never] validate_arith g (op : Op.binop) (t : Vtype.t) rd rs1 rs2 =
  Gen.check_open g;
  let ok =
    match op with
    | Op.Add | Op.Sub | Op.Mul | Op.Div -> word_ty t || Vtype.is_float t
    | Op.Mod -> word_ty t
    | Op.And | Op.Or | Op.Xor | Op.Lsh | Op.Rsh -> (
      match t with Vtype.P -> false | _ -> word_ty t)
  in
  if not ok then bad (Op.binop_to_string op) t;
  if not (Reg.matches_type t rd) then bad_reg (Op.binop_to_string op) t rd;
  if not (Reg.matches_type t rs1) then bad_reg (Op.binop_to_string op) t rs1;
  if not (Reg.matches_type t rs2) then bad_reg (Op.binop_to_string op) t rs2

let[@inline never] validate_arith_imm g (op : Op.binop) (t : Vtype.t) rd rs1 =
  Gen.check_open g;
  if Vtype.is_float t then bad (Op.binop_to_string op ^ "i") t;
  if not (word_ty t) then bad (Op.binop_to_string op ^ "i") t;
  if not (Reg.matches_type t rd) then bad_reg (Op.binop_to_string op) t rd;
  if not (Reg.matches_type t rs1) then bad_reg (Op.binop_to_string op) t rs1

let[@inline never] validate_unary g (op : Op.unop) (t : Vtype.t) rd rs =
  Gen.check_open g;
  let ok =
    match op with
    | Op.Com | Op.Not -> (match t with Vtype.P -> false | _ -> word_ty t)
    | Op.Mov -> word_ty t || Vtype.is_float t
    | Op.Neg -> (
      match t with Vtype.P -> false | _ -> word_ty t || Vtype.is_float t)
  in
  if not ok then bad (Op.unop_to_string op) t;
  if not (Reg.matches_type t rd) then bad_reg (Op.unop_to_string op) t rd;
  if not (Reg.matches_type t rs) then bad_reg (Op.unop_to_string op) t rs

let[@inline never] validate_set g (t : Vtype.t) rd =
  Gen.check_open g;
  if not (word_ty t) then bad "set" t;
  chk_reg "set" t rd

let[@inline never] validate_setf g (t : Vtype.t) rd =
  Gen.check_open g;
  if not (Vtype.is_float t) then bad "setf" t;
  chk_reg "setf" t rd

let[@inline never] validate_cvt g ~from ~to_ rd rs =
  Gen.check_open g;
  if not (Op.conversion_ok ~from ~to_) then
    bad (Printf.sprintf "cv%s2" (Vtype.to_string from)) to_;
  chk_reg "cvt" to_ rd;
  chk_reg "cvt" from rs

let[@inline never] validate_mem g name (t : Vtype.t) r base =
  Gen.check_open g;
  (match t with Vtype.V -> bad name t | _ -> ());
  chk_reg name t r;
  chk_reg name Vtype.P base

let[@inline never] validate_mem_reg g name (t : Vtype.t) r base idx =
  Gen.check_open g;
  (match t with Vtype.V -> bad name t | _ -> ());
  chk_reg name t r;
  chk_reg name Vtype.P base;
  chk_reg name Vtype.P idx

module Make_gen (C : CHECKS) (T : Target.S) = struct
  let desc = T.desc
  let checks_enabled = C.enabled

  type gen = Gen.t
  type nonrec code = code

  (* ---------------------------------------------------------------- *)
  (* Lifecycle                                                         *)

  (* Begin generating a function.  [sig_] is the paper's parameter type
     string, e.g. "%i%p"; [base] is the address the code will be
     installed at; [leaf] asserts the function makes no calls
     (V_LEAF); [capacity] is an expected-code-size hint in words,
     forwarded to the code buffer; [buf] recycles a slab buffer instead
     (see {!Gen.create}).  Returns the generation state and the
     registers holding the incoming parameters. *)
  let lambda ?(base = 0) ?(leaf = false) ?capacity ?buf (sig_ : string) : gen * Reg.t array =
    if C.enabled && base land 7 <> 0 then
      Verror.fail (Verror.Bad_operand "base must be 8-aligned");
    let g = Gen.create ~base ?capacity ?buf T.desc in
    g.Gen.leaf <- leaf;
    g.Gen.in_function <- true;
    let tys = Array.of_list (Vtype.parse_signature sig_) in
    let args = T.lambda g tys in
    (g, args)

  (* Finish generation: backpatch prologue/epilogue, place constants,
     resolve jumps (v_end). *)
  let end_gen (g : gen) : code =
    if C.enabled then Gen.check_open g;
    (* close the emit-site provenance table before the target finalizer
       appends the epilogue and FP pool, so those words symbolize as
       "epilogue" rather than extending the last client span *)
    Gen.close_provenance g;
    T.finish g;
    g.Gen.finished <- true;
    {
      gen = g;
      base = g.Gen.base;
      entry_addr = Gen.code_addr g g.Gen.entry_index;
      code_bytes = 4 * Codebuf.length g.Gen.buf;
    }

  (* ---------------------------------------------------------------- *)
  (* Registers, labels, locals                                         *)

  let getreg g ~(cls : [ `Temp | `Var ]) (t : Vtype.t) : Reg.t option =
    Gen.getreg g ~cls ~float:(Vtype.is_float t)

  let getreg_exn g ~cls t =
    match getreg g ~cls t with
    | Some r -> r
    | None ->
      Verror.fail
        (Verror.Registers_exhausted (match cls with `Temp -> "temp" | `Var -> "var"))

  let putreg g r = Gen.putreg g r

  (* Hard-coded register names (section 5.3): T0,T1,... and S0,S1,...
     Constant-foldable and checked against the target's register count. *)
  let treg n = Machdesc.hard_reg T.desc `Temp n
  let sreg n = Machdesc.hard_reg T.desc `Var n

  (* Reclassify a physical register for this function (section 5.3). *)
  let set_reg_class g r (c : [ `Callee | `Caller | `Unavail | `Default ]) =
    Gen.set_reg_class g r
      (match c with
      | `Callee -> Gen.Ocallee
      | `Caller -> Gen.Ocaller
      | `Unavail -> Gen.Ounavail
      | `Default -> Gen.Odefault)

  (* Section 5.3's interrupt-handler scenario in one call: "in an
     interrupt handler all registers are live.  Therefore, for
     correctness, VCODE must treat all registers as callee-saved."
     Every normally caller-saved register is reclassified so the
     backpatched prologue/epilogue saves whatever the handler uses. *)
  let interrupt_mode g =
    Array.iter (fun r -> Gen.set_reg_class g r Gen.Ocallee) T.desc.Machdesc.temps;
    Array.iter (fun r -> Gen.set_reg_class g r Gen.Ocallee) T.desc.Machdesc.ftemps

  let genlabel g = Gen.genlabel g

  (* Route label binds through the target so an interposed peephole
     stage (Make_peephole) can flush its window before the position is
     captured; raw ports delegate straight to [Gen.bind_label]. *)
  let label g l = T.bind_label g l

  (* A local variable on the stack (v_local). *)
  type local = { loc_off : int; loc_ty : Vtype.t }

  let local g (t : Vtype.t) : local =
    let wb = Machdesc.word_bytes T.desc in
    let bytes = Vtype.size ~word_bytes:wb t in
    let off = Gen.alloc_local g ~bytes ~align:(Vtype.align ~word_bytes:wb t) in
    { loc_off = off; loc_ty = t }

  (* A raw block of stack memory (local arrays, buffers). *)
  let local_block g ~bytes ~align : local =
    let off = Gen.alloc_local g ~bytes ~align in
    { loc_off = off; loc_ty = Vtype.P }

  let[@inline] count g k = Gen.count_insn g k

  (* ---------------------------------------------------------------- *)
  (* Generic emitters.  Validation is one guarded call to the shared
     top-level validators.  Destination-register bookkeeping
     ([Gen.note_write]) and instruction counting ([Gen.count_insn])
     live in the backends so every emission path — checked, unchecked,
     or raw [T.*] calls — keeps the prologue save/restore masks and
     statistics correct.  Control-flow emitters below still [count]
     here because ports treat them as multi-word sequences.            *)

  (* Each hot emitter is selected once, at functor-application time:
     the unchecked instantiation binds the port's emitter itself (zero
     interposed frames — [VU.arith] IS [T.arith]), while the checked
     one prepends its validator.  [C.enabled] never appears on the
     per-instruction path. *)

  let arith =
    if not C.enabled then T.arith
    else
      fun g (op : Op.binop) (t : Vtype.t) rd rs1 rs2 ->
        validate_arith g op t rd rs1 rs2;
        T.arith g op t rd rs1 rs2

  let arith_imm =
    if not C.enabled then T.arith_imm
    else
      fun g (op : Op.binop) (t : Vtype.t) rd rs1 imm ->
        validate_arith_imm g op t rd rs1;
        T.arith_imm g op t rd rs1 imm

  (* materialize the address of a local variable/block into [rd] *)
  let local_addr g (l : local) rd =
    arith_imm g Op.Add Vtype.P rd T.desc.Machdesc.sp
      (T.desc.Machdesc.locals_base + l.loc_off)

  let unary =
    if not C.enabled then T.unary
    else
      fun g (op : Op.unop) (t : Vtype.t) rd rs ->
        validate_unary g op t rd rs;
        T.unary g op t rd rs

  let set =
    if not C.enabled then T.set
    else
      fun g (t : Vtype.t) rd imm ->
        validate_set g t rd;
        T.set g t rd imm

  let setf =
    if not C.enabled then T.setf
    else
      fun g (t : Vtype.t) rd v ->
        validate_setf g t rd;
        T.setf g t rd v

  let cvt =
    if not C.enabled then T.cvt
    else
      fun g ~from ~to_ rd rs ->
        validate_cvt g ~from ~to_ rd rs;
        T.cvt g ~from ~to_ rd rs

  (* Memory accesses come in immediate- and register-offset forms.  The
     immediate form is the hot one — it passes the displacement as an
     unboxed int, so steady-state emission allocates nothing.  The
     [Gen.offset]-taking [load]/[store] below are compatibility
     wrappers that dispatch on the variant. *)
  let load_imm =
    if not C.enabled then T.load_imm
    else
      fun g (t : Vtype.t) rd base (off : int) ->
        validate_mem g "ld" t rd base;
        T.load_imm g t rd base off

  let load_reg =
    if not C.enabled then T.load_reg
    else
      fun g (t : Vtype.t) rd base (idx : Reg.t) ->
        validate_mem_reg g "ld" t rd base idx;
        T.load_reg g t rd base idx

  let store_imm =
    if not C.enabled then T.store_imm
    else
      fun g (t : Vtype.t) rv base (off : int) ->
        validate_mem g "st" t rv base;
        T.store_imm g t rv base off

  let store_reg =
    if not C.enabled then T.store_reg
    else
      fun g (t : Vtype.t) rv base (idx : Reg.t) ->
        validate_mem_reg g "st" t rv base idx;
        T.store_reg g t rv base idx

  let load g (t : Vtype.t) rd base (off : Gen.offset) =
    match off with
    | Gen.Oimm i -> load_imm g t rd base i
    | Gen.Oreg r -> load_reg g t rd base r

  let store g (t : Vtype.t) rv base (off : Gen.offset) =
    match off with
    | Gen.Oimm i -> store_imm g t rv base i
    | Gen.Oreg r -> store_reg g t rv base r

  let jump g (t : Gen.jtarget) =
    if C.enabled then Gen.check_open g;
    count g Opk.jmp;
    T.jump g t

  let jal g (t : Gen.jtarget) =
    if C.enabled then begin
      Gen.check_open g;
      if g.Gen.leaf then Verror.fail Verror.Leaf_call
    end;
    g.Gen.made_call <- true;
    count g Opk.jal;
    T.jal g t

  let branch g (c : Op.cond) (t : Vtype.t) rs1 rs2 lab =
    if C.enabled then begin
      Gen.check_open g;
      (match t with
      | Vtype.V -> bad (Op.cond_to_string c) t
      | _ -> if (not (word_ty t)) && not (Vtype.is_float t) then bad (Op.cond_to_string c) t);
      chk_reg "branch" t rs1;
      chk_reg "branch" t rs2
    end;
    count g (Opk.branch c);
    T.branch g c t rs1 rs2 lab

  let branch_imm g (c : Op.cond) (t : Vtype.t) rs1 imm lab =
    if C.enabled then begin
      Gen.check_open g;
      if not (word_ty t) then bad (Op.cond_to_string c ^ "i") t;
      chk_reg "branch" t rs1
    end;
    count g (Opk.branch_imm c);
    T.branch_imm g c t rs1 imm lab

  let ret g (t : Vtype.t) (r : Reg.t option) =
    if C.enabled then begin
      Gen.check_open g;
      match (t, r) with
      | Vtype.V, _ -> ()
      | _, Some r -> chk_reg "ret" t r
      | _, None -> Verror.fail (Verror.Bad_operand "ret: missing value register")
    end;
    count g Opk.ret;
    T.ret g t r

  let nop g =
    if C.enabled then Gen.check_open g;
    count g Opk.nop;
    T.nop g

  (* ---------------------------------------------------------------- *)
  (* Calls with dynamically constructed argument lists                 *)

  let push_arg g (t : Vtype.t) (r : Reg.t) =
    if C.enabled then begin
      Gen.check_open g;
      chk_reg "arg" t r
    end;
    T.push_arg g t r

  let do_call g (target : Gen.jtarget) =
    if C.enabled then begin
      Gen.check_open g;
      if g.Gen.leaf then Verror.fail Verror.Leaf_call
    end;
    g.Gen.made_call <- true;
    count g Opk.call;
    T.do_call g target

  let retval g (t : Vtype.t) (r : Reg.t) =
    if C.enabled then begin
      Gen.check_open g;
      chk_reg "retval" t r
    end;
    count g Opk.retval;
    T.retval g t r

  (* Convenience: a complete call in one step. *)
  let ccall g target ~(args : (Vtype.t * Reg.t) list) ~(ret : (Vtype.t * Reg.t) option) =
    List.iter (fun (t, r) -> push_arg g t r) args;
    do_call g target;
    match ret with None -> () | Some (t, r) -> retval g t r

  (* ---------------------------------------------------------------- *)
  (* Locals access                                                     *)

  let ld_local g (l : local) rd =
    load_imm g l.loc_ty rd T.desc.Machdesc.sp (T.desc.Machdesc.locals_base + l.loc_off)

  let st_local g (l : local) rv =
    store_imm g l.loc_ty rv T.desc.Machdesc.sp (T.desc.Machdesc.locals_base + l.loc_off)

  (* ---------------------------------------------------------------- *)
  (* Portable instruction scheduling (section 5.3)                     *)

  module Sched = struct
    (* v_schedule_delay: emit [branch] with [slot] placed in its delay
       slot when the target has one and [slot] is a single instruction
       with no relocations; otherwise [slot] simply precedes the
       branch. *)
    let schedule_delay g ~(branch : unit -> unit) ~(slot : unit -> unit) =
      (* barrier: the truncate-and-patch surgery below reads buffer
         positions behind the target's back, so an interposed peephole
         window must be flushed first *)
      T.sync g;
      let p0 = Codebuf.length g.Gen.buf in
      let r0 = Gen.reloc_count g and f0 = Gen.fimm_count g in
      slot ();
      let n = Codebuf.length g.Gen.buf - p0 in
      let clean = Gen.reloc_count g = r0 && Gen.fimm_count g = f0 in
      if T.desc.Machdesc.branch_delay_slots = 1 && n = 1 && clean then begin
        let w = Codebuf.get g.Gen.buf p0 in
        Codebuf.truncate g.Gen.buf p0;
        branch ();
        (* the target's branch emitters end with a delay-slot nop *)
        Codebuf.set g.Gen.buf (Codebuf.length g.Gen.buf - 1) w
      end
      else branch ()

    (* v_raw_load: emit [load]; if its result is used within [uses_in]
       VCODE instructions, pad with nops to cover the load delay. *)
    let raw_load g ~(load : unit -> unit) ~uses_in =
      load ();
      let pad = T.desc.Machdesc.load_delay - uses_in in
      for _ = 1 to pad do T.nop g done
  end

  (* ---------------------------------------------------------------- *)
  (* Strength reduction (section 5.4)                                  *)

  module Strength = struct
    let is_pow2 c = c > 0 && c land (c - 1) = 0

    let log2 c =
      let rec go c k = if c = 1 then k else go (c lsr 1) (k + 1) in
      go c 0

    let popcount c =
      let rec go c acc = if c = 0 then acc else go (c lsr 1) (acc + (c land 1)) in
      go c 0

    (* rd <- rs * c using shifts and adds when profitable, otherwise the
       plain multiply.  Never clobbers [rs]. *)
    let mul g (t : Vtype.t) rd rs c =
      let fallback () = arith_imm g Op.Mul t rd rs c in
      if c = 0 then set g t rd 0L
      else if c = 1 then unary g Op.Mov t rd rs
      else if c = -1 then unary g Op.Neg t rd rs
      else
        let neg = c < 0 in
        let c' = abs c in
        let finish () = if neg then unary g Op.Neg t rd rd in
        if c = min_int then fallback ()
        else if is_pow2 c' then begin
          arith_imm g Op.Lsh t rd rs (log2 c');
          finish ()
        end
        else if popcount c' <= 4 then begin
          match getreg g ~cls:`Temp t with
          | None -> fallback ()
          | Some tmp ->
            (* accumulate shifted copies: tmp walks up the set bits *)
            let b0 =
              let rec low c k = if c land 1 = 1 then k else low (c lsr 1) (k + 1) in
              low c' 0
            in
            if b0 = 0 then unary g Op.Mov t tmp rs
            else arith_imm g Op.Lsh t tmp rs b0;
            unary g Op.Mov t rd tmp;
            let prev = ref b0 in
            for b = b0 + 1 to 62 do
              if c' land (1 lsl b) <> 0 then begin
                arith_imm g Op.Lsh t tmp tmp (b - !prev);
                arith g Op.Add t rd rd tmp;
                prev := b
              end
            done;
            putreg g tmp;
            finish ()
        end
        else if is_pow2 (c' + 1) then begin
          (* c = 2^k - 1: rd = (rs << k) - rs *)
          match getreg g ~cls:`Temp t with
          | None -> fallback ()
          | Some tmp ->
            arith_imm g Op.Lsh t tmp rs (log2 (c' + 1));
            arith g Op.Sub t rd tmp rs;
            putreg g tmp;
            finish ()
        end
        else fallback ()

    (* rd <- rs / c with C (truncating) semantics.  Powers of two get the
       shift-with-correction sequence; everything else falls back to the
       divide instruction. *)
    let div g (t : Vtype.t) rd rs c =
      let fallback () = arith_imm g Op.Div t rd rs c in
      let signed = Vtype.is_signed t in
      if c = 1 then unary g Op.Mov t rd rs
      else if c > 1 && is_pow2 c then
        let k = log2 c in
        if not signed then arith_imm g Op.Rsh t rd rs k
        else begin
          match getreg g ~cls:`Temp t with
          | None -> fallback ()
          | Some tmp ->
            let w = T.desc.Machdesc.word_bits in
            (* tmp = rs < 0 ? c-1 : 0, added before the arithmetic shift *)
            arith_imm g Op.Rsh t tmp rs (w - 1);
            arith_imm g Op.Rsh
              (match t with Vtype.I -> Vtype.U | Vtype.L -> Vtype.UL | t -> t)
              tmp tmp (w - k);
            arith g Op.Add t tmp rs tmp;
            arith_imm g Op.Rsh t rd tmp k;
            putreg g tmp
        end
      else fallback ()

    (* rd <- rs mod c (C semantics: sign follows the dividend). *)
    let rem g (t : Vtype.t) rd rs c =
      let signed = Vtype.is_signed t in
      if c > 1 && is_pow2 c && not signed then
        arith_imm g Op.And t rd rs (c - 1)
      else if c > 1 && is_pow2 c then begin
        match getreg g ~cls:`Temp t with
        | None -> arith_imm g Op.Mod t rd rs c
        | Some tmp ->
          div g t tmp rs c;
          arith_imm g Op.Lsh t tmp tmp (log2 c);
          arith g Op.Sub t rd rs tmp;
          putreg g tmp
      end
      else arith_imm g Op.Mod t rd rs c
  end

  (* ---------------------------------------------------------------- *)
  (* Unlimited virtual registers (section 6.2)                         *)

  (* The paper describes this as an optional extension layer under
     construction: "preliminary results indicate that the addition of
     this (optional) support would increase code generation cost by
     roughly a factor of two".  The layer hands out as many registers
     as the client asks for; the first ones map to physical registers,
     the rest live in stack slots and are shuttled through a small set
     of reserved physical registers around each operation.  The factor-
     of-two claim is measured by the "ablation-vregs" bench. *)
  module Virt = struct
    (* outer (physical) emitters, before shadowing *)
    let g_arith = arith
    let g_arith_imm = arith_imm
    let g_unary = unary
    let g_set = set
    let g_branch = branch
    let g_branch_imm = branch_imm
    let g_load_imm = load_imm
    let g_store_imm = store_imm
    let g_ret = ret

    type place = Phys of Reg.t | Slot of local

    type vreg = { vid : int; vty : Vtype.t }

    type t = {
      vg : gen;
      mutable places : place array; (* indexed by vid *)
      mutable nv : int;
      (* reserved shuttle registers for spilled operands *)
      sh0 : Reg.t;
      sh1 : Reg.t;
      sh2 : Reg.t;
    }

    (* Begin using virtual registers on [g].  Reserves three physical
       temporaries as shuttles; everything else left in the allocator is
       handed to virtual registers on demand. *)
    let start (g : gen) : t =
      let grab () = getreg_exn g ~cls:`Temp Vtype.I in
      let sh0 = grab () and sh1 = grab () and sh2 = grab () in
      { vg = g; places = Array.make 16 (Phys sh0); nv = 0; sh0; sh1; sh2 }

    let vreg (s : t) (ty : Vtype.t) : vreg =
      if Vtype.is_float ty then
        Verror.fail (Verror.Unsupported "virtual registers are integer-class");
      let place =
        match getreg s.vg ~cls:`Temp ty with
        | Some r -> Phys r
        | None -> (
          match getreg s.vg ~cls:`Var ty with
          | Some r ->
            Gen.note_write s.vg r;
            Phys r
          | None -> Slot (local s.vg ty))
      in
      if s.nv = Array.length s.places then begin
        let a = Array.make (2 * s.nv) place in
        Array.blit s.places 0 a 0 s.nv;
        s.places <- a
      end;
      s.places.(s.nv) <- place;
      s.nv <- s.nv + 1;
      { vid = s.nv - 1; vty = ty }

    (* bring a virtual register's value into a physical register *)
    let read (s : t) (v : vreg) (shuttle : Reg.t) : Reg.t =
      match s.places.(v.vid) with
      | Phys r -> r
      | Slot l ->
        g_load_imm s.vg l.loc_ty shuttle T.desc.Machdesc.sp
          (T.desc.Machdesc.locals_base + l.loc_off);
        shuttle

    (* the physical register a result should be computed into *)
    let write_reg (s : t) (v : vreg) : Reg.t =
      match s.places.(v.vid) with Phys r -> r | Slot _ -> s.sh0

    (* commit a result computed into [write_reg] *)
    let commit (s : t) (v : vreg) =
      match s.places.(v.vid) with
      | Phys _ -> ()
      | Slot l ->
        g_store_imm s.vg l.loc_ty s.sh0 T.desc.Machdesc.sp
          (T.desc.Machdesc.locals_base + l.loc_off)

    let arith (s : t) op ty (d : vreg) (a : vreg) (b : vreg) =
      let ra = read s a s.sh1 in
      let rb = read s b s.sh2 in
      g_arith s.vg op ty (write_reg s d) ra rb;
      commit s d

    let arith_imm (s : t) op ty (d : vreg) (a : vreg) imm =
      let ra = read s a s.sh1 in
      g_arith_imm s.vg op ty (write_reg s d) ra imm;
      commit s d

    let unary (s : t) op ty (d : vreg) (a : vreg) =
      let ra = read s a s.sh1 in
      g_unary s.vg op ty (write_reg s d) ra;
      commit s d

    let set (s : t) ty (d : vreg) imm =
      g_set s.vg ty (write_reg s d) imm;
      commit s d

    let branch (s : t) c ty (a : vreg) (b : vreg) lab =
      let ra = read s a s.sh1 in
      let rb = read s b s.sh2 in
      g_branch s.vg c ty ra rb lab

    let branch_imm (s : t) c ty (a : vreg) imm lab =
      let ra = read s a s.sh1 in
      g_branch_imm s.vg c ty ra imm lab

    (* move between the virtual and physical worlds *)
    let mov_in (s : t) ty (d : vreg) (src : Reg.t) =
      g_unary s.vg Op.Mov ty (write_reg s d) src;
      commit s d

    let mov_out (s : t) ty (dst : Reg.t) (a : vreg) =
      let ra = read s a s.sh1 in
      g_unary s.vg Op.Mov ty dst ra

    let ret (s : t) ty (a : vreg) =
      let ra = read s a s.sh1 in
      g_ret s.vg ty (Some ra)

    (* how many virtual registers ended up spilled (for tests) *)
    let spilled (s : t) =
      Array.fold_left
        (fun acc p -> match p with Slot _ -> acc + 1 | Phys _ -> acc)
        0
        (Array.sub s.places 0 s.nv)
  end

  (* ---------------------------------------------------------------- *)
  (* Extensible instructions (section 5.4)                             *)

  module Ext = struct
    type emitter = Gen.t -> Reg.t array -> unit
    type emitter_imm = Gen.t -> Reg.t array -> int -> unit

    let machine_table : (string, emitter) Hashtbl.t =
      let h = Hashtbl.create 31 in
      List.iter (fun (n, f) -> Hashtbl.replace h n f) T.extra_insns;
      h

    let machine_imm_table : (string, emitter_imm) Hashtbl.t =
      let h = Hashtbl.create 31 in
      List.iter (fun (n, f) -> Hashtbl.replace h n f) T.extra_imm_insns;
      h

    let table : (string * Vtype.t, emitter) Hashtbl.t = Hashtbl.create 31
    let imm_table : (string * Vtype.t, emitter_imm) Hashtbl.t = Hashtbl.create 31

    (* Register an extension instruction directly. *)
    let define ~name ~(ty : Vtype.t) (f : emitter) =
      Hashtbl.replace table (name, ty) f

    (* Register the immediate form (the paper's trailing "i"). *)
    let define_imm ~name ~(ty : Vtype.t) (f : emitter_imm) =
      Hashtbl.replace imm_table (name, ty) f

    let defined ~name ~ty = Hashtbl.mem table (name, ty)
    let defined_imm ~name ~ty = Hashtbl.mem imm_table (name, ty)

    (* Emit a previously registered extension instruction. *)
    let emit g ~name ~(ty : Vtype.t) (args : Reg.t array) =
      match Hashtbl.find_opt table (name, ty) with
      | Some f ->
        count g Opk.ext;
        f g args
      | None ->
        Verror.fail
          (Verror.Spec (Printf.sprintf "extension v_%s%s not defined" name (Vtype.to_string ty)))

    (* Emit the immediate form: v_<name><ty>i. *)
    let emit_imm g ~name ~(ty : Vtype.t) (args : Reg.t array) imm =
      match Hashtbl.find_opt imm_table (name, ty) with
      | Some f ->
        count g Opk.ext;
        f g args imm
      | None ->
        Verror.fail
          (Verror.Spec
             (Printf.sprintf "extension v_%s%si not defined" name (Vtype.to_string ty)))

    (* Compile a [seq] implementation to an emitter.  Parameters are
       positional into the call-time register array; [scratch] operands
       allocate a temp register for the duration. *)
    let compile_seq (params : string list) (ty : Vtype.t) (body : Spec_lang.vinsn list) :
        emitter =
      let index p =
        let rec go i = function
          | [] -> Verror.fail (Verror.Spec (Printf.sprintf "unknown parameter %s" p))
          | q :: _ when q = p -> i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 params
      in
      (* pre-resolve operand lookups *)
      let resolve (o : Spec_lang.operand) : [ `Arg of int | `Imm of int | `Scratch ] =
        match o with
        | Spec_lang.Param p -> `Arg (index p)
        | Spec_lang.Imm i -> `Imm i
        | Spec_lang.Scratch -> `Scratch
      in
      let body =
        List.map (fun (v : Spec_lang.vinsn) -> (v.Spec_lang.vop, List.map resolve v.operands)) body
      in
      fun g (args : Reg.t array) ->
        let scratch = ref None in
        let reg = function
          | `Arg i -> args.(i)
          | `Scratch -> (
            match !scratch with
            | Some r -> r
            | None ->
              let r = getreg_exn g ~cls:`Temp ty in
              scratch := Some r;
              r)
          | `Imm _ -> Verror.fail (Verror.Spec "immediate used where register expected")
        in
        let binop op = function
          | [ d; a; `Imm i ] -> arith_imm g op ty (reg d) (reg a) i
          | [ d; a; b ] -> arith g op ty (reg d) (reg a) (reg b)
          | _ -> Verror.fail (Verror.Spec "binary op needs 3 operands")
        in
        let unop op = function
          | [ d; s ] -> unary g op ty (reg d) (reg s)
          | _ -> Verror.fail (Verror.Spec "unary op needs 2 operands")
        in
        List.iter
          (fun (vop, operands) ->
            match vop with
            | "add" -> binop Op.Add operands
            | "sub" -> binop Op.Sub operands
            | "mul" -> binop Op.Mul operands
            | "div" -> binop Op.Div operands
            | "mod" -> binop Op.Mod operands
            | "and" -> binop Op.And operands
            | "or" -> binop Op.Or operands
            | "xor" -> binop Op.Xor operands
            | "lsh" -> binop Op.Lsh operands
            | "rsh" -> binop Op.Rsh operands
            | "mov" -> unop Op.Mov operands
            | "neg" -> unop Op.Neg operands
            | "com" -> unop Op.Com operands
            | "not" -> unop Op.Not operands
            | "set" -> (
              match operands with
              | [ d; `Imm i ] -> set g ty (reg d) (Int64.of_int i)
              | _ -> Verror.fail (Verror.Spec "set needs (reg, imm)"))
            | "nop" -> nop g
            | other -> Verror.fail (Verror.Spec (Printf.sprintf "unknown seq op %S" other)))
          body;
        match !scratch with Some r -> putreg g r | None -> ()

    (* Load a textual specification (the paper's one-line-per-family
       mechanism).  Machine implementations resolve against the target's
       [extra_insns]; [seq] implementations work on every target. *)
    let load_spec (s : string) =
      let specs = Spec_lang.parse s in
      List.iter
        (fun (sp : Spec_lang.t) ->
          List.iter
            (fun (e : Spec_lang.entry) ->
              List.iter
                (fun ty ->
                  let em =
                    match e.Spec_lang.impl with
                    | Spec_lang.Machine m -> (
                      match Hashtbl.find_opt machine_table m with
                      | Some f -> f
                      | None ->
                        Verror.fail
                          (Verror.Spec
                             (Printf.sprintf "machine instruction %S not provided by target %s"
                                m T.desc.Machdesc.name)))
                    | Spec_lang.Seq body -> compile_seq sp.Spec_lang.params ty body
                  in
                  define ~name:sp.Spec_lang.name ~ty em;
                  (* the optional immediate implementation *)
                  match e.Spec_lang.imm_impl with
                  | None -> ()
                  | Some (Spec_lang.Machine m) -> (
                    match Hashtbl.find_opt machine_imm_table m with
                    | Some f -> define_imm ~name:sp.Spec_lang.name ~ty f
                    | None ->
                      Verror.fail
                        (Verror.Spec
                           (Printf.sprintf
                              "immediate machine instruction %S not provided by target %s" m
                              T.desc.Machdesc.name)))
                  | Some (Spec_lang.Seq _) ->
                    Verror.fail
                      (Verror.Spec "immediate implementations must be machine instructions"))
                e.Spec_lang.tys)
            sp.Spec_lang.entries)
        specs
  end

  (* ---------------------------------------------------------------- *)
  (* Debugging support                                                 *)

  (* Disassemble the generated buffer (the paper laments the lack of a
     symbolic debugger for dynamic code; a disassembler over the emitted
     words is the first half of one). *)
  let dump (g : gen) : string list =
    let words = Codebuf.to_array g.Gen.buf in
    Array.to_list
      (Array.mapi
         (fun i w ->
           let addr = g.Gen.base + (4 * i) in
           Printf.sprintf "0x%06x:  %08x  %s" addr w (T.disasm ~word:w ~addr))
         words)

  let pp_dump fmt g = List.iter (fun l -> Fmt.pf fmt "%s@." l) (dump g)

  (* ---------------------------------------------------------------- *)
  (* Paper-style flat instruction names                                *)

  (* One function per VCODE instruction, named as in the paper: base op,
     type letter, trailing [i] for immediate forms (v_addii is [addii]).
     Immediates are OCaml ints for convenience. *)
  module Names = struct

    (* arithmetic *)
    let addi g d a b = arith g Op.Add Vtype.I d a b
    let addu g d a b = arith g Op.Add Vtype.U d a b
    let addl g d a b = arith g Op.Add Vtype.L d a b
    let addul g d a b = arith g Op.Add Vtype.UL d a b
    let addp g d a b = arith g Op.Add Vtype.P d a b
    let addf g d a b = arith g Op.Add Vtype.F d a b
    let addd g d a b = arith g Op.Add Vtype.D d a b
    let addii g d a i = arith_imm g Op.Add Vtype.I d a i
    let addui g d a i = arith_imm g Op.Add Vtype.U d a i
    let addli g d a i = arith_imm g Op.Add Vtype.L d a i
    let adduli g d a i = arith_imm g Op.Add Vtype.UL d a i
    let addpi g d a i = arith_imm g Op.Add Vtype.P d a i

    let subi g d a b = arith g Op.Sub Vtype.I d a b
    let subu g d a b = arith g Op.Sub Vtype.U d a b
    let subl g d a b = arith g Op.Sub Vtype.L d a b
    let subul g d a b = arith g Op.Sub Vtype.UL d a b
    let subp g d a b = arith g Op.Sub Vtype.P d a b
    let subf g d a b = arith g Op.Sub Vtype.F d a b
    let subd g d a b = arith g Op.Sub Vtype.D d a b
    let subii g d a i = arith_imm g Op.Sub Vtype.I d a i
    let subui g d a i = arith_imm g Op.Sub Vtype.U d a i
    let subli g d a i = arith_imm g Op.Sub Vtype.L d a i
    let subuli g d a i = arith_imm g Op.Sub Vtype.UL d a i
    let subpi g d a i = arith_imm g Op.Sub Vtype.P d a i

    let muli g d a b = arith g Op.Mul Vtype.I d a b
    let mulu g d a b = arith g Op.Mul Vtype.U d a b
    let mull g d a b = arith g Op.Mul Vtype.L d a b
    let mulul g d a b = arith g Op.Mul Vtype.UL d a b
    let mulf g d a b = arith g Op.Mul Vtype.F d a b
    let muld g d a b = arith g Op.Mul Vtype.D d a b
    let mulii g d a i = arith_imm g Op.Mul Vtype.I d a i
    let mului g d a i = arith_imm g Op.Mul Vtype.U d a i
    let mulli g d a i = arith_imm g Op.Mul Vtype.L d a i
    let mululi g d a i = arith_imm g Op.Mul Vtype.UL d a i

    let divi g d a b = arith g Op.Div Vtype.I d a b
    let divu g d a b = arith g Op.Div Vtype.U d a b
    let divl g d a b = arith g Op.Div Vtype.L d a b
    let divul g d a b = arith g Op.Div Vtype.UL d a b
    let divf g d a b = arith g Op.Div Vtype.F d a b
    let divd g d a b = arith g Op.Div Vtype.D d a b
    let divii g d a i = arith_imm g Op.Div Vtype.I d a i
    let divui g d a i = arith_imm g Op.Div Vtype.U d a i
    let divli g d a i = arith_imm g Op.Div Vtype.L d a i
    let divuli g d a i = arith_imm g Op.Div Vtype.UL d a i

    let modi g d a b = arith g Op.Mod Vtype.I d a b
    let modu g d a b = arith g Op.Mod Vtype.U d a b
    let modl g d a b = arith g Op.Mod Vtype.L d a b
    let modul g d a b = arith g Op.Mod Vtype.UL d a b
    let modii g d a i = arith_imm g Op.Mod Vtype.I d a i
    let modui g d a i = arith_imm g Op.Mod Vtype.U d a i
    let modli g d a i = arith_imm g Op.Mod Vtype.L d a i
    let moduli g d a i = arith_imm g Op.Mod Vtype.UL d a i

    let andi g d a b = arith g Op.And Vtype.I d a b
    let andu g d a b = arith g Op.And Vtype.U d a b
    let andl g d a b = arith g Op.And Vtype.L d a b
    let andul g d a b = arith g Op.And Vtype.UL d a b
    let andii g d a i = arith_imm g Op.And Vtype.I d a i
    let andui g d a i = arith_imm g Op.And Vtype.U d a i
    let andli g d a i = arith_imm g Op.And Vtype.L d a i
    let anduli g d a i = arith_imm g Op.And Vtype.UL d a i

    let ori g d a b = arith g Op.Or Vtype.I d a b
    let oru g d a b = arith g Op.Or Vtype.U d a b
    let orl g d a b = arith g Op.Or Vtype.L d a b
    let orul g d a b = arith g Op.Or Vtype.UL d a b
    let orii g d a i = arith_imm g Op.Or Vtype.I d a i
    let orui g d a i = arith_imm g Op.Or Vtype.U d a i
    let orli g d a i = arith_imm g Op.Or Vtype.L d a i
    let oruli g d a i = arith_imm g Op.Or Vtype.UL d a i

    let xori g d a b = arith g Op.Xor Vtype.I d a b
    let xoru g d a b = arith g Op.Xor Vtype.U d a b
    let xorl g d a b = arith g Op.Xor Vtype.L d a b
    let xorul g d a b = arith g Op.Xor Vtype.UL d a b
    let xorii g d a i = arith_imm g Op.Xor Vtype.I d a i
    let xorui g d a i = arith_imm g Op.Xor Vtype.U d a i
    let xorli g d a i = arith_imm g Op.Xor Vtype.L d a i
    let xoruli g d a i = arith_imm g Op.Xor Vtype.UL d a i

    let lshi g d a b = arith g Op.Lsh Vtype.I d a b
    let lshu g d a b = arith g Op.Lsh Vtype.U d a b
    let lshl g d a b = arith g Op.Lsh Vtype.L d a b
    let lshul g d a b = arith g Op.Lsh Vtype.UL d a b
    let lshii g d a i = arith_imm g Op.Lsh Vtype.I d a i
    let lshui g d a i = arith_imm g Op.Lsh Vtype.U d a i
    let lshli g d a i = arith_imm g Op.Lsh Vtype.L d a i
    let lshuli g d a i = arith_imm g Op.Lsh Vtype.UL d a i

    let rshi g d a b = arith g Op.Rsh Vtype.I d a b
    let rshu g d a b = arith g Op.Rsh Vtype.U d a b
    let rshl g d a b = arith g Op.Rsh Vtype.L d a b
    let rshul g d a b = arith g Op.Rsh Vtype.UL d a b
    let rshii g d a i = arith_imm g Op.Rsh Vtype.I d a i
    let rshui g d a i = arith_imm g Op.Rsh Vtype.U d a i
    let rshli g d a i = arith_imm g Op.Rsh Vtype.L d a i
    let rshuli g d a i = arith_imm g Op.Rsh Vtype.UL d a i

    (* unary *)
    let comi g d s = unary g Op.Com Vtype.I d s
    let comu g d s = unary g Op.Com Vtype.U d s
    let coml g d s = unary g Op.Com Vtype.L d s
    let comul g d s = unary g Op.Com Vtype.UL d s
    let noti g d s = unary g Op.Not Vtype.I d s
    let notu g d s = unary g Op.Not Vtype.U d s
    let notl g d s = unary g Op.Not Vtype.L d s
    let notul g d s = unary g Op.Not Vtype.UL d s
    let movi g d s = unary g Op.Mov Vtype.I d s
    let movu g d s = unary g Op.Mov Vtype.U d s
    let movl g d s = unary g Op.Mov Vtype.L d s
    let movul g d s = unary g Op.Mov Vtype.UL d s
    let movp g d s = unary g Op.Mov Vtype.P d s
    let movf g d s = unary g Op.Mov Vtype.F d s
    let movd g d s = unary g Op.Mov Vtype.D d s
    let negi g d s = unary g Op.Neg Vtype.I d s
    let negu g d s = unary g Op.Neg Vtype.U d s
    let negl g d s = unary g Op.Neg Vtype.L d s
    let negul g d s = unary g Op.Neg Vtype.UL d s
    let negf g d s = unary g Op.Neg Vtype.F d s
    let negd g d s = unary g Op.Neg Vtype.D d s

    (* constants *)
    let seti g d i = set g Vtype.I d (Int64.of_int i)
    let setu g d i = set g Vtype.U d (Int64.of_int i)
    let setl g d i = set g Vtype.L d (Int64.of_int i)
    let setul g d i = set g Vtype.UL d (Int64.of_int i)
    let setp g d i = set g Vtype.P d (Int64.of_int i)
    let setf_ g d v = setf g Vtype.F d v
    let setd g d v = setf g Vtype.D d v

    (* conversions, named cv<from>2<to> *)
    let cvi2u g d s = cvt g ~from:Vtype.I ~to_:Vtype.U d s
    let cvi2l g d s = cvt g ~from:Vtype.I ~to_:Vtype.L d s
    let cvi2ul g d s = cvt g ~from:Vtype.I ~to_:Vtype.UL d s
    let cvi2f g d s = cvt g ~from:Vtype.I ~to_:Vtype.F d s
    let cvi2d g d s = cvt g ~from:Vtype.I ~to_:Vtype.D d s
    let cvu2i g d s = cvt g ~from:Vtype.U ~to_:Vtype.I d s
    let cvu2l g d s = cvt g ~from:Vtype.U ~to_:Vtype.L d s
    let cvu2ul g d s = cvt g ~from:Vtype.U ~to_:Vtype.UL d s
    let cvu2d g d s = cvt g ~from:Vtype.U ~to_:Vtype.D d s
    let cvl2i g d s = cvt g ~from:Vtype.L ~to_:Vtype.I d s
    let cvl2u g d s = cvt g ~from:Vtype.L ~to_:Vtype.U d s
    let cvl2ul g d s = cvt g ~from:Vtype.L ~to_:Vtype.UL d s
    let cvl2f g d s = cvt g ~from:Vtype.L ~to_:Vtype.F d s
    let cvl2d g d s = cvt g ~from:Vtype.L ~to_:Vtype.D d s
    let cvul2i g d s = cvt g ~from:Vtype.UL ~to_:Vtype.I d s
    let cvul2u g d s = cvt g ~from:Vtype.UL ~to_:Vtype.U d s
    let cvul2l g d s = cvt g ~from:Vtype.UL ~to_:Vtype.L d s
    let cvul2p g d s = cvt g ~from:Vtype.UL ~to_:Vtype.P d s
    let cvp2ul g d s = cvt g ~from:Vtype.P ~to_:Vtype.UL d s
    let cvp2l g d s = cvt g ~from:Vtype.P ~to_:Vtype.L d s
    let cvf2i g d s = cvt g ~from:Vtype.F ~to_:Vtype.I d s
    let cvf2l g d s = cvt g ~from:Vtype.F ~to_:Vtype.L d s
    let cvf2d g d s = cvt g ~from:Vtype.F ~to_:Vtype.D d s
    let cvd2i g d s = cvt g ~from:Vtype.D ~to_:Vtype.I d s
    let cvd2l g d s = cvt g ~from:Vtype.D ~to_:Vtype.L d s
    let cvd2f g d s = cvt g ~from:Vtype.D ~to_:Vtype.F d s

    (* memory: register-indexed and immediate-offset forms.  These go
       straight to the specialized emitters so the offset never has to
       be boxed into a [Gen.offset] variant. *)
    let ldc g d b o = load_reg g Vtype.C d b o
    let lduc g d b o = load_reg g Vtype.UC d b o
    let lds g d b o = load_reg g Vtype.S d b o
    let ldus g d b o = load_reg g Vtype.US d b o
    let ldi g d b o = load_reg g Vtype.I d b o
    let ldu g d b o = load_reg g Vtype.U d b o
    let ldl g d b o = load_reg g Vtype.L d b o
    let ldul g d b o = load_reg g Vtype.UL d b o
    let ldp g d b o = load_reg g Vtype.P d b o
    let ldf g d b o = load_reg g Vtype.F d b o
    let ldd g d b o = load_reg g Vtype.D d b o
    let ldci g d b o = load_imm g Vtype.C d b o
    let lduci g d b o = load_imm g Vtype.UC d b o
    let ldsi g d b o = load_imm g Vtype.S d b o
    let ldusi g d b o = load_imm g Vtype.US d b o
    let ldii g d b o = load_imm g Vtype.I d b o
    let ldui g d b o = load_imm g Vtype.U d b o
    let ldli g d b o = load_imm g Vtype.L d b o
    let lduli g d b o = load_imm g Vtype.UL d b o
    let ldpi g d b o = load_imm g Vtype.P d b o
    let ldfi g d b o = load_imm g Vtype.F d b o
    let lddi g d b o = load_imm g Vtype.D d b o

    let stc g v b o = store_reg g Vtype.C v b o
    let stuc g v b o = store_reg g Vtype.UC v b o
    let sts g v b o = store_reg g Vtype.S v b o
    let stus g v b o = store_reg g Vtype.US v b o
    let sti g v b o = store_reg g Vtype.I v b o
    let stu g v b o = store_reg g Vtype.U v b o
    let stl g v b o = store_reg g Vtype.L v b o
    let stul g v b o = store_reg g Vtype.UL v b o
    let stp g v b o = store_reg g Vtype.P v b o
    let stf g v b o = store_reg g Vtype.F v b o
    let std g v b o = store_reg g Vtype.D v b o
    let stci g v b o = store_imm g Vtype.C v b o
    let stuci g v b o = store_imm g Vtype.UC v b o
    let stsi g v b o = store_imm g Vtype.S v b o
    let stusi g v b o = store_imm g Vtype.US v b o
    let stii g v b o = store_imm g Vtype.I v b o
    let stui g v b o = store_imm g Vtype.U v b o
    let stli g v b o = store_imm g Vtype.L v b o
    let stuli g v b o = store_imm g Vtype.UL v b o
    let stpi g v b o = store_imm g Vtype.P v b o
    let stfi g v b o = store_imm g Vtype.F v b o
    let stdi g v b o = store_imm g Vtype.D v b o

    (* branches *)
    let blti g a b l = branch g Op.Lt Vtype.I a b l
    let bltu g a b l = branch g Op.Lt Vtype.U a b l
    let bltl g a b l = branch g Op.Lt Vtype.L a b l
    let bltul g a b l = branch g Op.Lt Vtype.UL a b l
    let bltp g a b l = branch g Op.Lt Vtype.P a b l
    let bltf g a b l = branch g Op.Lt Vtype.F a b l
    let bltd g a b l = branch g Op.Lt Vtype.D a b l
    let blei g a b l = branch g Op.Le Vtype.I a b l
    let bleu g a b l = branch g Op.Le Vtype.U a b l
    let blel g a b l = branch g Op.Le Vtype.L a b l
    let bleul g a b l = branch g Op.Le Vtype.UL a b l
    let blep g a b l = branch g Op.Le Vtype.P a b l
    let blef g a b l = branch g Op.Le Vtype.F a b l
    let bled g a b l = branch g Op.Le Vtype.D a b l
    let bgti g a b l = branch g Op.Gt Vtype.I a b l
    let bgtu g a b l = branch g Op.Gt Vtype.U a b l
    let bgtl g a b l = branch g Op.Gt Vtype.L a b l
    let bgtul g a b l = branch g Op.Gt Vtype.UL a b l
    let bgtp g a b l = branch g Op.Gt Vtype.P a b l
    let bgtf g a b l = branch g Op.Gt Vtype.F a b l
    let bgtd g a b l = branch g Op.Gt Vtype.D a b l
    let bgei g a b l = branch g Op.Ge Vtype.I a b l
    let bgeu g a b l = branch g Op.Ge Vtype.U a b l
    let bgel g a b l = branch g Op.Ge Vtype.L a b l
    let bgeul g a b l = branch g Op.Ge Vtype.UL a b l
    let bgep g a b l = branch g Op.Ge Vtype.P a b l
    let bgef g a b l = branch g Op.Ge Vtype.F a b l
    let bged g a b l = branch g Op.Ge Vtype.D a b l
    let beqi g a b l = branch g Op.Eq Vtype.I a b l
    let bequ g a b l = branch g Op.Eq Vtype.U a b l
    let beql g a b l = branch g Op.Eq Vtype.L a b l
    let bequl g a b l = branch g Op.Eq Vtype.UL a b l
    let beqp g a b l = branch g Op.Eq Vtype.P a b l
    let beqf g a b l = branch g Op.Eq Vtype.F a b l
    let beqd g a b l = branch g Op.Eq Vtype.D a b l
    let bnei g a b l = branch g Op.Ne Vtype.I a b l
    let bneu g a b l = branch g Op.Ne Vtype.U a b l
    let bnel g a b l = branch g Op.Ne Vtype.L a b l
    let bneul g a b l = branch g Op.Ne Vtype.UL a b l
    let bnep g a b l = branch g Op.Ne Vtype.P a b l
    let bnef g a b l = branch g Op.Ne Vtype.F a b l
    let bned g a b l = branch g Op.Ne Vtype.D a b l

    let bltii g a i l = branch_imm g Op.Lt Vtype.I a i l
    let bltui g a i l = branch_imm g Op.Lt Vtype.U a i l
    let bltli g a i l = branch_imm g Op.Lt Vtype.L a i l
    let bltuli g a i l = branch_imm g Op.Lt Vtype.UL a i l
    let bltpi g a i l = branch_imm g Op.Lt Vtype.P a i l
    let bleii g a i l = branch_imm g Op.Le Vtype.I a i l
    let bleui g a i l = branch_imm g Op.Le Vtype.U a i l
    let bleli g a i l = branch_imm g Op.Le Vtype.L a i l
    let bleuli g a i l = branch_imm g Op.Le Vtype.UL a i l
    let blepi g a i l = branch_imm g Op.Le Vtype.P a i l
    let bgtii g a i l = branch_imm g Op.Gt Vtype.I a i l
    let bgtui g a i l = branch_imm g Op.Gt Vtype.U a i l
    let bgtli g a i l = branch_imm g Op.Gt Vtype.L a i l
    let bgtuli g a i l = branch_imm g Op.Gt Vtype.UL a i l
    let bgtpi g a i l = branch_imm g Op.Gt Vtype.P a i l
    let bgeii g a i l = branch_imm g Op.Ge Vtype.I a i l
    let bgeui g a i l = branch_imm g Op.Ge Vtype.U a i l
    let bgeli g a i l = branch_imm g Op.Ge Vtype.L a i l
    let bgeuli g a i l = branch_imm g Op.Ge Vtype.UL a i l
    let bgepi g a i l = branch_imm g Op.Ge Vtype.P a i l
    let beqii g a i l = branch_imm g Op.Eq Vtype.I a i l
    let beqni g a i l = branch_imm g Op.Eq Vtype.U a i l
    let beqli g a i l = branch_imm g Op.Eq Vtype.L a i l
    let bequli g a i l = branch_imm g Op.Eq Vtype.UL a i l
    let beqpi g a i l = branch_imm g Op.Eq Vtype.P a i l
    let bneii g a i l = branch_imm g Op.Ne Vtype.I a i l
    let bneui g a i l = branch_imm g Op.Ne Vtype.U a i l
    let bneli g a i l = branch_imm g Op.Ne Vtype.L a i l
    let bneuli g a i l = branch_imm g Op.Ne Vtype.UL a i l
    let bnepi g a i l = branch_imm g Op.Ne Vtype.P a i l

    (* returns *)
    let retv g = ret g Vtype.V None
    let reti g r = ret g Vtype.I (Some r)
    let retu g r = ret g Vtype.U (Some r)
    let retl g r = ret g Vtype.L (Some r)
    let retul g r = ret g Vtype.UL (Some r)
    let retp g r = ret g Vtype.P (Some r)
    let retf g r = ret g Vtype.F (Some r)
    let retd g r = ret g Vtype.D (Some r)

    (* jumps: to label, register, absolute address *)
    let jv g l = jump g (Gen.Jlabel l)
    let jr g r = jump g (Gen.Jreg r)
    let jpi g a = jump g (Gen.Jaddr a)
    let jalv g l = jal g (Gen.Jlabel l)
    let jalr g r = jal g (Gen.Jreg r)
    let jalpi g a = jal g (Gen.Jaddr a)
  end
end

(* ------------------------------------------------------------------ *)
(* Composable peephole stage                                           *)

(* [Make_peephole (T)] is a [Target.S] that wraps a raw port with a
   sliding-window peephole pass, so any instantiation becomes
   [Make_gen (C) (Make_peephole (Port))] with zero client changes.

   The window ({!Peepwin}) is pure metadata about the last few emitted
   instructions: every emitter still writes straight into the code
   buffer, and a flush just forgets the metadata — no word moves, no
   allocation — so the paper's O(labels + jumps) space bound is
   untouched.  Four rewrite classes:

   - redundant moves: [mov r,r] and moves made redundant by a tracked
     copy fact are skipped before encoding;
   - immediate fusion: [set rt,k ; op rd,rs,rt] with [rd = rt] (the
     constant dies) retires the set and re-emits as op-immediate when
     the port encodes it in one instruction (or strength reduction
     applies);
   - strength reduction: mul/div/mod by constant powers of two become
     shifts/masks, small mul constants become shift-add pairs — on
     ports whose mul/div go through multi-word synthesis or helper
     calls this removes whole sequences;
   - delay-slot filling (MIPS/SPARC): the last independent single-word
     instruction is moved into the branch delay slot in place of the
     port's nop, with the branch relocation site and provenance spans
     shifted to the post-surgery indices.

   Safety protocol: the window flushes at every label bind
   ([bind_label]), before external buffer surgery ([sync]), and resets
   whenever the staleness check at each emitter entry sees that the
   buffer tail no longer matches the top record (any bypass emission —
   extension instructions, a port's internal truncate — is therefore
   automatically safe, just unoptimized). *)
module Make_peephole (T : Target.S) : Target.S = struct
  let desc = T.desc
  let scratch_packed = Reg.to_int T.desc.Machdesc.scratch

  (* The port's delay-slot nop encoding, derived once by emitting a nop
     into a throwaway generator.  Used to recognize "branch word +
     slot nop" tails without knowing the port's encodings. *)
  let slot_nop_word =
    if T.desc.Machdesc.branch_delay_slots = 1 then begin
      let g = Gen.create T.desc in
      T.nop g;
      Codebuf.get g.Gen.buf 0
    end
    else 0

  (* Staleness check: run at every wrapped emitter entry.  If anything
     appended to or truncated the buffer without going through this
     stage, the record no longer ends at the buffer length and the
     metadata is dropped.  (In-place patches without a length change
     only happen when [finish] resolves relocations, and it resets the
     window first.) *)
  let[@inline] check_sync g =
    let w = g.Gen.peep in
    if w.Peepwin.ko <> 0 && w.Peepwin.end_ <> Codebuf.length g.Gen.buf then
      Peepwin.reset w

  (* Record the instruction just emitted at [start] when it is a single
     word; multi-word sequences are unrecordable and flush instead. *)
  let[@inline] finish1 g ~start ~kind ~def ~u1 ~u2 ~opk =
    let w = g.Gen.peep in
    let len = Codebuf.length g.Gen.buf in
    if len - start = 1 then Peepwin.push w ~start ~end_:len ~kind ~def ~u1 ~u2 ~opk
    else Peepwin.flush w

  let[@inline] do_arith g op t rd rs1 rs2 =
    let w = g.Gen.peep in
    Peepwin.on_def w (Reg.to_int rd);
    let start = Codebuf.length g.Gen.buf in
    T.arith g op t rd rs1 rs2;
    finish1 g ~start ~kind:Peepwin.k_arith ~def:(Reg.to_int rd)
      ~u1:(Reg.to_int rs1) ~u2:(Reg.to_int rs2) ~opk:(Opk.arith op)

  let[@inline] do_arith_imm g op t rd rs1 imm =
    let w = g.Gen.peep in
    Peepwin.on_def w (Reg.to_int rd);
    let start = Codebuf.length g.Gen.buf in
    T.arith_imm g op t rd rs1 imm;
    finish1 g ~start ~kind:Peepwin.k_arith_imm ~def:(Reg.to_int rd)
      ~u1:(Reg.to_int rs1) ~u2:(-1) ~opk:(Opk.arith_imm op)

  let[@inline] do_unary g op t rd rs =
    let w = g.Gen.peep in
    Peepwin.on_def w (Reg.to_int rd);
    let start = Codebuf.length g.Gen.buf in
    T.unary g op t rd rs;
    finish1 g ~start
      ~kind:(if op = Op.Mov then Peepwin.k_mov else Peepwin.k_unary)
      ~def:(Reg.to_int rd) ~u1:(Reg.to_int rs) ~u2:(-1) ~opk:(Opk.unary op)

  let do_set g t rd v =
    let w = g.Gen.peep in
    Peepwin.on_def w (Reg.to_int rd);
    let start = Codebuf.length g.Gen.buf in
    T.set g t rd v;
    let nw = Codebuf.length g.Gen.buf - start in
    let iv = Int64.to_int v in
    (* record only when the value round-trips through int (the fusion
       and window imm fields are native ints) *)
    if nw >= 1 && Int64.equal (Int64.of_int iv) v then begin
      Peepwin.push w ~start ~end_:(start + nw) ~kind:Peepwin.k_set
        ~def:(Reg.to_int rd) ~u1:(-1) ~u2:(-1) ~opk:Opk.set;
      w.Peepwin.imm <- iv
    end
    else Peepwin.flush w

  (* Redundant-move elimination: [mov r,r] and moves whose source and
     destination are already known equal are skipped entirely — no
     words, no counting (the destination's value is unchanged, so the
     callee-save masks stay correct without a [note_write]). *)
  let mov_core g t rd rs =
    let w = g.Gen.peep in
    let prd = Reg.to_int rd and prs = Reg.to_int rs in
    if prd = prs || Peepwin.have_fact w prd prs then
      w.Peepwin.moves_killed <- w.Peepwin.moves_killed + 1
    else begin
      do_unary g Op.Mov t rd rs;
      Peepwin.set_fact w prd prs
    end

  (* --- strength reduction -------------------------------------------- *)

  let is_pow2 c = c > 0 && c land (c - 1) = 0

  let log2 c =
    let rec go c k = if c <= 1 then k else go (c lsr 1) (k + 1) in
    go c 0

  let unsigned_ty (t : Vtype.t) = match t with Vtype.U | Vtype.UL -> true | _ -> false

  (* Can [op rd, rs, #imm] be rewritten into a cheaper shape?  Used both
     as the [arith_imm] rewrite dispatch and as the fusion
     profitability test (fusing into a reducible form is a win even
     when the port has no single-instruction immediate encoding). *)
  let mul_shift_ok t k = Op.binop_imm_ok Op.Lsh t && T.binop_imm_fits Op.Lsh k

  let reducible (op : Op.binop) (t : Vtype.t) c =
    match op with
    | Op.Mul ->
      (not (Vtype.is_float t))
      && (c = 0 || c = 1
         || (c = -1 && t <> Vtype.P)
         || (is_pow2 c && mul_shift_ok t (log2 c))
         || (c > 2
            && (not (T.binop_imm_fits Op.Mul c))
            && ((is_pow2 (c - 1) && mul_shift_ok t (log2 (c - 1)))
               || (is_pow2 (c + 1) && mul_shift_ok t (log2 (c + 1))))))
    | Op.Div ->
      unsigned_ty t
      && (c = 1
         || (is_pow2 c && Op.binop_imm_ok Op.Rsh t && T.binop_imm_fits Op.Rsh (log2 c)))
    | Op.Mod ->
      unsigned_ty t && is_pow2 c
      && Op.binop_imm_ok Op.And t
      && T.binop_imm_fits Op.And (c - 1)
    | _ -> false

  (* Strength-reducing [op rd, rs1, #imm] dispatch for the three ops
     that can reduce; everything else goes straight to [do_arith_imm]
     from [emit_arith_imm] below without even calling [reducible]. *)
  let emit_arith_imm_red g op t rd rs1 imm =
    let w = g.Gen.peep in
    if not (reducible op t imm) then do_arith_imm g op t rd rs1 imm
    else begin
      w.Peepwin.strength <- w.Peepwin.strength + 1;
      match op with
      | Op.Mul ->
        if imm = 0 then do_set g t rd 0L
        else if imm = 1 then mov_core g t rd rs1
        else if imm = -1 then do_unary g Op.Neg t rd rs1
        else if is_pow2 imm then do_arith_imm g Op.Lsh t rd rs1 (log2 imm)
        else begin
          (* c = 2^k +/- 1: shift into the assembler temporary, then
             add/sub the original operand (scratch is dead between
             client instructions; rd = rs1 is safe — rs1 is read by
             the shift before rd is written) *)
          let sc = T.desc.Machdesc.scratch in
          if is_pow2 (imm - 1) && mul_shift_ok t (log2 (imm - 1)) then begin
            do_arith_imm g Op.Lsh t sc rs1 (log2 (imm - 1));
            do_arith g Op.Add t rd sc rs1
          end
          else begin
            do_arith_imm g Op.Lsh t sc rs1 (log2 (imm + 1));
            do_arith g Op.Sub t rd sc rs1
          end
        end
      | Op.Div ->
        if imm = 1 then mov_core g t rd rs1
        else do_arith_imm g Op.Rsh t rd rs1 (log2 imm)
      | Op.Mod -> do_arith_imm g Op.And t rd rs1 (imm - 1)
      | _ -> assert false
    end

  let[@inline] emit_arith_imm g op t rd rs1 imm =
    match op with
    | Op.Mul | Op.Div | Op.Mod -> emit_arith_imm_red g op t rd rs1 imm
    | _ -> do_arith_imm g op t rd rs1 imm

  (* --- immediate fusion ---------------------------------------------- *)

  let commutative (op : Op.binop) =
    match op with
    | Op.Add | Op.Mul | Op.And | Op.Or | Op.Xor -> true
    | Op.Sub | Op.Div | Op.Mod | Op.Lsh | Op.Rsh -> false

  (* [set rt,k ; op rd,rs,rt] with [rd = rt]: the constant register
     dies here, so retire the set (truncate its words, un-count it,
     drop its provenance span) and emit op-immediate instead.  Only
     when the immediate form is a single instruction on this port, or
     strength reduction applies — fusing into a scratch-synthesized
     constant would just re-materialize the set. *)
  let try_fuse_set g op t rd rs1 rs2 =
    let w = g.Gen.peep in
    if not (Op.binop_imm_ok op t) then false
    else begin
      let rt = Peepwin.def w in
      let k = w.Peepwin.imm in
      let prd = Reg.to_int rd and p1 = Reg.to_int rs1 and p2 = Reg.to_int rs2 in
      let profitable = T.binop_imm_fits op k || reducible op t k in
      let src =
        if p2 = rt && p1 <> rt then Some rs1
        else if p1 = rt && p2 <> rt && commutative op then Some rs2
        else None
      in
      match src with
      | Some rs when prd = rt && profitable ->
        Codebuf.truncate g.Gen.buf w.Peepwin.start;
        Gen.uncount_insn g (Peepwin.opk w);
        Gen.prov_drop_from g ~start:w.Peepwin.start;
        Peepwin.pop w;
        w.Peepwin.fusions <- w.Peepwin.fusions + 1;
        emit_arith_imm g op t rd rs k;
        true
      | _ -> false
    end

  (* --- delay-slot filling -------------------------------------------- *)

  (* The port just emitted a branch sequence spanning [p0 .. len-1]: a
     compare prelude of [len-2-p0] words, the relocated branch word at
     [len-2], and the slot nop at [len-1].  If the top window record is
     an independent single-word instruction immediately before [p0],
     move it into the slot: shift the branch words down one, place the
     candidate last, drop the nop, and re-point the relocation site and
     the two provenance spans at the post-surgery indices.

     Independence: the candidate must not define a branch source (the
     compare now reads its inputs before the candidate runs) and must
     not touch the assembler temporary (the compare prelude may write
     it).  [max_body] bounds the prelude so only synthesis paths whose
     prelude writes at most the assembler temporary qualify. *)
  let try_fill g ~p0 ~r0 ~max_body ~src1 ~src2 ~opk =
    if T.desc.Machdesc.branch_delay_slots = 1 then begin
      let w = g.Gen.peep in
      if Peepwin.have w then begin
        let s = w.Peepwin.start in
        let len = Codebuf.length g.Gen.buf in
        let d = Peepwin.def w in
        if
          w.Peepwin.end_ = p0
          && s + 1 = p0
          && Gen.reloc_count g = r0 + 1
          && g.Gen.relocs.((g.Gen.nrelocs - 1) * 3) = len - 2
          && Codebuf.get g.Gen.buf (len - 1) = slot_nop_word
          && len - 2 - p0 <= max_body
          && d <> scratch_packed
          && Peepwin.u1 w <> scratch_packed
          && Peepwin.u2 w <> scratch_packed
          && (d = -1 || (d <> src1 && d <> src2))
        then begin
          let cand = Codebuf.get g.Gen.buf s in
          for j = p0 to len - 2 do
            Codebuf.set g.Gen.buf (j - 1) (Codebuf.get g.Gen.buf j)
          done;
          Codebuf.set g.Gen.buf (len - 2) cand;
          Codebuf.truncate g.Gen.buf (len - 1);
          Gen.shift_reloc_sites g ~from:p0 ~by:(-1);
          Gen.prov_drop_from g ~start:s;
          Gen.prov_append g ~start:s ~slot:opk;
          Gen.prov_append g ~start:(len - 2) ~slot:(Peepwin.opk w);
          w.Peepwin.slot_fills <- w.Peepwin.slot_fills + 1
        end
      end
    end

  (* --- the Target.S surface ------------------------------------------ *)

  let lambda g tys =
    let r = T.lambda g tys in
    Peepwin.reset g.Gen.peep;
    r

  let ret g t r =
    check_sync g;
    T.ret g t r;
    Peepwin.reset g.Gen.peep

  let finish g =
    Peepwin.reset g.Gen.peep;
    T.finish g

  (* cheap common-path test inline; the rewrite body out of line *)
  let[@inline] try_fuse g op t rd rs1 rs2 =
    let w = g.Gen.peep in
    (* single compare: ko's kind bits name a live k_set record *)
    w.Peepwin.ko lsr 16 = Peepwin.k_set + 1 && try_fuse_set g op t rd rs1 rs2

  let arith g op t rd rs1 rs2 =
    check_sync g;
    if not (try_fuse g op t rd rs1 rs2) then do_arith g op t rd rs1 rs2

  let arith_imm g op t rd rs1 imm =
    check_sync g;
    emit_arith_imm g op t rd rs1 imm

  let unary g op t rd rs =
    check_sync g;
    match op with
    | Op.Mov -> mov_core g t rd rs
    | _ -> do_unary g op t rd rs

  let set g t rd v =
    check_sync g;
    do_set g t rd v

  let setf g t rd v =
    check_sync g;
    Peepwin.on_def g.Gen.peep (Reg.to_int rd);
    T.setf g t rd v;
    Peepwin.flush g.Gen.peep

  let cvt g ~from ~to_ rd rs =
    check_sync g;
    Peepwin.on_def g.Gen.peep (Reg.to_int rd);
    T.cvt g ~from ~to_ rd rs;
    (* conversions may bind internal labels and record relocations *)
    Peepwin.reset g.Gen.peep

  (* Loads are never window candidates (the load-delay hazard would
     make them unsafe to move into a delay slot), so just flush. *)
  let load_imm g t rd base off =
    check_sync g;
    Peepwin.on_def g.Gen.peep (Reg.to_int rd);
    T.load_imm g t rd base off;
    Peepwin.flush g.Gen.peep

  let load_reg g t rd base idx =
    check_sync g;
    Peepwin.on_def g.Gen.peep (Reg.to_int rd);
    T.load_reg g t rd base idx;
    Peepwin.flush g.Gen.peep

  let store_imm g t rv base off =
    check_sync g;
    let start = Codebuf.length g.Gen.buf in
    T.store_imm g t rv base off;
    finish1 g ~start ~kind:Peepwin.k_store ~def:(-1) ~u1:(Reg.to_int rv)
      ~u2:(Reg.to_int base) ~opk:Opk.st

  (* register-offset stores have three source registers — more than the
     window records — so they are not candidates *)
  let store_reg g t rv base idx =
    check_sync g;
    T.store_reg g t rv base idx;
    Peepwin.flush g.Gen.peep

  let jump g tgt =
    check_sync g;
    let p0 = Codebuf.length g.Gen.buf in
    let r0 = Gen.reloc_count g in
    T.jump g tgt;
    try_fill g ~p0 ~r0 ~max_body:0 ~src1:(-2) ~src2:(-2) ~opk:Opk.jmp;
    Peepwin.flush g.Gen.peep

  let jal g tgt =
    check_sync g;
    T.jal g tgt;
    (* a call clobbers caller-saved registers: drop the copy fact too *)
    Peepwin.reset g.Gen.peep

  let branch g c t rs1 rs2 lab =
    check_sync g;
    let p0 = Codebuf.length g.Gen.buf in
    let r0 = Gen.reloc_count g in
    T.branch g c t rs1 rs2 lab;
    try_fill g ~p0 ~r0 ~max_body:1 ~src1:(Reg.to_int rs1) ~src2:(Reg.to_int rs2)
      ~opk:(Opk.branch c);
    (* the copy fact survives: the fall-through path is unchanged and
       the taken path lands on a label bind, which resets *)
    Peepwin.flush g.Gen.peep

  let branch_imm g c t rs1 imm lab =
    check_sync g;
    let p0 = Codebuf.length g.Gen.buf in
    let r0 = Gen.reloc_count g in
    T.branch_imm g c t rs1 imm lab;
    try_fill g ~p0 ~r0 ~max_body:1 ~src1:(Reg.to_int rs1) ~src2:(-2)
      ~opk:(Opk.branch_imm c);
    Peepwin.flush g.Gen.peep

  let nop g =
    check_sync g;
    T.nop g;
    Peepwin.flush g.Gen.peep

  (* Window must be empty before a label bind: the bound position is
     about to become a branch target, and no rewrite may move words a
     label already points at. *)
  let bind_label g l =
    Peepwin.reset g.Gen.peep;
    Gen.bind_label g l

  (* External code is about to rewrite the buffer tail (the portable
     delay-slot scheduler): forget everything. *)
  let sync g = Peepwin.reset g.Gen.peep
  let binop_imm_fits = T.binop_imm_fits

  let push_arg g t r =
    check_sync g;
    T.push_arg g t r;
    Peepwin.flush g.Gen.peep

  let do_call g tgt =
    check_sync g;
    T.do_call g tgt;
    Peepwin.reset g.Gen.peep

  let retval g t r =
    check_sync g;
    Peepwin.on_def g.Gen.peep (Reg.to_int r);
    T.retval g t r;
    Peepwin.flush g.Gen.peep

  let disasm = T.disasm

  (* Extension instructions bypass the window by construction; the
     staleness check at the next wrapped entry drops stale metadata. *)
  let extra_insns = T.extra_insns
  let extra_imm_insns = T.extra_imm_insns
end

(* The default, checked instantiation (the paper's debugging mode) and
   the production instantiation with operand validation compiled out.
   Both produce bit-for-bit identical code. *)
module Make (T : Target.S) = Make_gen (Checked) (T)
module Make_unchecked (T : Target.S) = Make_gen (Unchecked) (T)
