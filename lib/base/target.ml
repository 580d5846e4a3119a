(* The retargeting interface (paper section 3.3).

   A port of VCODE supplies one module of this signature.  Each emit hook
   appends encoded machine instructions for one VCODE core instruction
   directly to [g.buf] — in place, no intermediate representation.  The
   hooks may use [g.desc.scratch] (the reserved assembler temporary) to
   synthesize operations the hardware lacks, e.g. out-of-range immediates
   or Alpha byte stores.

   The paper reports that a complete mapping specification runs 40-100
   lines per machine; our equivalents are the mapping tables inside each
   [<target>_backend.ml].  A port states its argument and return
   convention once, as [desc.conv] (a {!Callconv.t}): [Port] binds
   parameters, places call arguments and moves return values from it
   for [lambda], [do_call], [ret] and [retval], and the port's
   simulator places harness-call arguments from the same record. *)

module type S = sig
  val desc : Machdesc.t

  (* --- function lifecycle ------------------------------------------- *)

  (* Begin a function: given parameter types, reserve the prologue area
     in the instruction stream (section 5.2), mark argument registers
     in-use, emit any stack-argument reloads, and return the registers
     that hold the incoming parameters. *)
  val lambda : Gen.t -> Vtype.t array -> Reg.t array

  (* Move the (optional) return value to the convention's return register
     and transfer control to the shared epilogue (or return inline when
     the target knows it is safe). *)
  val ret : Gen.t -> Vtype.t -> Reg.t option -> unit

  (* End a function: bind the epilogue, write the real prologue into the
     reserved area (saving exactly the callee-saved registers recorded in
     [g.used_callee]/[g.used_fcallee]), place pending floating-point
     immediates, resolve relocations, and set [g.entry_index]. *)
  val finish : Gen.t -> unit

  (* --- core instruction set ----------------------------------------- *)

  val arith : Gen.t -> Op.binop -> Vtype.t -> Reg.t -> Reg.t -> Reg.t -> unit
  val arith_imm : Gen.t -> Op.binop -> Vtype.t -> Reg.t -> Reg.t -> int -> unit
  val unary : Gen.t -> Op.unop -> Vtype.t -> Reg.t -> Reg.t -> unit
  val set : Gen.t -> Vtype.t -> Reg.t -> int64 -> unit
  val setf : Gen.t -> Vtype.t -> Reg.t -> float -> unit
  val cvt : Gen.t -> from:Vtype.t -> to_:Vtype.t -> Reg.t -> Reg.t -> unit
  (* Loads and stores come in immediate-offset and register-offset forms
     (rather than one entry point taking a [Gen.offset]) so the dominant
     immediate case passes its offset as an unboxed int — no variant
     block is allocated per memory instruction.  [Vcode] provides the
     offset-dispatching convenience wrapper on top. *)
  val load_imm : Gen.t -> Vtype.t -> Reg.t -> Reg.t -> int -> unit
  val load_reg : Gen.t -> Vtype.t -> Reg.t -> Reg.t -> Reg.t -> unit
  val store_imm : Gen.t -> Vtype.t -> Reg.t -> Reg.t -> int -> unit
  val store_reg : Gen.t -> Vtype.t -> Reg.t -> Reg.t -> Reg.t -> unit
  val jump : Gen.t -> Gen.jtarget -> unit
  val jal : Gen.t -> Gen.jtarget -> unit
  val branch : Gen.t -> Op.cond -> Vtype.t -> Reg.t -> Reg.t -> int -> unit
  val branch_imm : Gen.t -> Op.cond -> Vtype.t -> Reg.t -> int -> int -> unit
  val nop : Gen.t -> unit

  (* --- peephole interposition hooks ---------------------------------- *)

  (* Bind a label at the current buffer position.  Raw ports delegate to
     [Gen.bind_label]; a peephole stage flushes its window first so no
     later rewrite can move words a bound label already points at.
     [Vcode.Make_gen] routes every client label bind through here. *)
  val bind_label : Gen.t -> int -> unit

  (* Barrier: the caller is about to read or rewrite buffer words behind
     the target's back (e.g. the portable delay-slot scheduler's
     truncate-and-patch surgery).  Raw ports no-op; a peephole stage
     flushes its window. *)
  val sync : Gen.t -> unit

  (* Whether the port's [arith_imm] encodes [op] with immediate [imm] in
     its single-instruction fast path (no scratch-register constant
     synthesis).  Conservative "false" is always sound — the peephole
     stage uses this purely as a profitability test for fusing
     set-immediate + op into op-immediate. *)
  val binop_imm_fits : Op.binop -> int -> bool

  (* --- calls --------------------------------------------------------- *)

  (* Dynamically constructed calls: arguments are pushed one at a time
     (the paper's marshaling use case) and [do_call] places them per the
     convention and emits the call. *)
  val push_arg : Gen.t -> Vtype.t -> Reg.t -> unit
  val do_call : Gen.t -> Gen.jtarget -> unit

  (* Fetch the return value of the last call into [reg]. *)
  val retval : Gen.t -> Vtype.t -> Reg.t -> unit

  (* --- disassembly and extensions ------------------------------------ *)

  (* One-line disassembly of an instruction word at [addr]; used by the
     dump facility and the visa tool. *)
  val disasm : word:int -> addr:int -> string

  (* Extra raw machine instructions exported to the extension spec
     language (section 5.4), e.g. ("fsqrts", emitter). *)
  val extra_insns : (string * (Gen.t -> Reg.t array -> unit)) list

  (* Immediate-form machine instructions for the spec language's
     optional [mach-imm_insn] position. *)
  val extra_imm_insns : (string * (Gen.t -> Reg.t array -> int -> unit)) list
end
