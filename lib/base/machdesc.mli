(** Static description of a target machine, consumed by the
    target-independent parts of VCODE (register allocator, scheduling
    macros, prologue bookkeeping).  One value per port; it plays the
    role of the tables in the paper's machine specification files. *)

type t = {
  name : string;
  word_bits : int;            (** 32 or 64 *)
  big_endian : bool;
  branch_delay_slots : int;   (** architectural branch delay slots *)
  load_delay : int;           (** cycles before a load result is usable *)
  nregs : int;
  nfregs : int;
  temps : Reg.t array;        (** caller-saved pool, allocation-priority order *)
  vars : Reg.t array;         (** call-preserved pool *)
  ftemps : Reg.t array;
  fvars : Reg.t array;
  callee_mask : int;          (** bit n: integer register n must be preserved *)
  fcallee_mask : int;
  conv : Callconv.t;          (** argument and return convention *)
  sp : Reg.t;
  locals_base : int;          (** sp-relative byte offset of the locals area *)
  scratch : Reg.t;            (** reserved assembler temporary ($at-like) *)
  fscratch : Reg.t;           (** reserved FP temporary *)
  reg_name : Reg.t -> string; (** target spelling, e.g. "$t0", "%o3" *)
}

val word_bytes : t -> int

(** The hard-coded register names of section 5.3: architecture-
    independent "T0","T1",... map into the temp pool and "S0","S1",...
    into the var pool.
    @raise Verror.Error when the target has fewer registers of that
    class — the paper's "register assertion". *)
val hard_reg : t -> [ `Temp | `Var ] -> int -> Reg.t
