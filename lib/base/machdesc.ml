(* Static description of a target machine, consumed by the
   target-independent parts of VCODE (register allocator, scheduling
   macros, prologue bookkeeping).  One value of this type per port; it
   plays the role of the tables in the paper's machine specification
   files. *)

type t = {
  name : string;
  word_bits : int;        (* 32 or 64 *)
  big_endian : bool;
  branch_delay_slots : int;   (* architectural branch delay slots *)
  load_delay : int;           (* cycles before a load result is usable *)
  nregs : int;
  nfregs : int;
  (* Allocation pools, in allocation-priority order (paper section 3):
     [temps] are caller-saved, [vars] are preserved across calls. *)
  temps : Reg.t array;
  vars : Reg.t array;
  ftemps : Reg.t array;
  fvars : Reg.t array;
  (* Callee-saved masks over the integer / float files: bit n set means
     register n must be preserved by a function that writes it. *)
  callee_mask : int;
  fcallee_mask : int;
  conv : Callconv.t;          (* argument and return convention *)
  sp : Reg.t;                 (* stack pointer *)
  locals_base : int;          (* sp-relative byte offset of the locals area *)
  scratch : Reg.t;            (* reserved assembler temporary ($at-like) *)
  fscratch : Reg.t;           (* reserved FP temporary *)
  reg_name : Reg.t -> string; (* target spelling, e.g. "$t0", "%o3" *)
}

let word_bytes t = t.word_bits / 8

(* Hard-coded register names of section 5.3: architecture-independent
   "T0","T1",... map to the temp pool and "S0","S1",... to the var pool.
   Clients using them get a [Verror] if the target has fewer registers of
   that class, which is exactly the paper's "register assertion". *)
let hard_reg t (cls : [ `Temp | `Var ]) n =
  let pool, nm = match cls with `Temp -> (t.temps, "T") | `Var -> (t.vars, "S") in
  if n < 0 || n >= Array.length pool then
    Verror.fail
      (Verror.Registers_exhausted
         (Printf.sprintf "%s%d (target %s has only %d)" nm n t.name (Array.length pool)))
  else pool.(n)
