(* Physical registers.

   VCODE registers are physical machine registers handed to the client by
   the register allocator (or named directly via the hard-coded T0/S0
   scheme of section 5.3).  A register is an index into either the integer
   or the floating-point register file of the target. *)

type t =
  | R of int  (** integer register file *)
  | F of int  (** floating-point register file *)

let[@inline] idx = function R n -> n | F n -> n
let[@inline] is_float = function F _ -> true | R _ -> false

(* A register packed into one non-negative int (low bit: register file).
   Used by Gen's int-packed side tables so recording a register during
   emission allocates nothing. *)
let[@inline] to_int = function R n -> n lsl 1 | F n -> (n lsl 1) lor 1
let unpack i = if i land 1 = 0 then R (i lsr 1) else F (i lsr 1)

(* the first 64 registers of each file, built once, so that naming one
   through [of_int], [r] or [f] allocates nothing *)
let packed = Array.init 128 unpack
let[@inline] of_int i = if i < 128 then Array.unsafe_get packed i else unpack i
let[@inline] r n = of_int (n lsl 1)
let[@inline] f n = of_int ((n lsl 1) lor 1)
let[@inline] equal a b = to_int a = to_int b
let compare (a : t) (b : t) = compare a b

let to_string = function
  | R n -> Printf.sprintf "r%d" n
  | F n -> Printf.sprintf "f%d" n

let pp fmt r = Fmt.string fmt (to_string r)

(* The register class expected for operands of a given vtype. *)
let[@inline] matches_type (t : Vtype.t) (r : t) =
  if Vtype.is_float t then is_float r else not (is_float r)
