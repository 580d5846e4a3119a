(** Physical registers.

    VCODE registers are physical machine registers handed to the client
    by the register allocator, or named directly via the hard-coded
    T0/S0 scheme of section 5.3.  A register is an index into either
    the integer or the floating-point file of the target. *)

type t =
  | R of int  (** integer register file *)
  | F of int  (** floating-point register file *)

val idx : t -> int
val is_float : t -> bool

(** pack a register into one non-negative int (low bit selects the
    file); [of_int] inverts [to_int].  Used by [Gen]'s int-packed side
    tables so recording a register during emission allocates nothing. *)
val to_int : t -> int

val of_int : int -> t

(** [R n] and [F n], shared rather than allocated for [n < 64] *)
val r : int -> t

val f : int -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** does the register's file match the vtype's class? *)
val matches_type : Vtype.t -> t -> bool
