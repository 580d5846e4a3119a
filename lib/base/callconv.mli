(** A port's argument and return convention, stated once as data.

    Each port describes its convention in one [t] (in its
    {!Machdesc.t}).  The generic walk below reads it for the backend's
    incoming parameters ([lambda]) and outgoing calls ([do_call]), and
    for the simulator's harness calls, so generated code and the
    harness that calls it cannot disagree.

    Arguments take stack slots of [slot_bytes]; a double (and a single
    where [single_slots] is 2) takes [8 / slot_bytes] of them, starting
    at an 8-aligned offset.  An argument travels in a register when its
    class still has one, according to [counting]:
    - [Shared_slots] (MIPS, SPARC): every argument takes slots, register
      ones too; integer argument k uses the register of its slot, FP
      arguments take the FP registers in order, and no argument goes in
      a register once its slot is past the integer registers.
    - [Positional] (Alpha): argument k takes slot k and register k of
      its class.
    - [Per_class] (PowerPC): integer and FP registers are counted
      separately, and only stack arguments take slots. *)

type counting = Shared_slots | Positional | Per_class

type t = {
  counting : counting;
  int_regs : int array;  (** integer argument registers, caller's view *)
  fp_regs : int array;   (** FP argument registers *)
  slot_bytes : int;      (** 4, or 8 on a 64-bit port *)
  stack_base : int;      (** caller's-[sp] offset of slot 0 *)
  single_slots : int;    (** slots a single takes on the stack *)
  stack_limit : int;     (** caller's-[sp] offset where the outgoing area ends *)
  int_ret : int;         (** integer return register, caller's view *)
  fp_ret : int;
  window : int;
      (** register-window shift: the callee sees integer register n of
          its caller as n + [window] (SPARC's %o/%i); 0 elsewhere *)
}

(** {2 Walking an argument list}

    A cursor is an int: start at [start] and pass each argument with
    [next]; [loc] then says where that argument goes, as an int too: a
    register or a stack offset. *)

val start : int

(** the cursor after an argument of the given type *)
val next : t -> int -> Vtype.t -> int

(** where the argument the cursor last passed goes *)
val loc : int -> int

val on_stack : int -> bool

(** the byte offset of a stack location from the caller's [sp] *)
val stack_offset : int -> int

(** a register location as the callee sees it *)
val callee_reg : t -> int -> Reg.t

(** does a stack argument of this type end past [stack_limit]? *)
val overflows : t -> int -> Vtype.t -> bool

(** the return register of a value of this type, as a location *)
val ret_loc : t -> callee:bool -> Vtype.t -> int

(** {2 Simulator harness calls} *)

(** an argument a harness passes to generated code *)
type arg = Int of int | Int64 of int64 | Single of float | Double of float

(** [place c ~set_reg r ~write32 ~write64 m ~sp args] puts each of
    [args] where the convention says: a register one through
    [set_reg r n a] ([n] a register number of [a]'s class), a stack one
    through [write32]/[write64 m addr bits] at [sp] plus its offset.
    Integers take one [slot_bytes] word, singles four bytes, doubles
    eight.  Allocates nothing for integer arguments on a 32-bit port. *)
val place :
  t ->
  set_reg:('r -> int -> arg -> unit) ->
  'r ->
  write32:('m -> int -> int -> unit) ->
  write64:('m -> int -> int64 -> unit) ->
  'm ->
  sp:int ->
  arg list ->
  unit
