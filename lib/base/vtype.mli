(** VCODE operand types (paper Table 1).

    Every VCODE instruction is a base operation composed with one of
    these types, named after the ANSI C types they map to.  Sub-word
    types ([C], [UC], [S], [US]) appear only in memory operations;
    register arithmetic is performed at word width. *)

type t =
  | V   (** void — only valid as a return type *)
  | C   (** signed char, 1 byte *)
  | UC  (** unsigned char, 1 byte *)
  | S   (** signed short, 2 bytes *)
  | US  (** unsigned short, 2 bytes *)
  | I   (** int, 4 bytes *)
  | U   (** unsigned int, 4 bytes *)
  | L   (** long, word sized *)
  | UL  (** unsigned long, word sized *)
  | P   (** pointer, word sized *)
  | F   (** float, 4 bytes *)
  | D   (** double, 8 bytes *)

(** all twelve types, in Table 1 order *)
val all : t list

(** Table 1 ordinal, for packing a type into [Gen]'s int side tables;
    [of_int] inverts it.
    @raise Verror.Error when the int is not a valid ordinal *)
val to_int : t -> int

val of_int : int -> t

val to_string : t -> string

(** the C equivalent from Table 1, e.g. [P] is ["void *"] *)
val c_equivalent : t -> string

val pp : Format.formatter -> t -> unit
val is_float : t -> bool
val is_signed : t -> bool

(** size in bytes on a machine with [word_bytes]-byte words (4 or 8) *)
val size : word_bytes:int -> t -> int

(** natural alignment; equals [size] on all supported targets *)
val align : word_bytes:int -> t -> int

(** Parse a [v_lambda] parameter type string such as ["%i%p%d"] or
    ["%ul%uc"] (the paper's notation).
    @raise Verror.Error on malformed strings. *)
val parse_signature : string -> t list

val equal : t -> t -> bool
