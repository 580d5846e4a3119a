(** Errors raised by the VCODE system.

    Misuse conditions (calling from a leaf, exhausted registers,
    out-of-range encodings, ...) raise a single exception with a
    structured reason, so clients can pattern-match on the condition or
    print a readable diagnostic. *)

type reason =
  | Leaf_call                      (** a call was emitted inside a V_LEAF function *)
  | Registers_exhausted of string  (** no free register in the named class *)
  | Bad_type of string             (** instruction applied to an unsupported vtype *)
  | Bad_operand of string          (** malformed operand, e.g. float reg to int op *)
  | Unresolved_label of int        (** v_end reached with an undefined label *)
  | Already_finished               (** emission attempted after v_end *)
  | Range of string                (** value does not fit an encodable field *)
  | Unsupported of string          (** the target cannot express the request *)
  | Spec of string                 (** error in an extension specification *)

exception Error of reason

(** raise [Error r] *)
val fail : reason -> 'a

(** printf-style [Bad_operand] failure *)
val failf : ('a, unit, string, 'b) format4 -> 'a
