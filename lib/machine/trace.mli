(** Execution tracing for the four CPU simulators.

    Where {!Telemetry} aggregates (counters, distributions), a trace
    records the exact ordered stream of retired instructions plus
    block-dispatch, fault, SMC-abort and invalidation markers, into a
    preallocated int-array ring.  One record is one int; the hot
    operation ({!retire}) is an unsafe store and a counter increment.

    The {!disabled} sink is a shared one-slot scratch ring: every
    record lands in scratch with no conditional and no allocation, so
    untraced simulators are bit-identical to pre-trace behaviour
    (pinned by test/test_trace.ml).  Tracing never touches the
    simulated clock or the timing {!Cache} statistics.

    When the ring overflows, new records overwrite the oldest; the
    true total is kept, so {!dropped} is exact. *)

type kind =
  | Retire       (** one instruction issued at payload (pc) *)
  | Block_enter  (** compiled-block dispatch at payload (entry address) *)
  | Fault        (** a Machine_error/Mem.Fault escaped at payload (pc) *)
  | Smc_abort    (** dirty/Retired block abort at payload (aborting insn) *)
  | Inval        (** predecode/translation state dropped at payload *)
  | Mark         (** tool-defined checkpoint *)

val kind_name : kind -> string

type t

(** [create ()] — ring capacity is [2^capacity_pow2] records (default
    [2^16], clamped to [2^8 .. 2^24]) *)
val create : ?capacity_pow2:int -> unit -> t

(** the shared branch-free no-op sink *)
val disabled : t

val is_enabled : t -> bool

(** {2 Hot path — plain int-array stores, no allocation}

    Records are emitted in issue order, i.e. *before* the instruction
    executes, so a faulting instruction is the last record of its
    stream in every engine mode.  Payloads are truncated to 48 bits
    (simulated addresses are far smaller). *)

val retire : t -> int -> unit
val mark : t -> kind -> int -> unit

(** {2 Reading the ring (cold)} *)

val capacity : t -> int

(** records ever emitted, overwritten ones included *)
val seen : t -> int

(** records still in the ring (0 on the disabled sink) *)
val retained : t -> int

(** [seen - retained]: exact count of overwritten records *)
val dropped : t -> int

(** forget everything recorded so far (no-op on the disabled sink) *)
val reset : t -> unit

(** retained records, oldest first *)
val records : t -> (kind * int) array

(** the retained [Retire] payloads, oldest first — the differ's input *)
val retired_pcs : t -> int array

(** {2 The differ} *)

type divergence = {
  ordinal : int;  (** 0-based retired-instruction index of the mismatch *)
  a_pc : int;     (** -1 when stream [a] ended before [ordinal] *)
  b_pc : int;     (** -1 when stream [b] ended before [ordinal] *)
}

(** first position where two retired-pc streams disagree; [None] when
    they are identical in content and length.  A strict prefix
    diverges at its end. *)
val first_divergence : int array -> int array -> divergence option

(** {2 Exporters} *)

(** schema version stamped into the Chrome JSON export (written by the
    harness [Chrome_trace.write_trace], which vtrace uses) *)
val json_schema_version : int
