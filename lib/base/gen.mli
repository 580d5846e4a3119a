(** Per-function dynamic code generation state.

    This record is everything VCODE keeps while generating a function.
    True to the paper, memory use during generation is proportional to
    the number of labels and unresolved jumps plus the emitted code
    itself — there is no per-instruction intermediate structure
    (contrast the DCG baseline in lib/dcg).

    The record is exposed because target ports (implementations of
    {!Target.S}) read and mutate its fields during emission and
    finalization; ordinary clients go through [Vcode.Make]. *)

(** a memory-operand offset: base + (immediate or register) *)
type offset = Oimm of int | Oreg of Reg.t

(** a jump target: label, register, or absolute address (Table 2) *)
type jtarget = Jlabel of int | Jreg of Reg.t | Jaddr of int

(** section 5.3: clients may dynamically reclassify any physical
    register for the duration of one generated function *)
type cls_override = Odefault | Ocallee | Ocaller | Ounavail

(** The four side tables (relocations, pending FP constants, incoming
    argument reloads, outgoing call arguments) are growable int-packed
    arrays rather than lists: recording an entry allocates zero GC words
    in the steady state.  Ports access them only through the accessors
    below ([add_reloc], [add_fimm], [add_arg_load], [push_call_arg],
    ...); the packing strides are private to [Gen]. *)
type t = {
  desc : Machdesc.t;
  buf : Codebuf.t;
  base : int;  (** simulated load address of buf word 0 *)
  mutable labels : int array;  (** label id -> code index, -1 if unbound *)
  mutable nlabels : int;
  mutable relocs : int array;  (** packed, stride 3: site, lab, kind *)
  mutable nrelocs : int;
  mutable resolved_relocs : int; (* relocs already consumed by resolve_relocs *)
  mutable leaf : bool;
  mutable in_function : bool;
  mutable finished : bool;
  mutable locals_bytes : int;
  mutable used_callee : int;  (** bitmask: callee-saved int regs written *)
  mutable used_fcallee : int;
  mutable made_call : bool;
  mutable prologue_at : int;    (** index of the reserved prologue area *)
  mutable prologue_words : int;
  mutable entry_index : int;    (** set by finish: first live instruction *)
  mutable epilogue_lab : int;
  mutable ret_type : Vtype.t;
  mutable fimms : int array;
      (** packed, stride 4: load site, lo32, hi32, is_double (§5.2) *)
  mutable nfimms : int;
  mutable arg_loads : int array;
      (** packed, stride 3: offset from the caller's sp, [Reg.to_int],
          [Vtype.to_int] —
          stack-passed incoming arguments to reload in the patched
          prologue *)
  mutable narg_loads : int;
  mutable call_args : int array;
      (** packed, stride 2: [Vtype.to_int], [Reg.to_int]; push order *)
  mutable ncall_args : int;
  mutable moves : int array;
      (** packed, stride 4: [Reg.to_int] destination and source,
          [Vtype.to_int], state — the queue of {!parallel_moves} *)
  mutable nmoves : int;
  mutable int_in_use : int;  (** allocator bitmask over the int file *)
  mutable flt_in_use : int;
  overrides : cls_override array;
  foverrides : cls_override array;
  mutable eff_callee_mask : int;
      (** [callee_mask] folded with the class overrides; kept current by
          [set_reg_class] so [note_write] is a branch-free mask-and-or *)
  mutable eff_fcallee_mask : int;
  mutable insn_count : int;  (** VCODE-level instructions emitted *)
  op_counts : int array;
      (** per-{!Opk}-slot emission counts; their sum is [insn_count] by
          construction — every counting site passes its slot *)
  prov_on : bool;  (** record emit-site provenance (see {!iter_prov_spans}) *)
  mutable prov : int array;
      (** packed, stride 2: start word index, {!Opk} slot (-1 closes) *)
  mutable nprov : int;
  mutable tstate : int;      (** target-private scratch *)
  peep : Peepwin.t;
      (** peephole window metadata, driven by [Vcode.Make_peephole];
          inert (and allocation-free) for unwrapped ports *)
}

(** [capacity] is an instruction-count hint forwarded to
    {!Codebuf.create}: pass the expected code size to avoid doubling
    copies (large functions) or a needlessly big buffer (small DPF-style
    filters).  [provenance] turns the emit-site side table on for this
    function (default: {!set_provenance_default}'s process-wide flag,
    initially off).  [buf] supplies a recycled code buffer instead of
    allocating one — it is {!Codebuf.reset} here and then owned by this
    generator until v_end; a batched compile queue passes the same slab
    buffer for every function so N small compiles allocate zero buffers
    ([capacity] is ignored in that case). *)
val create :
  ?base:int -> ?provenance:bool -> ?capacity:int -> ?buf:Codebuf.t -> Machdesc.t -> t

(** flip the process-wide default for [create]'s [provenance] — the
    profiling/trace tools set it before generating their workloads so
    code produced behind [Vcode.lambda] gets symbolized without every
    signature threading the flag *)
val set_provenance_default : bool -> unit

(** @raise Verror.Error if v_end already ran *)
val check_open : t -> unit

(** {2 Labels and relocations} *)

val genlabel : t -> int
val bind_label : t -> int -> unit
val label_defined : t -> int -> bool
val add_reloc : t -> site:int -> lab:int -> kind:int -> unit

(** drop the most recently recorded relocation (ports that truncate the
    buffer and re-emit a span);
    @raise Verror.Error when none are pending *)
val pop_reloc : t -> unit

val reloc_count : t -> int

(** pending plus already-resolved relocations — the total the
    generator ever recorded, still meaningful after [resolve_relocs] *)
val total_relocs : t -> int

(** resolve every recorded relocation through the target's patcher, or
    with [~rewrite:(kind, word)] overwrite each of that kind with [word];
    @raise Verror.Error on undefined labels *)
val resolve_relocs :
  ?rewrite:int * int -> t -> apply:(kind:int -> site:int -> dest:int -> unit) -> unit

(** {2 FP immediates, argument reloads and call arguments} *)

(** record an FP constant load at [site]; the constant is placed after
    the code by {!place_fimms} *)
val add_fimm : t -> site:int -> bits:int64 -> dbl:bool -> unit

val fimm_count : t -> int

(** record a stack-passed incoming argument, at [off] bytes from the
    caller's sp, whose reload must be emitted in the patched prologue *)
val add_arg_load : t -> off:int -> Reg.t -> Vtype.t -> unit

(** visit the recorded argument reloads in the order they were added *)
val iter_arg_loads : t -> (off:int -> Reg.t -> Vtype.t -> unit) -> unit

(** record one outgoing call argument (push order) *)
val push_call_arg : t -> Vtype.t -> Reg.t -> unit

val call_arg_count : t -> int

(** the i-th pushed argument's type / register, 0-based in push order *)
val call_arg_ty : t -> int -> Vtype.t

val call_arg_reg : t -> int -> Reg.t
val clear_call_args : t -> unit

(** {2 Register allocation (section 3: priority-ordered pools)} *)

val mark_in_use : t -> Reg.t -> unit
val set_reg_class : t -> Reg.t -> cls_override -> unit

(** [None] on exhaustion: clients fall back to the stack *)
val getreg : t -> cls:[ `Temp | `Var ] -> float:bool -> Reg.t option

val putreg : t -> Reg.t -> unit

(** {2 Callee-saved bookkeeping} *)

(** record a register write for prologue backpatching; honours the
    section-5.3 class overrides *)
val note_write : t -> Reg.t -> unit

(** count one VCODE-level instruction under its {!Opk} slot; ports call
    this once per public emitter entry.  Both the total and the
    per-opcode table are plain int-array stores. *)
val count_insn : t -> int -> unit

(** retire a previously counted instruction (peephole rewrites that
    remove an already-counted instruction from the buffer tail) *)
val uncount_insn : t -> int -> unit

(** the emission count recorded for one {!Opk} slot;
    @raise Verror.Error on an out-of-range slot *)
val op_count : t -> int -> int

(** {2 Peephole tail-rewrite fixups}

    Used by [Vcode.Make_peephole] when it rewrites the last few emitted
    words in place; each is bounded by the window size. *)

(** drop provenance spans starting at or beyond [start] *)
val prov_drop_from : t -> start:int -> unit

(** re-record a provenance span at an explicit start index *)
val prov_append : t -> start:int -> slot:int -> unit

(** shift pending relocation sites at or beyond [from] by [by] words
    (word removal moves downstream patch sites with the code) *)
val shift_reloc_sites : t -> from:int -> by:int -> unit

(** visit each relocation's (code-index site, code-index destination)
    pair; relocations whose label is still unbound are skipped.  After
    v_end every label is bound, so this enumerates exactly the
    backpatches taken — telemetry derives its backpatch-distance
    distribution from it. *)
val iter_reloc_spans : t -> (site:int -> dest:int -> unit) -> unit

(** {2 Locals} *)

(** allocate stack space; returns a byte offset into the locals area
    (whose sp-relative base is target-specific, see
    {!Machdesc.t.locals_base}) *)
val alloc_local : t -> bytes:int -> align:int -> int

(** {2 Shared finalization helpers for target ports} *)

(** place pending FP constants after the code and patch each load site
    (section 5.2) *)
val place_fimms : t -> big_endian:bool -> patch:(site:int -> addr:int -> unit) -> unit

(** queue the move [dst <- src] of one parallel move *)
val push_move : t -> Vtype.t -> dst:Reg.t -> src:Reg.t -> unit

(** does a queued move other than [r <- r] write [r]? *)
val move_writes : t -> Reg.t -> bool

(** resolve the queued moves of [scratch]'s register file as one
    parallel move, [move g ty dst src] per move, and drop them from the
    queue; moves without conflicts keep their order, and cycles are
    broken through [scratch].  Allocates nothing. *)
val parallel_moves : t -> move:(t -> Vtype.t -> Reg.t -> Reg.t -> unit) -> scratch:Reg.t -> unit

(** {2 Space accounting for the in-place-generation experiment} *)

val live_words : t -> int
val code_addr : t -> int -> int
val here : t -> int

(** {2 Emit-site provenance}

    When enabled (see {!create}), every {!count_insn} site also records
    its start word index, giving a side table mapping each emitted code
    word back to the client-level [v_*] call that produced it.  The
    table is harvested post-[v_end] like [Telemetry.note_gen]; with
    provenance off, {!count_insn} costs one predicted-untaken branch
    more than the PR 3 two-store fast path and records nothing. *)

(** record the closing sentinel: words emitted after this point (the
    epilogue, the FP-immediate pool) belong to no client emitter.
    Called by [Vcode]'s [end_gen] before the target finalizer runs;
    idempotent, no-op with provenance off. *)
val close_provenance : t -> unit

(** recorded sites, sentinel included *)
val prov_count : t -> int

(** visit the recorded spans in emission order: [slot] is the {!Opk}
    slot (-1 for the closing sentinel), [ordinal] the emission index,
    [first]/[last] the covered word-index range (last exclusive).
    Words below the first span are the reserved prologue area. *)
val iter_prov_spans :
  t -> (ordinal:int -> slot:int -> first:int -> last:int -> unit) -> unit

(** symbolize the instruction covering word index [idx], e.g.
    ["addii#12@L3+2"] — the 12th emitted VCODE op, two words past
    label 3 — or ["prologue"]/["epilogue"] for the reserved areas.
    [None] when out of range or provenance was off. *)
val prov_symbol : t -> int -> string option
