(** The shared execution engine: the one copy of the four-tier ladder
    (interpreter, predecode, superblocks, regions) every CPU simulator
    runs on.

    A port supplies an {!ISA} — its decoder-facing semantics — and
    [include]s [Make (Isa)], which adds fetch/predecode, superblock and
    region compilation, chaining, the self-modifying-code abort
    protocol, the dispatch loops, the run/step harness and the tier-up
    policy.  The machine record is concrete and shared (see
    {!Types.machine}) so the hot loops read control-flow state as plain
    fields.

    Tier-up: on a translating machine, the first {!hot_calls} calls
    [run] makes at an entry pc run in the port's interpreter loop with
    the decode cache off.  They share a budget of {!cold_budget}
    retired instructions: the call that exhausts it goes up to the
    machine's tier mid-call, and the entry is hot from then on.
    Rewriting the code at an entry makes it cold again.  Every tier retires the same
    stream, so the policy changes no cycle, cache statistic or
    architectural state. *)

module Types : sig
  exception Machine_error of string

  (** per-entry call counts: a sparse table keyed by the entry pc's
      256-byte granule *)
  type calls

  (** a compiled straight-line run (tier 2) *)
  type block = {
    entry : int;  (** code address of the first instruction *)
    n : int;  (** instruction count, terminator (+ delay slot) included *)
    run : unit -> unit;  (** the whole run fused into one closure, commit included *)
    has_term : bool;  (** ends in a control transfer (vs. capped fallthrough) *)
  }

  (** a fused hot trace of blocks (tier 3) *)
  type region = {
    r_entry : int;
    r_n : int;  (** instructions retired per full pass *)
    r_spans : (int * int) array;  (** constituent-block (addr, bytes) *)
    r_run : unit -> unit;  (** one pass, icache probes included *)
    r_fast : unit -> unit;  (** one pass, probes elided *)
    r_addrs : int array;  (** region insn index -> code address *)
    r_delay : bool array;  (** index is its block's delay slot *)
  }

  (** One simulated CPU.  ['i] is the port's decoded instruction, ['a]
      its architectural register state.  The branch scratch [btarget]
      is what a terminator writes: with a delay slot (MIPS, SPARC) the
      target [npc] takes once the slot issues; without one (Alpha, PPC)
      the next pc itself, and [npc] is unused. *)
  type ('i, 'a) machine = {
    mem : Mem.t;
    icache : Cache.t;
    dcache : Cache.t;
    pdc : 'i Decode_cache.t;
    predecode : bool;
    bc : block Block_cache.t;
    blocks : bool;
    rc : region Region_cache.t;
    regions : bool;
    probe : Sim_probe.t;
    tr : Trace.t;
    cfg : Mconfig.t;
    st : 'a;
    mutable pc : int;
    mutable npc : int;
    mutable btarget : int;
    mutable blk_i : int;
    mutable cycles : int;
    mutable insns : int;
    mutable stack_top : int;
    hot_calls : int;  (** cold calls per entry before tier-up; 0: none *)
    calls : calls;
    mutable pdc_on : bool;
        (** [pdc] is consulted and filled: [predecode], except during a
            cold call *)
  }
end

include module type of struct include Types end

(** the return-to-host address: outside simulated memory *)
val halt_addr : int

(** the default tier-up threshold: calls an entry runs cold (64, the
    same as {!Region_cache.hot_threshold}) *)
val hot_calls : int

(** instructions an entry's cold calls retire in all before the one
    in flight goes up to the translating tier with the fuel it has
    left *)
val cold_budget : int

(** The two halves of a fetch, for a port's [step_inner] to put its
    own decoder between — [match cached m pc with Some i -> i | None ->
    remember m pc (decode m.mem pc)] — so the interpreter's decode is a
    direct call: the predecoded instruction at [pc] if any, and
    recording a fresh decode (both no-ops with predecode off) *)
val cached : ('i, 'a) machine -> int -> 'i option

val remember : ('i, 'a) machine -> int -> 'i -> 'i

(** raise the [Machine_error] for the illegal word [w] at [pc] *)
val illegal : int -> int -> 'a

(** the interpreter's per-instruction bookkeeping for a port's
    [run_go] (see {!ISA.run_go}): [false] at {!halt_addr}; otherwise
    raises the engine's fuel exit when [fuel] is 0 (which [run] turns
    into the out-of-fuel [Machine_error]), makes the icache access of
    the instruction at [m.pc], traces and counts it, and returns [true] *)
val interp_ready : ('i, 'a) machine -> int array -> int -> int -> int -> bool

(** a data load's dcache access, its miss penalty charged to [cycles] *)
val daccess : ('i, 'a) machine -> int -> unit

(** a data store's dcache access (write-through: statistics only) *)
val waccess : ('i, 'a) machine -> int -> unit

(** What a port supplies. *)
module type ISA = sig
  type insn
  type state

  (** telemetry prefix: [<name>.pdc], [<name>.bc], [<name>.rc], ... *)
  val name : string

  val big_endian : bool

  (** bytes between the top of memory and the initial stack top *)
  val stack_reserve : int

  val init_state : unit -> state

  (** preload memory at creation (runtime routines), before the
      coherence watchers are attached *)
  val init_mem : Mem.t -> unit

  (** [decode mem pc] decodes the word at [pc]: [Mem.Fault] on a wild
      pc, {!illegal} on an illegal word *)
  val decode : Mem.t -> int -> insn

  (** [true]: one branch delay slot, [npc] plus [btarget] as the branch
      scratch (MIPS, SPARC).  [false]: no delay slot, [btarget] is the
      next pc (Alpha, PPC). *)
  val delay_slot : bool

  (** Interpret the instruction at [m.pc] (fetch it with {!cached} /
      {!remember}; it is already counted in [insns] and its icache
      access made by the caller), leaving pc (and npc) on its
      successor. *)
  val step_inner : (insn, state) machine -> unit

  (** The interpreter loop, always written
      [let rec run_go m tags shift mask fuel =
         if interp_ready m tags shift mask fuel then begin
           step_inner m; run_go m tags shift mask (fuel - 1) end].
      It is the one loop a port repeats: without flambda a loop shared
      through the functor would make every interpreted instruction an
      indirect call, which costs the off and predecode tiers about 10%. *)
  val run_go : (insn, state) machine -> int array -> int -> int -> int -> unit

  (** the compiled closure for a body (non-control) instruction, or
      [None] for a terminator or an instruction left to the interpreter;
      a store closure must raise [Block_cache.Retired] when it finds the
      block cache dirty after writing *)
  val act_of : (insn, state) machine -> insn -> (unit -> unit) option

  (** the compiled closure for the terminator at [pc]: it writes the
      taken target or the fallthrough into [btarget] *)
  val term_of : (insn, state) machine -> int -> insn -> (unit -> unit) option

  (** whether a body closure can raise (memory fault, trap, [Retired]);
      only those carry the abort-fixup bookkeeping *)
  val act_raises : insn -> bool

  (** whether terminator closures can raise *)
  val term_raises : bool

  (** [jump_target pc insn]: the static target of an unconditional
      direct jump at [pc], which lets a region drop its guard *)
  val jump_target : int -> insn -> int option

  (** an instruction with no architectural effect, dropped from a
      region's probe-free pass *)
  val is_nop : insn -> bool
end

(** What [Make] adds: the record types re-exported with their labels
    (so [m.Port_sim.insns] resolves), and the engine entry points. *)
module type S = sig
  include module type of struct include Types end

  type insn
  type state
  type t = (insn, state) machine

  (** [hot_calls] (default {!Engine.hot_calls}) is the tier-up
      threshold; [0] engages the tier on an entry's first call.  It is
      ignored on the interpreter (all tiers off). *)
  val create :
    ?predecode:bool ->
    ?blocks:bool ->
    ?regions:bool ->
    ?hot_calls:int ->
    ?telemetry:Telemetry.t ->
    ?trace:Trace.t ->
    Mconfig.t ->
    t

  (** single-step with exact cycle accounting *)
  val step : t -> unit

  (** run from [m.pc] until control reaches {!halt_addr}, on the tier
      the machine was created with (in the interpreter while [m.pc] is
      a cold entry; see the tier-up note above); raises [Machine_error]
      when [fuel] instructions retire first *)
  val run : ?fuel:int -> t -> unit

  val reset_stats : t -> unit

  (** v_end's icache flush: timing caches plus every host-side cache;
      every entry starts cold again *)
  val flush_caches : t -> unit
end

(** [state] is substituted away, so a port can name its own register
    record [state] and [include] the result beside it *)
module Make (I : ISA) : S with type insn = I.insn and type state := I.state
