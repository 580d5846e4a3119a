(** Structured telemetry for the codegen ladder and the simulators.

    A sink of named monotonic counters, value distributions
    (count/sum/min/max plus fixed log2 buckets) and a bounded
    structured event ring.  All storage is allocated up front: the
    hot-path operations ([bump], [add], [observe], [event]) are plain
    int-array stores with no allocation.

    The compile-out path is the {!disabled} sink: registering on it
    returns a scratch id and every store lands in a one-slot scratch
    array, so instrumentation sites stay branch-free no-ops.
    Telemetry never touches the simulated clock or the timing
    {!Cache} statistics — cycle counts and cache stats are
    bit-identical whether the sink is enabled, disabled, or absent. *)

type t

(** a registered counter id; valid only against the sink that issued it *)
type counter

(** a registered distribution id; valid only against the sink that issued it *)
type dist

(** structured event kinds recorded in the ring *)
type kind =
  | Block_compile      (** a superblock was compiled: (entry, insns) *)
  | Block_evict        (** a compile replaced a resident block: (entry, insns) *)
  | Block_chain        (** direct block-to-block chain: (entry, run length) *)
  | Block_abort        (** a running block aborted via [Retired]: (entry, insn index) *)
  | Cache_invalidate   (** a store dropped predecode/translation state: (addr, len) *)
  | Smc_retire         (** a store retired resident translations: (addr, len) *)
  | Trap               (** a fault escaped a run loop: (pc, 0) *)
  | Region_promote     (** a hot superblock was recompiled as a region: (entry, insns) *)
  | Region_side_exit   (** a specialized region took its side exit: (entry, insn index) *)

val create : unit -> t

(** the shared no-op sink *)
val disabled : t

val is_enabled : t -> bool

(** {2 Registration (cold; idempotent per name)} *)

val counter : t -> string -> counter
val dist : t -> string -> dist

(** {2 Hot path — plain int-array stores, no allocation} *)

val bump : t -> counter -> unit
val add : t -> counter -> int -> unit
val observe : t -> dist -> int -> unit
val event : t -> kind -> a:int -> b:int -> unit

(** {2 Latency timers}

    A stopwatch over host wall-clock nanoseconds feeding an ordinary
    {!dist}.  Unlike the store-based hot path above, timers gate on
    the enabled flag {e before} touching the clock: the clock read
    allocates a boxed float, so the disabled path must skip it
    entirely.  Disabled timers are two predicted branches, zero
    allocation, and leave nothing observable (pinned by
    test_telemetry_overhead). *)

(** host wall clock in nanoseconds ([Unix.gettimeofday]-based:
    microsecond granularity, may step under NTP — deltas are clamped
    at [timer_stop]) *)
val now_ns : unit -> int

(** start a stopwatch: the current time on an enabled sink, [0] on the
    disabled sink (no clock read) *)
val timer_start : t -> int

(** [timer_stop t d t0] observes the elapsed nanoseconds since
    [timer_start] into [d]; a no-op on the disabled sink *)
val timer_stop : t -> dist -> int -> unit

(** {2 Reading the sink (cold)} *)

val value : t -> counter -> int

(** counter value by registered name *)
val find : t -> string -> int option

type dist_stats = {
  count : int;
  sum : int;
  min : int;  (** 0 when [count = 0] *)
  max : int;  (** 0 when [count = 0] *)
  buckets : int array;  (** log2 buckets: index [i] counts values in [2^i, 2^(i+1)) *)
}

val dist_stats : t -> dist -> dist_stats

(** [quantile t d q] estimates the [q]-quantile (q in [0,1], clamped)
    of a distribution from its log2 buckets: the rank [q*(count-1)] is
    located in the cumulative bucket counts and linearly interpolated
    across that bucket's value span, then clamped to the exact
    recorded [min]/[max] — so empty distributions report 0,
    single-value distributions report that value at every q, and no
    estimate ever leaves the observed range. *)
val quantile : t -> dist -> float -> int

(** the same estimator over an already-extracted {!dist_stats} (used
    by readers like vprof that have only the stats record) *)
val quantile_of_stats : dist_stats -> float -> int

val iter_counters : t -> (string -> int -> unit) -> unit
val iter_dists : t -> (string -> dist_stats -> unit) -> unit

(** retained events, oldest first (the ring keeps the newest 512) *)
val events : t -> (kind * int * int) list

(** total events ever recorded, including overwritten ones *)
val events_seen : t -> int

val kind_name : kind -> string

(** zero every counter, distribution and the event ring *)
val reset : t -> unit

(** fold one generator's emission statistics into the sink after
    v_end: per-opcode counts ([<prefix>.emit.<op>]), instruction and
    code-word totals, capacity growths, peephole rewrite counters
    ([<prefix>.peep.moves_killed/fusions/slot_fills/strength], nonzero
    only for [Vcode.Make_peephole]-wrapped ports), and the
    backpatch-distance distribution ([<prefix>.backpatch_words],
    |dest - site| in instruction words).  [prefix] defaults to
    ["gen"]. *)
val note_gen : t -> ?prefix:string -> Vcodebase.Gen.t -> unit
