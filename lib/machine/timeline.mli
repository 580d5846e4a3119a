(** A gauge-snapshot ring: periodic samples of named int gauges over a
    run, the timeline companion to {!Telemetry}'s whole-run
    aggregates.

    Register int-returning gauge closures up front, then call {!tick}
    once per unit of work (packet, run, ...).  Every [every] ticks the
    timeline snapshots all gauges into a preallocated int ring row
    stamped with the tick ordinal; once full, new rows overwrite the
    oldest ({!samples_seen} keeps the true total, so {!dropped} is
    exact).  Exported as Perfetto [counter] tracks by
    [Chrome_trace.write_timeline] in the harness ([vprof --perfetto]).

    The {!disabled} timeline never samples: gauges are closures, so
    (unlike Telemetry's branch-free stores) sampling must be gated —
    its trigger threshold is pinned so the compare in [tick] never
    fires, making a disabled tick one increment plus one predicted
    branch with zero allocation and no gauge calls. *)

type t

(** [create ?every ?rows ?max_gauges ()] — sample every [every] ticks
    (default 64) into a ring of [rows] rows (default 1024) holding up
    to [max_gauges] gauges (default 16; fixed row stride, so late
    registration reads as 0 in older rows). *)
val create : ?every:int -> ?rows:int -> ?max_gauges:int -> unit -> t

(** the shared no-op timeline *)
val disabled : t

val is_enabled : t -> bool

(** register (or re-point, per name) a gauge; cold.  Raises
    [Invalid_argument] past [max_gauges] on an enabled timeline; a
    no-op on {!disabled}. *)
val gauge : t -> string -> (unit -> int) -> unit

(** {2 Hot path} *)

(** advance the tick counter, sampling when the period elapses *)
val tick : t -> unit

(** force a snapshot row now, off-period (used to bracket a run with
    exact start/end rows) *)
val sample_now : t -> unit

(** {2 Reading (cold)} *)

val every : t -> int
val ticks : t -> int

(** total snapshots ever taken, including overwritten rows *)
val samples_seen : t -> int

(** rows currently in the ring *)
val retained : t -> int

(** [samples_seen - retained] *)
val dropped : t -> int

(** registered gauge names, in registration (= row column) order *)
val gauge_names : t -> string list

(** retained rows oldest-first; [values] is in {!gauge_names} order *)
val iter : t -> (tick:int -> values:int array -> unit) -> unit

(** zero ticks, samples and the ring (gauges stay registered) *)
val reset : t -> unit
