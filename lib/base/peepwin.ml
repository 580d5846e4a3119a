(* Sliding peephole window: per-generator metadata about the tail of
   the code buffer.

   The window never buffers instruction words — every emitter writes
   straight into the Codebuf exactly as before — it only *remembers* the
   most recent emitted VCODE instruction (buffer span, def/use
   registers, immediate) so a peephole stage ({!Vcode.Make_peephole})
   can rewrite the buffer tail in place: retire a dead set-immediate,
   lift an independent instruction into a branch delay slot, skip a
   redundant move before it is ever encoded.  Because a "flush" is just
   forgetting metadata (no word moves, no allocation), the paper's
   O(labels + jumps) space bound is untouched: the window is four
   mutable int fields allocated once per {!Gen.t}.

   Depth is one record: every rewrite the stage performs (fusion into
   the previous set, lifting the previous instruction into a delay
   slot) only ever consults the most recent instruction, so a deeper
   window would be pure bookkeeping overhead on the emit fast path.
   For the same reason the record is stored packed — recording runs on
   every wrapped emission, consuming runs only when a rewrite is about
   to fire, so the unpack cost sits on the rare path.

   The window is advisory: any code that appends to or truncates the
   buffer without telling the window (extension instructions, the
   delay-slot scheduler's surgery) merely desynchronizes it, and the
   stage detects that — the record's span no longer ends at the buffer
   length — and drops the metadata rather than miscompiling.  (Length
   alone suffices: in-place patching without a length change only
   happens when [finish] resolves relocations, and it resets the
   window first.) *)

(* Record kinds.  Only instruction shapes the peephole stage can reason
   about are pushed; everything else flushes the window. *)
let k_arith = 0      (* reg-reg binop, single word *)
let k_arith_imm = 1  (* reg-imm binop, single word *)
let k_mov = 2        (* register move *)
let k_unary = 3      (* com/neg/not *)
let k_set = 4        (* set-immediate (any width; value round-trips int) *)
let k_store = 5      (* single-word store: no def, two uses *)

type t = {
  (* [(kind + 1) lsl 16 lor opk]; 0 = no record.  The +1 keeps a
     k_arith record (kind 0, opk possibly 0) distinct from "empty". *)
  mutable ko : int;
  mutable start : int;  (* buffer word index of the record's first word *)
  mutable end_ : int;   (* buffer length just after the record *)
  (* [(def+1) lor (u1+1) lsl 10 lor (u2+1) lsl 20], packed Reg.to_int
     values (machine registers only — the stage sits below Make_gen's
     virtual-register mapping), -1 = none. *)
  mutable regs : int;
  mutable imm : int;    (* k_set / k_arith_imm payload *)
  (* One copy fact: registers [eq_a] and [eq_b] hold the same value
     (established by a retired mov, killed when either is redefined or
     at any control join).  -1 = no fact. *)
  mutable eq_a : int;
  mutable eq_b : int;
  (* Rewrite statistics, surfaced through bench/vprof/Telemetry. *)
  mutable moves_killed : int;
  mutable fusions : int;
  mutable slot_fills : int;
  mutable strength : int;
}

let create () =
  {
    ko = 0;
    start = 0;
    end_ = 0;
    regs = 0;
    imm = 0;
    eq_a = -1;
    eq_b = -1;
    moves_killed = 0;
    fusions = 0;
    slot_fills = 0;
    strength = 0;
  }

(* Forget the window record but keep the copy fact: used at points
   where words become untouchable (a branch was emitted) but values are
   unchanged on the fall-through path. *)
let[@inline] flush w = w.ko <- 0

let[@inline] kill_fact w =
  w.eq_a <- -1;
  w.eq_b <- -1

(* Forget everything: label binds (join points), calls, desyncs. *)
let[@inline] reset w =
  w.ko <- 0;
  kill_fact w

(* [r] (packed) is about to be redefined: kill a copy fact involving it. *)
let[@inline] on_def w r = if r = w.eq_a || r = w.eq_b then kill_fact w

let[@inline] have_fact w a b =
  (w.eq_a = a && w.eq_b = b) || (w.eq_a = b && w.eq_b = a)

let[@inline] set_fact w a b =
  w.eq_a <- a;
  w.eq_b <- b

(* Record accessors (consume path). *)
let[@inline] have w = w.ko <> 0
let[@inline] kind w = (w.ko lsr 16) - 1
let[@inline] opk w = w.ko land 0xffff
let[@inline] def w = (w.regs land 0x3ff) - 1
let[@inline] u1 w = ((w.regs lsr 10) land 0x3ff) - 1
let[@inline] u2 w = ((w.regs lsr 20) land 0x3ff) - 1

let[@inline] push w ~start ~end_ ~kind ~def ~u1 ~u2 ~opk =
  w.start <- start;
  w.end_ <- end_;
  w.regs <- (def + 1) lor ((u1 + 1) lsl 10) lor ((u2 + 1) lsl 20);
  w.ko <- ((kind + 1) lsl 16) lor opk

let[@inline] pop w = w.ko <- 0
