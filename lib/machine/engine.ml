(* The shared execution engine: the one copy of the four-tier ladder
   (interpreter, predecode, superblocks, regions) that every CPU
   simulator runs on.  A port supplies only its decoder-facing
   semantics as an [ISA] module — the interpreter arm, the compiled
   body/terminator closures, which of them can raise, the static target
   of an unconditional direct jump, a nop test and its delay-slot shape
   — and [Make] wraps it with fetch/predecode, block and region
   compilation, chaining, the self-modifying-code abort protocol, the
   dispatch loops and the run/step harness.

   The machine record is concrete and shared (polymorphic only in the
   decoded-instruction type and the port's architectural state), so the
   dispatch loops and compiled closures read pc/npc/btarget/insns/cycles
   as plain fields: without flambda a call through a functor parameter
   is an indirect call that is never inlined.  The only such calls are
   [act_of]/[term_of]/[decode] at compile time and [step_inner] on the
   block tiers' cold interpreter fallback.  For the same reason the
   interpreter tiers' hot loop, [run_go], is a four-line recursion each
   port writes around the shared [interp_ready] and [cached]/[remember]
   helpers, so that the per-instruction [step_inner] and decoder calls
   stay direct (routing them through the functor costs the off and
   predecode tiers about 10%).

   Control-flow state.  Both delay-slot shapes keep their branch scratch
   in [btarget]; the terminator closures write it for both arms:
   - delay slot (MIPS, SPARC): [pc] is the instruction issuing, [npc]
     the one after it (the delay slot after a branch), and [btarget] the
     control-transfer target that becomes [npc] once the slot issues;
   - no delay slot (Alpha, PPC): [btarget] is the next pc, which the
     instruction's retirement moves into [pc]; [npc] is unused.

   Tier-up.  A translating machine does not translate a call until its
   entry has proved hot: [run] counts calls per entry pc in a flat
   table ([Calls]), and the first [hot_calls] calls of an entry run in
   the port's interpreter loop with the decode cache off — no fill, no
   block lookup, no compile.  Those calls share a budget of
   [cold_budget] retired instructions: the call that exhausts it
   escapes mid-call to the machine's own tier with the fuel it has
   left, and the entry is hot from then on, so a long loop in
   rarely-called code, or a fair amount of work in a few calls, is
   still translated.  A write watcher forgets the counts of entries whose
   code is rewritten, so a reused code slab starts cold.  Every tier
   retires the same stream, so the policy moves no cycle, cache
   statistic or architectural bit. *)

(* the tier-up policy's two constants (see the header comment): cold
   calls per entry, the same as {!Region_cache.hot_threshold}'s block
   dispatches, and the instructions an entry's cold calls may retire
   together before it goes up to the translating tier *)
let hot_calls = 64
let cold_budget = 2048

(* Per-entry call counts behind the tier-up policy, in a flat int
   array indexed by the 256-byte granule of a call entry: word [2g]
   holds the entry counted in granule [g] (or -1), word [2g+1] its
   packed state, the cold calls so far above [left_bits] and the
   entry's remaining cold budget below.  The array grows lazily to the
   highest granule counted, as {!Block_cache}'s slots do.  A second
   entry in an occupied granule (a tcc unit puts several functions
   within 256 bytes), or one outside memory, goes to a small overflow
   array of (entry, state) pairs, searched linearly.  A granule that
   counts any entry has its own slot occupied, so the write watcher
   needs one array load to dismiss a store into a granule with no
   counted entry, and the conservative byte span [lo, hi) of counted
   entries dismisses a store outside it with two comparisons, as
   {!Block_cache.invalidate} does.

   An entry's count is reached through a handle: the index of its state
   word in [slots], or the complement of its index in [over].  A handle
   is only good until the next [add] or [forget]. *)
module Calls = struct
  let granule_shift = 8
  let left_bits = 12
  let left_mask = (1 lsl left_bits) - 1
  let one_call = 1 lsl left_bits
  let () = assert (cold_budget <= left_mask)

  (* the largest call count a state word holds; [Make.create] caps
     [hot_calls] there *)
  let max_calls = max_int lsr left_bits

  (* no entry: a state word sits at an odd index of [slots] *)
  let absent = 0

  type t = {
    mutable slots : int array;
    limit : int;              (* two words per granule of memory: growth ceiling *)
    mutable over : int array; (* overflow (entry, state) pairs in [0, 2 * n_over) *)
    mutable n_over : int;
    mutable live : int;       (* entries counted, both tables *)
    mutable lo : int;
    mutable hi : int;
  }

  let create ~mem_bytes =
    let limit = 2 * ((mem_bytes + (1 lsl granule_shift) - 1) lsr granule_shift) in
    { slots = Array.make (min 512 limit) (-1); limit; over = [||]; n_over = 0; live = 0;
      lo = max_int; hi = 0 }

  let[@inline] count st = st lsr left_bits
  let[@inline] left st = st land left_mask

  let[@inline] get t h =
    if h > 0 then Array.unsafe_get t.slots h else Array.unsafe_get t.over (lnot h)

  let[@inline] set t h st =
    if h > 0 then Array.unsafe_set t.slots h st else Array.unsafe_set t.over (lnot h) st

  let rec find_over t entry j =
    if j >= t.n_over then absent
    else if Array.unsafe_get t.over (2 * j) = entry then lnot ((2 * j) + 1)
    else find_over t entry (j + 1)

  (* the handle of [entry]'s count, or [absent]; a negative entry's
     index fails the bounds test *)
  let[@inline] find t entry =
    let i = (entry lsr granule_shift) lsl 1 in
    if i < Array.length t.slots && Array.unsafe_get t.slots i = entry then i + 1
    else if t.n_over = 0 then absent
    else find_over t entry 0

  let grow t i =
    let n = ref (Array.length t.slots) in
    while !n <= i do
      n := 2 * !n
    done;
    let slots = Array.make (min !n t.limit) (-1) in
    Array.blit t.slots 0 slots 0 (Array.length t.slots);
    t.slots <- slots

  let add_over t entry =
    if 2 * t.n_over = Array.length t.over then begin
      let over = Array.make (max 16 (4 * t.n_over)) 0 in
      Array.blit t.over 0 over 0 (2 * t.n_over);
      t.over <- over
    end;
    let j = 2 * t.n_over in
    t.over.(j) <- entry;
    t.over.(j + 1) <- cold_budget;
    t.n_over <- t.n_over + 1;
    lnot (j + 1)

  (* count [entry] from now on, with no calls made and the whole cold
     budget left; returns its handle *)
  let add t entry =
    if entry < t.lo then t.lo <- entry;
    if entry + 4 > t.hi then t.hi <- entry + 4;
    t.live <- t.live + 1;
    let i = (entry lsr granule_shift) lsl 1 in
    if i < t.limit then begin
      if i >= Array.length t.slots then grow t i;
      if t.slots.(i) < 0 then begin
        t.slots.(i) <- entry;
        t.slots.(i + 1) <- cold_budget;
        i + 1
      end
      else add_over t entry
    end
    else add_over t entry

  (* a cold call at [entry] retired [n] instructions of its budget *)
  let spend t entry n =
    let h = find t entry in
    if h <> absent then set t h (get t h - n)

  (* [entry] escaped its budget: its count is [hot] from now on *)
  let heat t entry hot =
    let h = find t entry in
    if h <> absent then set t h ((hot lsl left_bits) lor left (get t h))

  let clear t =
    Array.fill t.slots 0 (Array.length t.slots) (-1);
    t.n_over <- 0;
    t.live <- 0;
    t.lo <- max_int;
    t.hi <- 0

  (* move the last overflow pair into pair [j] *)
  let remove_over t j =
    let l = 2 * (t.n_over - 1) in
    t.over.(2 * j) <- t.over.(l);
    t.over.((2 * j) + 1) <- t.over.(l + 1);
    t.n_over <- t.n_over - 1

  (* Forget every entry whose first word overlaps [addr, addr+len).  In
     a granule that loses its slot's entry, an overflow entry of the
     same granule moves into the slot. *)
  let forget t addr len =
    if len > 0 && addr < t.hi && addr + len > t.lo then begin
      let last = addr + len in
      let g0 = (max (max 0 (addr - 3)) t.lo) lsr granule_shift in
      let g1 = (min (last - 1) (t.hi - 1)) lsr granule_shift in
      let g1 = min g1 ((Array.length t.slots / 2) - 1) in
      for g = g0 to g1 do
        let i = 2 * g in
        let e = Array.unsafe_get t.slots i in
        if e >= 0 then begin
          if e + 4 > addr && e < last then begin
            t.slots.(i) <- -1;
            t.live <- t.live - 1
          end;
          let j = ref 0 in
          while !j < t.n_over do
            let oe = t.over.(2 * !j) in
            if oe lsr granule_shift <> g then incr j
            else if oe + 4 > addr && oe < last then begin
              remove_over t !j;
              t.live <- t.live - 1
            end
            else if t.slots.(i) < 0 then begin
              t.slots.(i) <- oe;
              t.slots.(i + 1) <- t.over.((2 * !j) + 1);
              remove_over t !j
            end
            else incr j
          done
        end
      done;
      (* nothing counted: reopen the two-comparison fast path *)
      if t.live = 0 then begin
        t.lo <- max_int;
        t.hi <- 0
      end
    end
end

module Types = struct
  exception Machine_error of string

  type calls = Calls.t

  (* A compiled straight-line run: one closure per instruction, ending
     at the first control transfer (compiled in, together with its delay
     slot on a delay-slot ISA) or the [Block_cache.max_insns] cap. *)
  type block = {
    entry : int;          (* code address of the first instruction *)
    n : int;              (* instruction count, terminator (+ delay slot) included *)
    run : unit -> unit;   (* the whole straight-line run fused into one closure:
                             per-instruction icache probes, [blk_i] updates and
                             the final pc/npc/insns commit are baked in at
                             compile time *)
    has_term : bool;      (* ends in a control transfer (vs. capped fallthrough) *)
  }

  (* A tier-3 region: a hot block plus its dominant direct-chained
     successors fused into one closure per pass, with interior branches
     specialized to their dominant direction (a mismatch raises
     [Region_cache.Side_exit]) and the final block committing pc
     generically.  [r_fast] is the probe-free pass used after the first
     ([r_run]) pass of a self-looping region has installed every icache
     line; it equals [r_run] when two region lines conflict in the
     direct-mapped icache. *)
  type region = {
    r_entry : int;
    r_n : int;                   (* instructions retired per full pass *)
    r_spans : (int * int) array; (* constituent-block (addr, bytes) *)
    r_run : unit -> unit;        (* one pass, icache probes included *)
    r_fast : unit -> unit;       (* one pass, probes elided *)
    r_addrs : int array;         (* region insn index -> code address *)
    r_delay : bool array;        (* index is its block's delay slot *)
  }

  type ('i, 'a) machine = {
    mem : Mem.t;
    icache : Cache.t;
    dcache : Cache.t;
    pdc : 'i Decode_cache.t;  (* host-side predecode; no cycle effect *)
    predecode : bool;
    bc : block Block_cache.t; (* superblock translation cache; no cycle effect *)
    blocks : bool;
    rc : region Region_cache.t; (* tier-3 region cache; no cycle effect *)
    regions : bool;
    probe : Sim_probe.t;      (* shared telemetry probe; never touches timing *)
    tr : Trace.t;             (* execution trace; the disabled sink is scratch *)
    cfg : Mconfig.t;
    st : 'a;                  (* the port's architectural registers *)
    mutable pc : int;
    mutable npc : int;
    mutable btarget : int;    (* branch scratch (see the header comment) *)
    mutable blk_i : int;      (* index of the block instruction in flight; abort-fixup scratch *)
    mutable cycles : int;
    mutable insns : int;
    mutable stack_top : int;
    hot_calls : int;          (* cold calls per entry before tier-up; 0: none *)
    calls : calls;            (* per-entry call counts (tier-up) *)
    mutable pdc_on : bool;    (* [pdc] consulted and filled: [predecode],
                                 except during a cold call *)
  }
end

include Types

let halt_addr = 0x10000000 (* outside simulated memory: return-to-host *)
let default_fuel = 200_000_000

(* The interpreter loops' fuel exit.  [run] turns it into the
   out-of-fuel [Machine_error], or, at the end of a cold call's budget,
   into the escape to the translating tier. *)
exception Fuel_exhausted

let[@inline] daccess m addr =
  let p = Cache.access m.dcache addr in
  if p <> 0 then m.cycles <- m.cycles + p

(* write-through: always 0 penalty, but the hit/miss stats must tick *)
let[@inline] waccess m addr = ignore (Cache.write_access m.dcache addr : int)

(* Fetch = [match cached m pc with Some i -> i | None -> remember m pc
   (decode m.mem pc)]: the predecode cache first (with predecode off it
   never fills, so the off tier skips the probe), then the port's
   decoder, whose miss path keeps the uncached fault behaviour exactly
   (Mem.Fault on a wild or misaligned pc, [illegal] on an illegal word).
   A port's [step_inner] spells this out around its own decoder so the
   interpreter's decode is a direct call; the compilers use the
   functor's [fetch]. *)
let illegal w pc = raise (Machine_error (Printf.sprintf "illegal instruction 0x%08x at 0x%x" w pc))

let[@inline] cached m pc = if m.pdc_on then Decode_cache.find m.pdc pc else None

let[@inline] remember m pc insn =
  if m.pdc_on then Decode_cache.set m.pdc pc insn;
  insn

(* The interpreter's per-instruction bookkeeping, inlined into each
   port's [run_go] recursion: [false] once control reaches [halt_addr];
   otherwise checks fuel (raising [Fuel_exhausted] at 0), makes the
   instruction's icache access and counts it, so the port's
   [step_inner] (a direct call there) can run.
   [step_inner] defers the 1-cycle-per-instruction component of the
   accounting to its caller; [run] adds it in bulk at exit from the
   instruction-count delta, so the hot loop carries one counter update
   less per step.  Totals are exact whenever [run] returns or raises.
   The icache tag probe is inlined with its geometry held in parameters
   (registers), falling back to the full model only on a miss; [run]
   likewise reconciles the hit counter from the retired-instruction
   delta, since a fetch loop performs exactly one icache access per
   retired instruction. *)
let[@inline] interp_ready m tags shift mask fuel =
  let pc = m.pc in
  pc <> halt_addr
  && begin
    if fuel = 0 then raise Fuel_exhausted;
    let line = pc lsr shift in
    if Array.unsafe_get tags (line land mask) <> line then
      (let p = Cache.access_uncounted m.icache pc in
       if p <> 0 then m.cycles <- m.cycles + p);
    Trace.retire m.tr pc;
    m.insns <- m.insns + 1;
    true
  end

(* Fuse a list of action closures into one, sequencing by direct calls
   in chunks of four: one chunk-closure entry per four instructions
   instead of a per-instruction array load and loop-counter update.
   Exceptions propagate out of the fused closure unchanged. *)
let rec seq (cs : (unit -> unit) list) : unit -> unit =
  match cs with
  | [] -> fun () -> ()
  | [ a ] -> a
  | [ a; b ] -> fun () -> a (); b ()
  | [ a; b; c ] -> fun () -> a (); b (); c ()
  | [ a; b; c; d ] -> fun () -> a (); b (); c (); d ()
  | a :: b :: c :: d :: rest ->
    let r = seq rest in
    fun () -> a (); b (); c (); d (); r ()

module type ISA = sig
  type insn
  type state

  val name : string
  val big_endian : bool
  val stack_reserve : int
  val init_state : unit -> state
  val init_mem : Mem.t -> unit

  val decode : Mem.t -> int -> insn
  val delay_slot : bool
  val step_inner : (insn, state) machine -> unit
  val run_go : (insn, state) machine -> int array -> int -> int -> int -> unit
  val act_of : (insn, state) machine -> insn -> (unit -> unit) option
  val term_of : (insn, state) machine -> int -> insn -> (unit -> unit) option
  val act_raises : insn -> bool
  val term_raises : bool
  val jump_target : int -> insn -> int option
  val is_nop : insn -> bool
end

module type S = sig
  include module type of struct include Types end

  type insn
  type state
  type t = (insn, state) machine

  val create :
    ?predecode:bool ->
    ?blocks:bool ->
    ?regions:bool ->
    ?hot_calls:int ->
    ?telemetry:Telemetry.t ->
    ?trace:Trace.t ->
    Mconfig.t ->
    t

  val step : t -> unit
  val run : ?fuel:int -> t -> unit
  val reset_stats : t -> unit
  val flush_caches : t -> unit
end

module Make (I : ISA) = struct
  include Types

  type insn = I.insn
  type state = I.state
  type t = (insn, state) machine

  let delay = I.delay_slot

  let create ?(predecode = true) ?(blocks = true) ?(regions = false) ?(hot_calls = hot_calls)
      ?(telemetry = Telemetry.disabled) ?(trace = Trace.disabled) (cfg : Mconfig.t) =
    if hot_calls < 0 then invalid_arg "Engine.create: negative hot_calls";
    let mem = Mem.create ~big_endian:I.big_endian ~size:cfg.mem_bytes () in
    I.init_mem mem;
    let name what = I.name ^ "." ^ what in
    let pdc =
      Decode_cache.create ~tel:telemetry ~trace ~name:(name "pdc") ~mem_bytes:cfg.mem_bytes ()
    in
    let bc = Block_cache.create ~tel:telemetry ~trace ~name:(name "bc") ~mem_bytes:cfg.mem_bytes
        ~len_bytes:(fun b -> 4 * b.n) () in
    let rc = Region_cache.create ~tel:telemetry ~name:(name "rc") ~mem_bytes:cfg.mem_bytes
        ~spans:(fun r -> r.r_spans) () in
    (* the interpreter has no tier to go up to *)
    let hot_calls =
      if predecode || blocks || regions then min hot_calls Calls.max_calls else 0
    in
    let calls = Calls.create ~mem_bytes:cfg.mem_bytes in
    let counted = hot_calls > 0 in
    (* The coherence watcher, one closure for every host-side cache so a
       store pays one indirect call.  A dropped region must abort a
       running pass even when the overwritten constituent block is no
       longer bc-resident (so [Block_cache.invalidate] dropped
       nothing): raise bc's dirty flag unconditionally and let the
       shared store closures raise Retired. *)
    ignore
      (Mem.add_write_watcher mem (fun addr len ->
           Decode_cache.invalidate pdc addr len;
           Block_cache.invalidate bc addr len;
           if regions && Region_cache.invalidate rc addr len then Block_cache.mark_dirty bc;
           if counted then Calls.forget calls addr len)
        : Mem.watcher);
    {
      mem;
      pdc;
      predecode;
      bc;
      blocks;
      rc;
      regions;
      probe = Sim_probe.create ~trace telemetry ~port:I.name ~predecode ~blocks ~regions;
      tr = trace;
      icache = Cache.create ~size_bytes:cfg.icache_bytes ~line_bytes:cfg.line_bytes
                 ~miss_penalty:cfg.imiss_penalty;
      dcache = Cache.create ~size_bytes:cfg.dcache_bytes ~line_bytes:cfg.line_bytes
                 ~miss_penalty:cfg.dmiss_penalty;
      cfg;
      st = I.init_state ();
      pc = 0;
      npc = 4;
      btarget = 0;
      blk_i = 0;
      cycles = 0;
      insns = 0;
      stack_top = cfg.mem_bytes - I.stack_reserve;
      hot_calls;
      calls;
      pdc_on = predecode;
    }

  let fetch m pc =
    match cached m pc with
    | Some i -> i
    | None -> remember m pc (I.decode m.mem pc)

  let fetch_opt m pc =
    match fetch m pc with
    | i -> Some i
    | exception (Machine_error _ | Mem.Fault _) -> None

  (* Redirect control to [t]: what a commit or an exit fixup leaves
     behind.  Cold paths only; the compiled commits below specialize it
     per shape at compile time. *)
  let goto m t =
    m.pc <- t;
    if delay then m.npc <- t + 4 else m.btarget <- t

  (* ---------------------------------------------------------------- *)
  (* Superblock translation (see {!Block_cache}): compile a straight-
     line decoded run into one closure per instruction, executed by
     [exec_chain] without per-instruction dispatch.  Each port closure
     replicates its [step_inner] arm exactly — same arithmetic, same
     memory-access order, same cycle surcharges — so a block retires
     with the same architectural state and timing as the interpreter.
     pc/npc are not maintained per instruction; the straight-line
     values are reconstructed on the (rare) abort paths from [blk_i].

     Only closures the port classifies as can-raise (a memory fault, a
     trap, or [Block_cache.Retired] from a store that invalidated a
     resident block) carry the [m.blk_i] bookkeeping; everything else is
     pure arithmetic and runs bare. *)

  (* instructions allowed before the terminator (+ delay slot) within
     the [Block_cache.max_insns] cap *)
  let max_body = Block_cache.max_insns - if delay then 2 else 1

  (* Scan the straight-line run entered at [entry]: body instructions up
     to and including the first control transfer (with its delay slot,
     which must itself be a plain body instruction), a non-compilable
     word (a trap, an illegal word, unmapped memory — left for the
     interpreter to trap on), or the length cap.  Returns the
     per-instruction (can-raise, action) list and whether it ends in a
     terminator; [None] if not even one instruction compiles.  Shared by
     the superblock and region compilers. *)
  let scan_run m entry =
    let body = ref [] and nbody = ref 0 in
    let fin = ref [] in
    let stop = ref false in
    let pc = ref entry in
    while (not !stop) && !nbody < max_body do
      match fetch_opt m !pc with
      | None -> stop := true
      | Some insn -> (
        match I.act_of m insn with
        | Some a ->
          body := (I.act_raises insn, a) :: !body;
          incr nbody;
          pc := !pc + 4
        | None -> (
          stop := true;
          match I.term_of m !pc insn with
          | None -> ()
          | Some t when not delay -> fin := [ (I.term_raises, t) ]
          | Some t -> (
            match fetch_opt m (!pc + 4) with
            | None -> ()
            | Some d -> (
              match I.act_of m d with
              | None -> ()
              | Some da -> fin := [ (I.term_raises, t); (I.act_raises d, da) ]))))
    done;
    match List.rev_append !body !fin with
    | [] -> None
    | all -> Some (all, match !fin with [] -> false | _ -> true)

  (* One probed instruction closure.  Timing is baked in: the
     instruction that starts a new icache line ([boundary]) carries the
     registerized probe (a later same-line fetch is a guaranteed hit — a
     block spans at most 256 consecutive bytes, far below the icache
     size, so it cannot evict its own lines, and a guaranteed hit is a
     no-op under bulk hit reconciliation).  Capturing the tag array is
     safe because [Cache.flush] clears it in place. *)
  let probed m (tags, shift, mask) i addr raises act boundary =
    if boundary then begin
      let line = addr lsr shift in
      let idx = line land mask in
      if raises then
        fun () ->
          m.blk_i <- i;
          if Array.unsafe_get tags idx <> line then begin
            let p = Cache.access_uncounted m.icache addr in
            if p <> 0 then m.cycles <- m.cycles + p
          end;
          act ()
      else
        fun () ->
          if Array.unsafe_get tags idx <> line then begin
            let p = Cache.access_uncounted m.icache addr in
            if p <> 0 then m.cycles <- m.cycles + p
          end;
          act ()
    end
    else if raises then
      fun () ->
        m.blk_i <- i;
        act ()
    else act

  (* Traced runs wrap every per-insn closure to record its issue before
     acting — issue order matches the interpreter's retire stream
     exactly, including a faulting instruction being the last record.
     Untraced compilation returns the closure untouched (bit-identical
     behaviour, zero overhead). *)
  let traced m addr f =
    if not (Trace.is_enabled m.tr) then f
    else
      fun () ->
        Trace.retire m.tr addr;
        f ()

  (* The commit: one more cannot-raise action fused onto the end of a
     run of [n] instructions.  If anything earlier raises it never runs,
     and the fixup handlers account the partial run instead.  After a
     terminator pc moves to the branch scratch, otherwise to the static
     fallthrough [ft]. *)
  let commit m n ~has_term ~ft =
    if has_term then
      if delay then
        fun () ->
          m.insns <- m.insns + n;
          let t = m.btarget in
          m.pc <- t;
          m.npc <- t + 4
      else
        fun () ->
          m.insns <- m.insns + n;
          m.pc <- m.btarget
    else if delay then
      fun () ->
        m.insns <- m.insns + n;
        m.pc <- ft;
        m.npc <- ft + 4
    else
      fun () ->
        m.insns <- m.insns + n;
        m.btarget <- ft;
        m.pc <- ft

  let compile_block m entry =
    let probe = Cache.probe m.icache in
    let _, shift, _ = probe in
    match scan_run m entry with
    | None -> None
    | Some (all, has_term) ->
      let n = List.length all in
      let wrap i (raises, act) =
        let addr = entry + (4 * i) in
        let boundary = i = 0 || addr lsr shift <> (addr - 4) lsr shift in
        traced m addr (probed m probe i addr raises act boundary)
      in
      let commit = commit m n ~has_term ~ft:(entry + (4 * n)) in
      Some { entry; n; run = seq (List.mapi wrap all @ [ commit ]); has_term }

  (* The exits of a compiled run (block or region pass) that the clean
     commit does not cover.  [a] is the address of instruction [i], the
     one in flight ([blk_i]); [in_delay] says it is a delay slot.
     - [Retired] (a store invalidated a resident block): the aborting
       instruction has retired, pc names its successor — the branch
       target after a delay slot — and control returns to the dispatch
       loop without chaining;
     - a fault: the faulting instruction counts as issued (the
       interpreter increments [insns] before executing), pc names it
       and npc its successor — just as [run_go] would leave them. *)
  let abort m ~entry i a ~in_delay =
    m.insns <- m.insns + i + 1;
    Sim_probe.abort m.probe ~entry ~i ~pc:a;
    goto m (if in_delay then m.btarget else a + 4)

  let fault m i a ~in_delay =
    m.insns <- m.insns + i + 1;
    m.pc <- a;
    if delay then m.npc <- (if in_delay then m.btarget else a + 4) else m.btarget <- a + 4

  let block_delay b i = delay && b.has_term && i = b.n - 1

  (* Execute [b] (preconditions: [b.n <= fuel], and on a delay-slot ISA
     [m.npc = b.entry + 4]), then chain directly into the next resident
     block while fuel lasts.  Returns the remaining fuel. *)
  let rec exec_chain m (b : block) fuel =
    Trace.mark m.tr Trace.Block_enter b.entry;
    if Sim_probe.enabled m.probe then begin
      Sim_probe.block_exec m.probe ~entry:b.entry;
      Block_cache.note_exec m.bc b.entry
    end;
    Block_cache.begin_block m.bc;
    match b.run () with
    | () ->
      let fuel = fuel - b.n in
      if m.pc = halt_addr then fuel
      else if m.pc = b.entry && b.n <= fuel then
        (* self-loop fast path: a clean exit means no resident block was
           invalidated, so [b] is certainly still cached for [entry] *)
        exec_chain m b fuel
      else (
        match Block_cache.find m.bc m.pc with
        | Some nb when nb.n <= fuel -> exec_chain m nb fuel
        | _ -> fuel)
    | exception Block_cache.Retired ->
      let i = m.blk_i in
      abort m ~entry:b.entry i (b.entry + (4 * i)) ~in_delay:(block_delay b i);
      fuel - (i + 1)
    | exception e ->
      let i = m.blk_i in
      fault m i (b.entry + (4 * i)) ~in_delay:(block_delay b i);
      raise e

  (* ---------------------------------------------------------------- *)
  (* Tier-3 regions (see {!Region_cache}): follow the dominant chain of
     straight-line runs from a hot entry and fuse the whole trace into
     one closure per pass.  Interior branch-terminated blocks are
     specialized to their profiled direction: after the terminator (and
     its delay slot) retire, a guard compares the branch scratch against
     the trace's next block and raises [Side_exit] with the
     pass-relative retired count on a mismatch.  The final block commits
     pc generically (so a self-looping trace naturally re-enters the
     pass loop, and any other exit falls back to block dispatch).  The
     closures are the same [act_of]/[term_of] values the superblock
     compiler uses, so architectural state, memory order, cycle
     surcharges and the dirty/[Retired] abort protocol are shared with
     tier 2 by construction. *)

  let compile_region m entry =
    let probe = Cache.probe m.icache in
    let _, shift, mask = probe in
    (* Follow dominant successors: a branch-terminated block extends
       through its profiled edge, a capped block through its static
       fallthrough.  A closed loop (back to [entry]) is *unrolled*:
       further copies of the loop body are appended while whole copies
       fit under the block cap, so a short hot loop amortizes the
       per-pass commit and self-loop check over several iterations (the
       unrolled backedges are specialized like any interior branch, and
       for an unconditional jump the guard is omitted entirely).  Stop
       on an unprofiled edge, an unscannable run, or the cap. *)
    let rec collect pc first_len acc nblocks =
      match scan_run m pc with
      | None -> List.rev acc
      | Some (all, has_term) ->
        let n = List.length all in
        let acc = (pc, all, has_term, n) :: acc in
        let nblocks = nblocks + 1 in
        let succ =
          if has_term then Region_cache.dominant_succ m.rc pc
          else Some (pc + (4 * n))
        in
        (match succ with
        | Some s when s land 3 = 0 && s > 0 ->
          if s = entry then begin
            let fl = match first_len with None -> nblocks | Some f -> f in
            if
              nblocks + fl <= Region_cache.max_blocks
              && nblocks < Region_cache.max_unroll * fl
            then collect s (Some fl) acc nblocks
            else List.rev acc
          end
          else if nblocks < Region_cache.max_blocks then collect s first_len acc nblocks
          else List.rev acc
        | _ -> List.rev acc)
    in
    match collect entry None [] 0 with
    | [] | [ _ ] -> None (* a single block gains nothing over tier 2 *)
    | blks ->
      let blks = Array.of_list blks in
      let nb = Array.length blks in
      let r_n = Array.fold_left (fun a (_, _, _, n) -> a + n) 0 blks in
      let spans = Array.map (fun (p, _, _, n) -> (p, 4 * n)) blks in
      let addrs = Array.make r_n 0 in
      let in_delay = Array.make r_n false in
      let traced_run = Trace.is_enabled m.tr in
      (* An unconditional direct jump pins the next pc statically: when
         it matches the trace successor the guard can never fire and is
         omitted, so jump-chained code pays nothing between fused
         blocks.  The decode reads current memory, and any later store
         to that word invalidates the containing block span (and with it
         the region). *)
      let static_jump_target p n =
        let tpc = p + (4 * (n - if delay then 2 else 1)) in
        match fetch_opt m tpc with Some i -> I.jump_target tpc i | None -> None
      in
      (* Two closure lists built in step: the probed first pass and the
         probe-free fast pass; [blk_i]/trace wrapping is identical.
         [elide] drops the instruction from the fast pass entirely: nops
         (delay-slot fillers, prologue padding) retire nothing
         architectural, and the fast pass neither probes nor traces nor
         counts per-insn, so the closure call is pure overhead — on
         jump-chained delay-slot code a third of the trace.  Positions
         ([blk_i], side-exit payloads) are assigned at build time, so
         eliding a closure shifts no index. *)
      let probed_c = ref [] and fastc = ref [] in
      let k = ref 0 in
      let prev_line = ref min_int in
      Array.iteri
        (fun bi (p, all, has_term, n) ->
          List.iteri
            (fun j (raises, act) ->
              let i = !k in
              let addr = p + (4 * j) in
              addrs.(i) <- addr;
              if delay && has_term && j = n - 1 then in_delay.(i) <- true;
              let line = addr lsr shift in
              let pr = probed m probe i addr raises act (line <> !prev_line) in
              let fa = probed m probe i addr raises act false in
              probed_c := traced m addr pr :: !probed_c;
              let elide =
                (not traced_run) && (not raises)
                && (match fetch_opt m addr with Some insn -> I.is_nop insn | None -> false)
              in
              if not elide then fastc := traced m addr fa :: !fastc;
              prev_line := line;
              incr k)
            all;
          if bi < nb - 1 && has_term then begin
            (* branch-direction specialization: the pass continues into
               the profiled successor; anything else side-exits with the
               instructions retired so far (this block included) *)
            let expected = (fun (p, _, _, _) -> p) blks.(bi + 1) in
            match static_jump_target p n with
            | Some t when t = expected -> () (* guard provably never fires *)
            | _ ->
              (* built once here, so a taken side exit allocates nothing *)
              let side_exit = Region_cache.Side_exit !k in
              let g () = if m.btarget <> expected then raise side_exit in
              probed_c := g :: !probed_c;
              fastc := g :: !fastc
          end)
        blks;
      let p_last, _, last_term, n_last = blks.(nb - 1) in
      let commit = commit m r_n ~has_term:last_term ~ft:(p_last + (4 * n_last)) in
      let r_run = seq (List.rev (commit :: !probed_c)) in
      (* The fast pass defers even the pc commit: while the trace
         self-loops, pc stays at the entry (the probed pass committed it
         there and nothing inside a pass writes it), so the tail only
         credits the pass and checks the backedge, raising [Loop_exit]
         for [exec_region] to commit the exit target once the self-loop
         finally breaks.  A capped final block has a static fallthrough,
         so it keeps the generic commit (the driver's pc check ends the
         loop). *)
      let fast_tail =
        if last_term then
          (fun () ->
            m.insns <- m.insns + r_n;
            if m.btarget <> entry then raise Region_cache.Loop_exit)
        else commit
      in
      (* The probe-free pass is only sound when no two distinct region
         lines collide in the direct-mapped icache: then a completed
         probed pass leaves every line resident and later passes are
         guaranteed hits (no-ops under bulk hit reconciliation).  The
         dcache is separate and nothing else runs between passes. *)
      let lines =
        List.sort_uniq compare (Array.to_list (Array.map (fun a -> a lsr shift) addrs))
      in
      let fast_ok =
        List.length (List.sort_uniq compare (List.map (fun l -> l land mask) lines))
        = List.length lines
      in
      let r_fast = if fast_ok then seq (List.rev (fast_tail :: !fastc)) else r_run in
      Some { r_entry = entry; r_n; r_spans = spans; r_run; r_fast; r_addrs = addrs;
             r_delay = in_delay }

  (* latency-instrumented entry points: the stopwatch brackets the whole
     scan/trace-follow + closure compile + cache insert, feeding the
     bc.compile_ns / rc.promote_ns distributions (no clock read when the
     sink is disabled) *)
  let compile_block_timed m entry =
    let t0 = Block_cache.compile_start m.bc in
    let r = compile_block m entry in
    Block_cache.compile_done m.bc t0;
    r

  let promote m entry =
    let t0 = Region_cache.promote_start m.rc in
    (match compile_region m entry with
    | Some r -> Region_cache.set m.rc entry ~insns:r.r_n r
    | None -> Region_cache.mark_unpromotable m.rc entry);
    Region_cache.promote_done m.rc t0

  (* Execute region [r] (preconditions as for [exec_chain]): a probed
     first pass, then probe-free passes while the trace self-loops and
     fuel lasts.  Exits mirror [exec_chain] exactly, with
     [r_addrs]/[r_delay] standing in for the straight-line address
     arithmetic; the extra exit is [Side_exit k], which credits the [k]
     instructions the pass retired and resumes generic dispatch at the
     branch scratch. *)
  let exec_region m (r : region) fuel0 =
    Trace.mark m.tr Trace.Block_enter r.r_entry;
    if Sim_probe.enabled m.probe then Sim_probe.region_exec m.probe ~entry:r.r_entry;
    Block_cache.begin_block m.bc;
    let fuel = ref fuel0 in
    match
      r.r_run ();
      fuel := !fuel - r.r_n;
      let entry = r.r_entry and rn = r.r_n and fast = r.r_fast in
      while m.pc = entry && rn <= !fuel do
        fast ();
        fuel := !fuel - rn
      done
    with
    | () -> !fuel
    | exception Region_cache.Loop_exit ->
      (* the raising fast pass ran to completion and credited itself;
         perform its deferred commit *)
      goto m m.btarget;
      !fuel - r.r_n
    | exception Region_cache.Side_exit k ->
      m.insns <- m.insns + k;
      Sim_probe.side_exit m.probe ~entry:r.r_entry ~i:k;
      goto m m.btarget;
      !fuel - k
    | exception Block_cache.Retired ->
      let i = m.blk_i in
      abort m ~entry:r.r_entry i r.r_addrs.(i) ~in_delay:r.r_delay.(i);
      !fuel - (i + 1)
    | exception e ->
      let i = m.blk_i in
      fault m i r.r_addrs.(i) ~in_delay:r.r_delay.(i);
      raise e

  (* [exec_chain] for regions mode: identical block chaining plus the
     tier-3 hooks — per-dispatch hotness counting (promoting on the
     threshold crossing), successor-edge profiling after each clean
     commit, and chaining into a resident region when one exists at the
     next pc. *)
  let rec exec_chain_r m (b : block) fuel =
    Trace.mark m.tr Trace.Block_enter b.entry;
    if Sim_probe.enabled m.probe then begin
      Sim_probe.block_exec m.probe ~entry:b.entry;
      Block_cache.note_exec m.bc b.entry
    end;
    if Region_cache.note_dispatch m.rc b.entry then promote m b.entry;
    Block_cache.begin_block m.bc;
    match b.run () with
    | () ->
      let fuel = fuel - b.n in
      if m.pc = halt_addr then fuel
      else begin
        Region_cache.note_succ m.rc b.entry m.pc;
        match Region_cache.find m.rc m.pc with
        | Some r when r.r_n <= fuel -> exec_region m r fuel
        | _ ->
          if m.pc = b.entry && b.n <= fuel then exec_chain_r m b fuel
          else (
            match Block_cache.find m.bc m.pc with
            | Some nb when nb.n <= fuel -> exec_chain_r m nb fuel
            | _ -> fuel)
      end
    | exception Block_cache.Retired ->
      let i = m.blk_i in
      abort m ~entry:b.entry i (b.entry + (4 * i)) ~in_delay:(block_delay b i);
      fuel - (i + 1)
    | exception e ->
      let i = m.blk_i in
      fault m i (b.entry + (4 * i)) ~in_delay:(block_delay b i);
      raise e

  (* ---------------------------------------------------------------- *)
  (* Dispatch loops and the run harness                                *)

  (* single-step with exact cycle accounting (the public interface) *)
  let step m =
    let mi0 = Cache.misses m.icache in
    let pc = m.pc in
    (let p = Cache.access_uncounted m.icache pc in
     if p <> 0 then m.cycles <- m.cycles + p);
    Trace.retire m.tr pc;
    m.insns <- m.insns + 1;
    I.step_inner m;
    m.cycles <- m.cycles + 1;
    Cache.add_hits m.icache (1 - (Cache.misses m.icache - mi0))

  (* one interpreted instruction inside the block-dispatch loops: the
     registerized icache probe of [run_go], then [step_inner] *)
  let step_one m tags shift mask =
    let pc = m.pc in
    let line = pc lsr shift in
    if Array.unsafe_get tags (line land mask) <> line then
      (let p = Cache.access_uncounted m.icache pc in
       if p <> 0 then m.cycles <- m.cycles + p);
    Trace.retire m.tr pc;
    m.insns <- m.insns + 1;
    I.step_inner m

  (* Block-dispatch run loop: resident block -> [exec_chain]; no block
     yet -> compile, cache, retry; uncompilable entry / insufficient fuel
     for a whole block / delay-slot entry (npc off the straight line,
     e.g. after a public [step]) -> one interpreted instruction.  Fuel
     discipline is identical to [run_go]: a block only runs when it fits
     whole, so the out-of-fuel point falls on the same instruction. *)
  let rec run_blocks_go m tags shift mask fuel =
    let pc = m.pc in
    if pc <> halt_addr then begin
      if fuel = 0 then raise Fuel_exhausted;
      if (not delay) || m.npc = pc + 4 then (
        match Block_cache.find m.bc pc with
        | Some b when b.n <= fuel ->
          let fuel = exec_chain m b fuel in
          Sim_probe.chain_flush m.probe;
          run_blocks_go m tags shift mask fuel
        | Some _ ->
          step_one m tags shift mask;
          run_blocks_go m tags shift mask (fuel - 1)
        | None -> (
          match compile_block_timed m pc with
          | Some b ->
            Block_cache.set m.bc pc b;
            run_blocks_go m tags shift mask fuel
          | None ->
            step_one m tags shift mask;
            run_blocks_go m tags shift mask (fuel - 1)))
      else begin
        step_one m tags shift mask;
        run_blocks_go m tags shift mask (fuel - 1)
      end
    end

  (* Region-dispatch run loop: [run_blocks_go] with a region probe ahead
     of the block probe, and chaining through [exec_chain_r] so hotness
     and successor profiles accumulate.  Fuel discipline is unchanged —
     a region pass only runs when it fits whole, and when it does not,
     dispatch falls through to the identical block/interpreter ladder. *)
  let rec run_regions_go m tags shift mask fuel =
    let pc = m.pc in
    if pc <> halt_addr then begin
      if fuel = 0 then raise Fuel_exhausted;
      if (not delay) || m.npc = pc + 4 then (
        match Region_cache.find m.rc pc with
        | Some r when r.r_n <= fuel ->
          let fuel = exec_region m r fuel in
          Sim_probe.chain_flush m.probe;
          run_regions_go m tags shift mask fuel
        | _ -> (
          match Block_cache.find m.bc pc with
          | Some b when b.n <= fuel ->
            let fuel = exec_chain_r m b fuel in
            Sim_probe.chain_flush m.probe;
            run_regions_go m tags shift mask fuel
          | Some _ ->
            step_one m tags shift mask;
            run_regions_go m tags shift mask (fuel - 1)
          | None -> (
            match compile_block_timed m pc with
            | Some b ->
              Block_cache.set m.bc pc b;
              run_regions_go m tags shift mask fuel
            | None ->
              step_one m tags shift mask;
              run_regions_go m tags shift mask (fuel - 1))))
      else begin
        step_one m tags shift mask;
        run_regions_go m tags shift mask (fuel - 1)
      end
    end

  (* the tier the machine was created with *)
  let ladder m tags shift mask fuel =
    if m.regions then run_regions_go m tags shift mask fuel
    else if m.blocks then run_blocks_go m tags shift mask fuel
    else I.run_go m tags shift mask fuel

  (* A cold call at [entry], the [n]th: the interpreter loop with the
     decode cache off, for at most the entry's remaining cold budget
     [left].  A call that exhausts it escapes to [ladder] where it
     stands — on a delay slot too, which the ladder steps — with the
     fuel it has left, and the entry is hot from then on; when the
     budget is the whole fuel, the exit is the real out-of-fuel, on the
     same instruction as in any other tier.  The count is found again
     afterwards: a store during the call may have forgotten it. *)
  let run_cold m entry n left tags shift mask fuel =
    let i0 = m.insns in
    m.pdc_on <- false;
    match I.run_go m tags shift mask (min fuel left) with
    | () ->
      m.pdc_on <- m.predecode;
      Calls.spend m.calls entry (m.insns - i0)
    | exception Fuel_exhausted when fuel > left ->
      m.pdc_on <- m.predecode;
      if n < m.hot_calls then begin
        Calls.heat m.calls entry m.hot_calls;
        Sim_probe.tier_up m.probe
      end;
      ladder m tags shift mask (fuel - left)

  (* The tier-up policy: an entry's first [hot_calls] calls run cold
     (the last one counted as its tier-up) unless their budget runs out
     first; later calls run on [ladder].  A counted entry costs one
     bounds test, one compare and one load, plus one store while it is
     cold. *)
  let dispatch m tags shift mask fuel =
    if m.hot_calls = 0 then ladder m tags shift mask fuel
    else begin
      let calls = m.calls and entry = m.pc in
      let h = Calls.find calls entry in
      let h = if h = Calls.absent then Calls.add calls entry else h in
      let st = Calls.get calls h in
      let n = Calls.count st + 1 in
      if n > m.hot_calls then ladder m tags shift mask fuel
      else begin
        Calls.set calls h (st + Calls.one_call);
        Sim_probe.cold_call m.probe;
        if n = m.hot_calls then Sim_probe.tier_up m.probe;
        run_cold m entry n (Calls.left st) tags shift mask fuel
      end
    end

  (* Run from [m.pc] until control reaches [halt_addr]. *)
  let run ?(fuel = default_fuel) m =
    let i0 = m.insns in
    let mi0 = Cache.misses m.icache in
    let t0 = Sim_probe.run_start m.probe in
    let finish () =
      let retired = m.insns - i0 in
      m.cycles <- m.cycles + retired;
      Cache.add_hits m.icache (retired - (Cache.misses m.icache - mi0));
      Sim_probe.chain_flush m.probe;
      Sim_probe.retired m.probe retired;
      Sim_probe.run_done m.probe t0
    in
    let tags, shift, mask = Cache.probe m.icache in
    (try dispatch m tags shift mask fuel
     with e ->
       m.pdc_on <- m.predecode;
       finish ();
       Sim_probe.fault m.probe ~pc:m.pc;
       match e with
       | Fuel_exhausted -> raise (Machine_error "out of fuel (infinite loop?)")
       | e -> raise e);
    finish ()

  let reset_stats m =
    m.cycles <- 0;
    m.insns <- 0;
    Cache.reset_stats m.icache;
    Cache.reset_stats m.dcache

  (* Models v_end's icache invalidation: drop both the timing caches and
     every predecoded instruction and translation, and start every entry
     cold again.  (The host-side drops
     are belt-and-braces — the write watchers already keep them coherent
     — and cost nothing on the simulated clock.) *)
  let flush_caches m =
    Cache.flush m.icache;
    Cache.flush m.dcache;
    Decode_cache.clear m.pdc;
    Block_cache.clear m.bc;
    Region_cache.clear m.rc;
    Calls.clear m.calls
end
