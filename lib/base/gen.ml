(* Per-function dynamic code generation state.

   This record is everything VCODE keeps while generating a function.
   True to the paper, memory use during generation is proportional to the
   number of labels and unresolved jumps plus the emitted code itself —
   there is no per-instruction intermediate structure (compare the DCG
   baseline in lib/dcg, which builds IR trees).

   The target-independent machinery here covers: label creation and
   binding, relocation recording, the register allocator, per-function
   register-class overrides (section 5.3 "violating abstractions"),
   callee-saved usage tracking for prologue backpatching, local-variable
   offsets and the pending floating-point immediate pool (section 5.2). *)

(* A memory-operand offset: VCODE loads/stores take base + (immediate or
   register) offsets. *)
type offset = Oimm of int | Oreg of Reg.t

(* A jump target: VCODE jumps go to labels, registers, or absolute
   addresses (paper Table 2: "jump to immediate, register, or label"). *)
type jtarget = Jlabel of int | Jreg of Reg.t | Jaddr of int

(* Section 5.3: clients may dynamically reclassify any physical register
   for the duration of one generated function. *)
type cls_override = Odefault | Ocallee | Ocaller | Ounavail

(* The four side tables that used to be OCaml lists are growable
   int-packed arrays: recording a relocation, FP immediate, incoming
   argument reload or outgoing call argument costs zero GC words in the
   steady state (the table doubles amortized-rarely, and an empty table
   is the shared [[||]]).  Packed strides:

     relocs     3  site, label id, target-interpreted kind
     fimms      4  load site, low 32 bits, high 32 bits, is_double
     arg_loads  3  caller's-sp offset, Reg.to_int, Vtype.to_int
     call_args  2  Vtype.to_int, Reg.to_int
     moves      4  Reg.to_int dst, Reg.to_int src, Vtype.to_int, state *)

type t = {
  desc : Machdesc.t;
  buf : Codebuf.t;
  base : int;  (* simulated load address of buf word 0 *)
  mutable labels : int array;  (* label id -> code index, -1 if unbound *)
  mutable nlabels : int;
  mutable relocs : int array;  (* packed, stride 3 *)
  mutable nrelocs : int;
  mutable resolved_relocs : int; (* relocs consumed by [resolve_relocs]; the
                                    first [resolved_relocs] triples of [relocs]
                                    keep their bound sites for post-hoc reading *)
  mutable leaf : bool;
  mutable in_function : bool;
  mutable finished : bool;
  mutable locals_bytes : int;
  mutable used_callee : int;   (* bitmask: callee-saved int regs written *)
  mutable used_fcallee : int;
  mutable made_call : bool;
  mutable prologue_at : int;    (* index of the reserved prologue area *)
  mutable prologue_words : int; (* its size in words *)
  mutable entry_index : int;    (* set by finish: index of first live insn *)
  mutable epilogue_lab : int;
  mutable ret_type : Vtype.t;
  mutable fimms : int array;    (* packed, stride 4 *)
  mutable nfimms : int;
  mutable arg_loads : int array;  (* packed, stride 3 *)
  mutable narg_loads : int;
  mutable call_args : int array;  (* packed, stride 2; push_arg order *)
  mutable ncall_args : int;
  mutable moves : int array;  (* packed, stride 4; see [push_move] *)
  mutable nmoves : int;
  mutable int_in_use : int;  (* allocator bitmask over the int file *)
  mutable flt_in_use : int;
  overrides : cls_override array;
  foverrides : cls_override array;
  mutable eff_callee_mask : int;  (* callee_mask folded with overrides *)
  mutable eff_fcallee_mask : int;
  mutable insn_count : int;  (* VCODE-level instructions emitted *)
  op_counts : int array;     (* per-{!Opk} slot emission counts; their sum
                                is [insn_count] by construction *)
  prov_on : bool;            (* record emit-site provenance *)
  mutable prov : int array;  (* packed, stride 2: start word index (at
                                emitter entry, i.e. before the words),
                                Opk slot; slot -1 closes the table *)
  mutable nprov : int;
  mutable tstate : int;      (* target-private scratch (e.g. SPARC leaf) *)
  peep : Peepwin.t;          (* peephole window metadata (Vcode.Make_peephole);
                                fixed-size, allocated once here so wrapped and
                                unwrapped ports share one Gen.t shape *)
}

let empty_table : int array = [||]

(* Grow a packed table so at least [needed] more slots fit after the
   [used] occupied ones.  Out of line: the amortized-cold path. *)
let grow_table a used needed =
  let cap = max 24 (max (2 * Array.length a) (used + needed)) in
  let b = Array.make cap 0 in
  Array.blit a 0 b 0 used;
  b

(* Emit-site provenance is opt-in per process (the profiling/trace
   tools flip it before generating their workloads) so the default
   codegen fast path keeps [count_insn] at two int stores and a
   predicted-untaken branch.  A per-[create] flag rather than a
   mutable field: the recorded table is only meaningful when every
   site of the function was recorded. *)
let provenance_default = ref false
let set_provenance_default b = provenance_default := b

let create ?(base = 0) ?provenance ?capacity ?buf (desc : Machdesc.t) =
  (* [buf] lets a compile queue hand in a recycled slab buffer (reset
     here, so callers can't accidentally append to a previous tenant);
     the [capacity] hint only applies to a freshly allocated buffer *)
  let buf =
    match buf with
    | Some b ->
      Codebuf.reset b;
      b
    | None -> Codebuf.create ?capacity ()
  in
  {
    desc;
    buf;
    base;
    labels = Array.make 16 (-1);
    nlabels = 0;
    relocs = empty_table;
    nrelocs = 0;
    resolved_relocs = 0;
    leaf = false;
    in_function = false;
    finished = false;
    locals_bytes = 0;
    used_callee = 0;
    used_fcallee = 0;
    made_call = false;
    prologue_at = 0;
    prologue_words = 0;
    entry_index = 0;
    epilogue_lab = -1;
    ret_type = Vtype.V;
    fimms = empty_table;
    nfimms = 0;
    arg_loads = empty_table;
    narg_loads = 0;
    call_args = empty_table;
    ncall_args = 0;
    moves = empty_table;
    nmoves = 0;
    int_in_use = 0;
    flt_in_use = 0;
    overrides = Array.make desc.Machdesc.nregs Odefault;
    foverrides = Array.make desc.Machdesc.nfregs Odefault;
    eff_callee_mask = desc.Machdesc.callee_mask;
    eff_fcallee_mask = desc.Machdesc.fcallee_mask;
    insn_count = 0;
    op_counts = Array.make Opk.slots 0;
    prov_on = (match provenance with Some b -> b | None -> !provenance_default);
    prov = empty_table;
    nprov = 0;
    tstate = 0;
    peep = Peepwin.create ();
  }

let[@inline] check_open g =
  if g.finished then Verror.fail Verror.Already_finished

(* ------------------------------------------------------------------ *)
(* Labels and relocations                                              *)

let genlabel g =
  let l = g.nlabels in
  if l = Array.length g.labels then begin
    let a = Array.make (2 * l) (-1) in
    Array.blit g.labels 0 a 0 l;
    g.labels <- a
  end;
  g.labels.(l) <- -1;
  g.nlabels <- l + 1;
  l

let bind_label g l =
  check_open g;
  if l < 0 || l >= g.nlabels then Verror.failf "bind_label: bad label %d" l;
  g.labels.(l) <- Codebuf.length g.buf

let label_defined g l = l >= 0 && l < g.nlabels && g.labels.(l) >= 0

let[@inline] add_reloc g ~site ~lab ~kind =
  let i = 3 * g.nrelocs in
  if i + 3 > Array.length g.relocs then g.relocs <- grow_table g.relocs i 3;
  let a = g.relocs in
  Array.unsafe_set a i site;
  Array.unsafe_set a (i + 1) lab;
  Array.unsafe_set a (i + 2) kind;
  g.nrelocs <- g.nrelocs + 1

(* Drop the most recently recorded relocation.  Used by ports that
   truncate the buffer and re-emit a span (e.g. SPARC rewriting its
   epilogue branch). *)
let pop_reloc g =
  if g.nrelocs = 0 then Verror.failf "pop_reloc: no pending relocations";
  g.nrelocs <- g.nrelocs - 1

let reloc_count g = g.nrelocs
let total_relocs g = max g.nrelocs g.resolved_relocs

(* Resolve every recorded relocation through the target's patcher, or
   with [~rewrite:(kind, word)] overwrite each of that kind with [word]
   (a frameless function's epilogue jumps become its return word). *)
let resolve_relocs ?rewrite g ~(apply : kind:int -> site:int -> dest:int -> unit) =
  let rkind, rword = match rewrite with Some r -> r | None -> (min_int, 0) in
  let a = g.relocs in
  for r = 0 to g.nrelocs - 1 do
    let site = a.(3 * r) and lab = a.((3 * r) + 1) and kind = a.((3 * r) + 2) in
    let dest = g.labels.(lab) in
    if dest < 0 then Verror.fail (Verror.Unresolved_label lab);
    if kind = rkind then Codebuf.set g.buf site rword else apply ~kind ~site ~dest
  done;
  g.resolved_relocs <- g.resolved_relocs + g.nrelocs;
  g.nrelocs <- 0

(* ------------------------------------------------------------------ *)
(* Register allocation (paper section 3: priority-ordered pools; the
   allocator returns [None] on exhaustion and clients fall back to the
   stack).                                                             *)

let file_in_use g (r : Reg.t) =
  match r with
  | Reg.R n -> g.int_in_use land (1 lsl n) <> 0
  | Reg.F n -> g.flt_in_use land (1 lsl n) <> 0

let mark_in_use g (r : Reg.t) =
  match r with
  | Reg.R n -> g.int_in_use <- g.int_in_use lor (1 lsl n)
  | Reg.F n -> g.flt_in_use <- g.flt_in_use lor (1 lsl n)

let mark_free g (r : Reg.t) =
  match r with
  | Reg.R n -> g.int_in_use <- g.int_in_use land lnot (1 lsl n)
  | Reg.F n -> g.flt_in_use <- g.flt_in_use land lnot (1 lsl n)

let override_of g (r : Reg.t) =
  match r with Reg.R n -> g.overrides.(n) | Reg.F n -> g.foverrides.(n)

(* Fold the target's callee mask with the per-register overrides into
   one bitmask so [note_write] is a branch-free mask-and-or. *)
let recompute_eff_masks g =
  let d = g.desc in
  let fold base overrides =
    let m = ref base in
    Array.iteri
      (fun n c ->
        match c with
        | Ocallee -> m := !m lor (1 lsl n)
        | Ocaller -> m := !m land lnot (1 lsl n)
        | Odefault | Ounavail -> ())
      overrides;
    !m
  in
  g.eff_callee_mask <- fold d.Machdesc.callee_mask g.overrides;
  g.eff_fcallee_mask <- fold d.Machdesc.fcallee_mask g.foverrides

let set_reg_class g (r : Reg.t) (c : cls_override) =
  (match r with
  | Reg.R n -> g.overrides.(n) <- c
  | Reg.F n -> g.foverrides.(n) <- c);
  recompute_eff_masks g

let pool_of g ~(cls : [ `Temp | `Var ]) ~(float : bool) =
  let d = g.desc in
  match (cls, float) with
  | `Temp, false -> d.Machdesc.temps
  | `Var, false -> d.Machdesc.vars
  | `Temp, true -> d.Machdesc.ftemps
  | `Var, true -> d.Machdesc.fvars

let getreg g ~cls ~float =
  check_open g;
  let pool = pool_of g ~cls ~float in
  let n = Array.length pool in
  let rec scan i =
    if i >= n then None
    else
      let r = pool.(i) in
      if file_in_use g r || override_of g r = Ounavail then scan (i + 1)
      else begin
        mark_in_use g r;
        Some r
      end
  in
  scan 0

let putreg g r = mark_free g r

(* ------------------------------------------------------------------ *)
(* Callee-saved bookkeeping                                            *)

(* Record that [r] was written; used at [finish] to decide which
   registers the patched prologue must save.  A register counts as
   callee-saved if the target says so, or if the client forced it with a
   class override (the interrupt-handler scenario of section 5.3). *)
let[@inline] note_write g (r : Reg.t) =
  (* branch-free: the effective masks already fold in the §5.3 class
     overrides (see [recompute_eff_masks]) *)
  match r with
  | Reg.R n -> g.used_callee <- g.used_callee lor (g.eff_callee_mask land (1 lsl n))
  | Reg.F n ->
    g.used_fcallee <- g.used_fcallee lor (g.eff_fcallee_mask land (1 lsl n))

(* One VCODE-level instruction emitted.  Ports call this at each public
   emitter entry; multi-instruction expansions (immediate fallbacks,
   call sequences) go through internal *_core helpers so each API-level
   instruction counts exactly once. *)
(* [k] is the instruction's {!Opk} slot; the per-opcode table is
   preallocated at [create], so both updates are plain int stores.  [k]
   comes from the fixed call sites in the ports (never user data), so
   the unsafe index is justified. *)
(* Provenance recording, out of line: every counting site runs before
   its emitter writes any word, so [Codebuf.length] here is the
   instruction's start index — spans are recovered by pairing each
   start with the next record's. *)
let[@inline never] prov_record g k =
  if 2 * g.nprov >= Array.length g.prov then g.prov <- grow_table g.prov (2 * g.nprov) 2;
  let o = 2 * g.nprov in
  g.prov.(o) <- Codebuf.length g.buf;
  g.prov.(o + 1) <- k;
  g.nprov <- g.nprov + 1

let[@inline] count_insn g k =
  g.insn_count <- g.insn_count + 1;
  Array.unsafe_set g.op_counts k (Array.unsafe_get g.op_counts k + 1);
  if g.prov_on then prov_record g k

(* Retire a previously counted instruction: the peephole stage calls
   this when it rewrites the buffer tail and an already-counted
   instruction (e.g. a dead set-immediate fused into an op-immediate)
   is removed.  The counters stay equal to what the final buffer
   actually contains. *)
let uncount_insn g k =
  g.insn_count <- g.insn_count - 1;
  Array.unsafe_set g.op_counts k (Array.unsafe_get g.op_counts k - 1)

let op_count g k =
  if k < 0 || k >= Opk.slots then Verror.failf "op_count: bad opcode slot %d" k;
  g.op_counts.(k)

(* ------------------------------------------------------------------ *)
(* Peephole fixups: keep the provenance table and the pending
   relocation sites consistent when the window stage rewrites the
   buffer tail.  All three are bounded by the window size (a handful
   of table entries at the very end), so they cost O(window) — the
   space and time bounds of generation are untouched.                  *)

(* Drop provenance records whose start index is >= [start] — the spans
   covering a retired tail about to be truncated or re-emitted. *)
let prov_drop_from g ~start =
  if g.prov_on then begin
    let i = ref g.nprov in
    while !i > 0 && g.prov.((2 * (!i - 1))) >= start do decr i done;
    g.nprov <- !i
  end

(* Re-record a span with an explicit start index (the peephole stage
   knows where the rewritten instruction landed, which is not the
   current buffer end). *)
let prov_append g ~start ~slot =
  if g.prov_on then begin
    if 2 * g.nprov >= Array.length g.prov then
      g.prov <- grow_table g.prov (2 * g.nprov) 2;
    let o = 2 * g.nprov in
    g.prov.(o) <- start;
    g.prov.(o + 1) <- slot;
    g.nprov <- g.nprov + 1
  end

(* Shift every pending relocation site at or beyond [from] by [by]
   words: when the peephole stage removes a word (a filled delay-slot
   nop), patch sites recorded downstream of the removal move with the
   code.  Labels need no fixup — they bind to buffer indices when the
   client binds them, which is always after any rewrite of the words
   they follow (the window flushes at every bind). *)
let shift_reloc_sites g ~from ~by =
  let a = g.relocs in
  for r = 0 to g.nrelocs - 1 do
    let i = 3 * r in
    if a.(i) >= from then a.(i) <- a.(i) + by
  done

(* Visit each bound relocation's (site, destination) pair — meaningful
   after [resolve_relocs] has run (v_end), when every label is bound.
   Unbound labels are skipped so the iterator is safe mid-generation. *)
let iter_reloc_spans g f =
  let a = g.relocs in
  for r = 0 to max g.nrelocs g.resolved_relocs - 1 do
    let site = a.(3 * r) and lab = a.((3 * r) + 1) in
    let dest = g.labels.(lab) in
    if dest >= 0 then f ~site ~dest
  done

(* ------------------------------------------------------------------ *)
(* Locals                                                              *)

(* Allocate [bytes] of stack space with [align]; returns a byte offset
   interpreted by the target relative to its frame layout.  Per section
   5.2, locals sit above a fixed maximal register-save area so their
   offsets are known immediately. *)
let alloc_local g ~bytes ~align =
  check_open g;
  let a = max 1 align in
  let off = (g.locals_bytes + a - 1) / a * a in
  g.locals_bytes <- off + bytes;
  off

(* ------------------------------------------------------------------ *)
(* Pending floating-point immediates, incoming-argument reloads and
   outgoing call arguments (packed tables)                             *)

(* Record an FP constant load at [site]; the constant itself is placed
   after the code by [place_fimms]. *)
let add_fimm g ~site ~(bits : int64) ~dbl =
  let i = 4 * g.nfimms in
  if i + 4 > Array.length g.fimms then g.fimms <- grow_table g.fimms i 4;
  let a = g.fimms in
  Array.unsafe_set a i site;
  Array.unsafe_set a (i + 1) (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
  Array.unsafe_set a (i + 2)
    (Int64.to_int (Int64.logand (Int64.shift_right_logical bits 32) 0xFFFFFFFFL));
  Array.unsafe_set a (i + 3) (if dbl then 1 else 0);
  g.nfimms <- g.nfimms + 1

let fimm_count g = g.nfimms

(* Record a stack-passed incoming argument whose reload into [r] must be
   emitted in the patched prologue. *)
let add_arg_load g ~off (r : Reg.t) (ty : Vtype.t) =
  let i = 3 * g.narg_loads in
  if i + 3 > Array.length g.arg_loads then g.arg_loads <- grow_table g.arg_loads i 3;
  let a = g.arg_loads in
  Array.unsafe_set a i off;
  Array.unsafe_set a (i + 1) (Reg.to_int r);
  Array.unsafe_set a (i + 2) (Vtype.to_int ty);
  g.narg_loads <- g.narg_loads + 1

(* Visit the recorded argument reloads in the order they were added. *)
let iter_arg_loads g f =
  for j = 0 to g.narg_loads - 1 do
    let i = 3 * j in
    f ~off:g.arg_loads.(i) (Reg.of_int g.arg_loads.(i + 1))
      (Vtype.of_int g.arg_loads.(i + 2))
  done

let[@inline] push_call_arg g (ty : Vtype.t) (r : Reg.t) =
  let i = 2 * g.ncall_args in
  if i + 2 > Array.length g.call_args then g.call_args <- grow_table g.call_args i 2;
  let a = g.call_args in
  Array.unsafe_set a i (Vtype.to_int ty);
  Array.unsafe_set a (i + 1) (Reg.to_int r);
  g.ncall_args <- g.ncall_args + 1

let call_arg_count g = g.ncall_args
let call_arg_ty g i = Vtype.of_int g.call_args.(2 * i)
let call_arg_reg g i = Reg.of_int g.call_args.((2 * i) + 1)
let clear_call_args g = g.ncall_args <- 0

(* ------------------------------------------------------------------ *)
(* Shared finalization helpers used by the target ports                *)

(* Place the pending floating-point immediates after the code (paper
   section 5.2: constants live at the end of the function's instruction
   stream so they are reclaimed with it), honoring [big_endian] word
   order, and call [patch] with each load site and its constant's
   address. *)
let place_fimms g ~big_endian ~(patch : site:int -> addr:int -> unit) =
  if g.nfimms > 0 then begin
    if (g.base + (4 * Codebuf.length g.buf)) land 7 <> 0 then
      ignore (Codebuf.emit g.buf 0);
    for j = 0 to g.nfimms - 1 do
      let i = 4 * j in
      let site = g.fimms.(i) in
      let lo32 = g.fimms.(i + 1) and hi32 = g.fimms.(i + 2) in
      let dbl = g.fimms.(i + 3) <> 0 in
      let daddr = g.base + (4 * Codebuf.length g.buf) in
      if dbl then
        if big_endian then begin
          ignore (Codebuf.emit g.buf hi32);
          ignore (Codebuf.emit g.buf lo32)
        end
        else begin
          ignore (Codebuf.emit g.buf lo32);
          ignore (Codebuf.emit g.buf hi32)
        end
      else begin
        ignore (Codebuf.emit g.buf lo32);
        ignore (Codebuf.emit g.buf 0)
      end;
      patch ~site ~addr:daddr
    done;
    g.nfimms <- 0
  end

(* A parallel move: each queued [dst <- src] gets the value [src] held
   before any of them.  The queue is an int table, so queueing and
   resolving allocate nothing.  Each entry's state is 0 while pending,
   1 once found ready in the current round and 2 when emitted; a move
   onto its own source is done from the start. *)
let push_move g (ty : Vtype.t) ~(dst : Reg.t) ~(src : Reg.t) =
  let i = 4 * g.nmoves in
  if i + 4 > Array.length g.moves then g.moves <- grow_table g.moves i 4;
  let m = g.moves in
  m.(i) <- Reg.to_int dst;
  m.(i + 1) <- Reg.to_int src;
  m.(i + 2) <- Vtype.to_int ty;
  m.(i + 3) <- (if Reg.equal dst src then 2 else 0);
  g.nmoves <- g.nmoves + 1

(* does a queued move, not yet emitted, write [r]? *)
let move_writes g (r : Reg.t) =
  let i = ref 0 in
  while !i < g.nmoves && not (g.moves.(4 * !i) = Reg.to_int r && g.moves.((4 * !i) + 3) = 0) do
    incr i
  done;
  !i < g.nmoves

(* entry [i] is not yet emitted and moves within [file] *)
let[@inline] live m file i = m.((4 * i) + 3) < 2 && m.(4 * i) land 1 = file

(* Resolve the queued moves of [scratch]'s file, [move g ty dst src]
   per move, and drop them from the queue.  Each round emits, in queue
   order, every pending move whose destination no pending move reads;
   when there is none the pending moves form cycles, and the first
   one's destination is saved in [scratch], with the type of the first
   move that reads it, and read from there. *)
let parallel_moves g ~move ~(scratch : Reg.t) =
  let m = g.moves and n = g.nmoves and file = Reg.to_int scratch land 1 in
  let pending = ref 0 in
  for i = 0 to n - 1 do if live m file i then incr pending done;
  while !pending > 0 do
    let ready = ref false in
    for i = 0 to n - 1 do
      if live m file i then begin
        let d = m.(4 * i) and blocked = ref false in
        for j = 0 to n - 1 do
          if live m file j && m.((4 * j) + 1) = d then blocked := true
        done;
        if not !blocked then (m.((4 * i) + 3) <- 1; ready := true)
      end
    done;
    if !ready then
      for i = 0 to n - 1 do
        if m.((4 * i) + 3) = 1 then begin
          move g (Vtype.of_int m.((4 * i) + 2)) (Reg.of_int m.(4 * i)) (Reg.of_int m.((4 * i) + 1));
          m.((4 * i) + 3) <- 2;
          decr pending
        end
      done
    else begin
      let first = ref 0 in
      while not (live m file !first) do incr first done;
      let d = m.(4 * !first) in
      let reader = ref 0 in
      while not (live m file !reader && m.((4 * !reader) + 1) = d) do incr reader done;
      move g (Vtype.of_int m.((4 * !reader) + 2)) scratch (Reg.of_int d);
      for j = 0 to n - 1 do
        if live m file j && m.((4 * j) + 1) = d then m.((4 * j) + 1) <- Reg.to_int scratch
      done
    end
  done;
  (* keep the other file's moves, in order *)
  let k = ref 0 in
  for i = 0 to n - 1 do
    if m.(4 * i) land 1 <> file then begin
      Array.blit m (4 * i) m (4 * !k) 4;
      incr k
    end
  done;
  g.nmoves <- !k

(* ------------------------------------------------------------------ *)
(* Space accounting for the in-place-generation experiment             *)

let table_words a = if Array.length a = 0 then 0 else Array.length a + 1

let live_words g =
  Codebuf.heap_words g.buf
  + Array.length g.labels + 3
  + table_words g.relocs + table_words g.fimms
  + table_words g.arg_loads + table_words g.call_args + table_words g.moves
  + table_words g.prov

let code_addr g idx = g.base + (4 * idx)
let here g = Codebuf.length g.buf

(* ------------------------------------------------------------------ *)
(* Emit-site provenance (cold readers)                                 *)

(* The closing sentinel: everything emitted after it (the epilogue and
   the FP-immediate pool placed by the target's [finish]) belongs to no
   client emitter.  Called by Vcode's [end_gen] just before the target
   finalizer runs; idempotent. *)
let prov_sentinel = -1

let close_provenance g =
  if
    g.prov_on
    && (g.nprov = 0 || g.prov.((2 * g.nprov) - 1) <> prov_sentinel)
  then prov_record g prov_sentinel

let prov_count g = g.nprov

(* Visit the recorded spans in emission order: [slot] is the {!Opk}
   slot ([-1] for the closing epilogue/data sentinel), [first]/[last]
   the covered word-index range (last exclusive; the next record's
   start, or the buffer end for the final one).  Words below the first
   span are the reserved prologue area. *)
let iter_prov_spans g f =
  for i = 0 to g.nprov - 1 do
    let first = g.prov.(2 * i) and slot = g.prov.((2 * i) + 1) in
    let last = if i + 1 < g.nprov then g.prov.(2 * (i + 1)) else Codebuf.length g.buf in
    f ~ordinal:i ~slot ~first ~last
  done

(* The span covering word index [idx] — binary search over the sorted
   start column.  [None] for indices before the first span (the
   prologue) or with no provenance recorded. *)
let prov_find g idx =
  if g.nprov = 0 || idx < g.prov.(0) then None
  else begin
    let lo = ref 0 and hi = ref (g.nprov - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if g.prov.(2 * mid) <= idx then lo := mid else hi := mid - 1
    done;
    let i = !lo in
    Some (i, g.prov.((2 * i) + 1), g.prov.(2 * i))
  end

(* The label whose binding most closely precedes word index [idx]
   (ties go to the first label bound there), with the word offset from
   it — "which branch target does this instruction belong to". *)
let enclosing_label g idx =
  let best = ref (-1) and best_at = ref (-1) in
  for l = 0 to g.nlabels - 1 do
    let at = g.labels.(l) in
    if at >= 0 && at <= idx && at > !best_at then begin
      best := l;
      best_at := at
    end
  done;
  if !best < 0 then None else Some (!best, idx - !best_at)

(* Symbolize the instruction covering word index [idx]:
   "addii#12@L3+2" = the 12th emitted VCODE op, an addii, two words
   past the binding of label 3.  Reserved areas name themselves. *)
let prov_symbol g idx =
  if idx < 0 || idx >= Codebuf.length g.buf then None
  else
    match prov_find g idx with
    | None -> if g.nprov > 0 then Some "prologue" else None
    | Some (ordinal, slot, _first) ->
      if slot = prov_sentinel then Some "epilogue"
      else begin
        let base = Printf.sprintf "%s#%d" (Opk.name slot) ordinal in
        match enclosing_label g idx with
        | None -> Some base
        | Some (l, off) ->
          Some
            (if off = 0 then Printf.sprintf "%s@L%d" base l
             else Printf.sprintf "%s@L%d+%d" base l off)
      end
