(* The code-region registry: install/replace/evict/lookup over
   slab-allocated compiled filters.

   Correctness story, in one place: a slab's previous tenant is always
   scrubbed with Mem.fill before the address can be handed out again,
   and the fill (like install_code itself) runs through the memory
   write-watcher protocol.  Whatever engine tiers the owning simulator
   stacked on that memory — predecode cache, superblock cache, region
   cache — their watchers see the store and retire any translation
   derived from the window.  The registry never talks to an engine
   directly, so adding a tier never changes this module. *)

open Vcodebase
module Mem = Vmachine.Mem
module Tel = Vmachine.Telemetry

(* int-keyed: a probe hashes and compares keys inline, with no
   [caml_hash] or [compare_val] call *)
module Keys = Hashtbl.Make (Int)

module Make (T : Target.S) = struct
  module DP = Dpf.Make (T)

  type region = {
    rg_key : int;
    rg_fid : int;
    rg_base : int;
    rg_slab : int; (* slab words *)
    rg_words : int; (* emitted code words *)
    rg_entry : int;
    rg_epoch : int;
    mutable rg_slot : int; (* index in [dense] *)
  }

  (* filler for unused [dense] and [victims] cells *)
  let dummy =
    {
      rg_key = -1;
      rg_fid = -1;
      rg_base = -1;
      rg_slab = 0;
      rg_words = 0;
      rg_entry = -1;
      rg_epoch = -1;
      rg_slot = -1;
    }

  type t = {
    mem : Mem.t;
    arena : Arena.t;
    tel : Tel.t;
    table : region Keys.t; (* key -> live region *)
    mutable dense : region array; (* the live regions, in [0, s_live) *)
    mutable slot_hits : int array; (* lookups of [dense.(i)] *)
    mutable slot_epochs : int array; (* [dense.(i).rg_epoch]; with [slot_hits],
                                        all the coldest-selection scan reads *)
    mutable heap : int array; (* dense slots, scratch for k-coldest selection *)
    mutable victims : region array; (* the selection's regions, coldest first *)
    scratch : Codebuf.t; (* the batched queue's recycled buffer *)
    table_base : int; (* above the window; single filters emit no tables *)
    max_live : int option;
    mutable next_epoch : int;
    (* stats mirror: plain ints for cheap reads by tests/bench *)
    mutable s_live : int;
    mutable s_installs : int;
    mutable s_replaces : int;
    mutable s_evictions : int;
    mutable s_cap_evictions : int;
    mutable s_recompiles : int;
    mutable s_hits : int;
    mutable s_misses : int;
    c_install : Tel.counter;
    c_replace : Tel.counter;
    c_evict : Tel.counter;
    c_evict_cap : Tel.counter;
    c_recompile : Tel.counter;
    c_hit : Tel.counter;
    c_miss : Tel.counter;
    (* latency distributions (host ns), fed by Tel timers *)
    d_install_ns : Tel.dist;
    d_replace_ns : Tel.dist;
    d_evict_ns : Tel.dist;
    d_evict_scan_ns : Tel.dist;
    d_scrub_ns : Tel.dist;
    (* gauges, written by sync_gauges *)
    g_live : Tel.counter;
    g_slabs_live : Tel.counter;
    g_slabs_free : Tel.counter;
    g_bump_words : Tel.counter;
  }

  type info = {
    base : int;
    slab_words : int;
    code_words : int;
    entry : int;
    fid : int;
    hits : int;
    epoch : int;
  }

  type stats = {
    live : int;
    installs : int;
    replaces : int;
    evictions : int;
    capacity_evictions : int;
    recompiles : int;
    lookup_hits : int;
    lookup_misses : int;
  }

  let create ?(tel = Tel.disabled) ?max_live ?(arena_base = 0x100000)
      ?arena_limit mem =
    (* default window: everything above the harness data buffers up to
       64KB below the top of memory (stacks live at the top) *)
    let arena_limit =
      match arena_limit with Some l -> l | None -> Mem.size mem - 0x10000
    in
    if arena_limit > Mem.size mem then invalid_arg "Server.create: window exceeds memory";
    {
      mem;
      arena = Arena.create ~tel ~base:arena_base ~limit:arena_limit ();
      tel;
      table = Keys.create 1024;
      dense = Array.make 64 dummy;
      slot_hits = Array.make 64 0;
      slot_epochs = Array.make 64 0;
      heap = [||];
      victims = [||];
      scratch = Codebuf.create ~capacity:256 ();
      table_base = arena_limit;
      max_live;
      next_epoch = 0;
      s_live = 0;
      s_installs = 0;
      s_replaces = 0;
      s_evictions = 0;
      s_cap_evictions = 0;
      s_recompiles = 0;
      s_hits = 0;
      s_misses = 0;
      c_install = Tel.counter tel "server.install";
      c_replace = Tel.counter tel "server.replace";
      c_evict = Tel.counter tel "server.evict";
      c_evict_cap = Tel.counter tel "server.evict_capacity";
      c_recompile = Tel.counter tel "server.recompile";
      c_hit = Tel.counter tel "server.lookup.hit";
      c_miss = Tel.counter tel "server.lookup.miss";
      d_install_ns = Tel.dist tel "server.install_ns";
      d_replace_ns = Tel.dist tel "server.replace_ns";
      d_evict_ns = Tel.dist tel "server.evict_ns";
      d_evict_scan_ns = Tel.dist tel "server.evict_scan_ns";
      d_scrub_ns = Tel.dist tel "server.scrub_ns";
      g_live = Tel.counter tel "server.live_regions";
      g_slabs_live = Tel.counter tel "server.arena.live_slabs";
      g_slabs_free = Tel.counter tel "server.arena.free_slabs";
      g_bump_words = Tel.counter tel "server.arena.bump_words";
    }

  let live t = t.s_live

  let grown a fill =
    let d = Array.make (2 * Array.length a) fill in
    Array.blit a 0 d 0 (Array.length a);
    d

  (* Append [r] to the dense live set, growing it by doubling. *)
  let link t r =
    if t.s_live = Array.length t.dense then begin
      t.dense <- grown t.dense dummy;
      t.slot_hits <- grown t.slot_hits 0;
      t.slot_epochs <- grown t.slot_epochs 0
    end;
    let i = t.s_live in
    r.rg_slot <- i;
    t.dense.(i) <- r;
    t.slot_hits.(i) <- 0;
    t.slot_epochs.(i) <- r.rg_epoch;
    t.s_live <- i + 1;
    Keys.replace t.table r.rg_key r

  (* Remove [r] and scrub its slab.  The dense set closes the hole by
     moving its last region into [r]'s slot.  The zero-fill is the
     invalidation edge: it rides the write-watcher protocol, so every
     engine tier retires translations over [rg_base, rg_base + 4*rg_slab)
     before the arena can reissue the address. *)
  let drop_region t r =
    Keys.remove t.table r.rg_key;
    let last = t.s_live - 1 and i = r.rg_slot in
    let moved = t.dense.(last) in
    t.dense.(i) <- moved;
    t.slot_hits.(i) <- t.slot_hits.(last);
    t.slot_epochs.(i) <- t.slot_epochs.(last);
    moved.rg_slot <- i;
    t.dense.(last) <- dummy;
    t.s_live <- last;
    let t0 = Tel.timer_start t.tel in
    Mem.fill t.mem ~addr:r.rg_base ~len:(4 * r.rg_slab) '\000';
    Tel.timer_stop t.tel t.d_scrub_ns t0;
    Arena.free t.arena r.rg_base

  let evict t key =
    match Keys.find_opt t.table key with
    | None -> false
    | Some r ->
      let t0 = Tel.timer_start t.tel in
      drop_region t r;
      t.s_evictions <- t.s_evictions + 1;
      Tel.bump t.tel t.c_evict;
      Tel.timer_stop t.tel t.d_evict_ns t0;
      true

  (* Eviction order of the regions at dense slots [i] and [j]: fewest
     hits, then oldest epoch, then lowest base.  A total order, so the
     victims never depend on table layout.  Epochs are unique, so the
     flat arrays decide and the scan reads no region record: 10k of
     them scattered over the heap cost about a cache miss each. *)
  let colder t i j =
    let hits = t.slot_hits and epochs = t.slot_epochs in
    let hi = Array.unsafe_get hits i and hj = Array.unsafe_get hits j in
    hi < hj
    || hi = hj
       &&
       let ei = Array.unsafe_get epochs i and ej = Array.unsafe_get epochs j in
       ei < ej || (ei = ej && t.dense.(i).rg_base < t.dense.(j).rg_base)

  (* Restore the max-heap order below [i] in [h.(0 .. n-1)]: the root is
     the warmest slot kept. *)
  let rec sift_down t h n i =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && colder t h.(l) h.(l + 1) then l + 1 else l in
      if colder t h.(i) h.(c) then begin
        let x = h.(i) in
        h.(i) <- h.(c);
        h.(c) <- x;
        sift_down t h n c
      end
    end

  (* Leave the [k] coldest live regions in [t.victims.(0 .. k-1)],
     coldest first, and return [k] (clamped to the live count).  One
     pass over the dense slots keeps a k-entry max-heap of the coldest
     seen so far, O(live * log k); an in-place heap sort then orders
     the victims.  Slots are below [s_live], inside all three arrays. *)
  let select_coldest t k =
    let k = min k t.s_live in
    if Array.length t.heap < k then begin
      t.heap <- Array.make k 0;
      t.victims <- Array.make k dummy
    end;
    let h = t.heap in
    for i = 0 to k - 1 do
      h.(i) <- i
    done;
    for i = (k / 2) - 1 downto 0 do
      sift_down t h k i
    done;
    for i = k to t.s_live - 1 do
      if colder t i h.(0) then begin
        h.(0) <- i;
        sift_down t h k 0
      end
    done;
    for n = k - 1 downto 1 do
      let x = h.(0) in
      h.(0) <- h.(n);
      h.(n) <- x;
      sift_down t h n 0
    done;
    for i = 0 to k - 1 do
      t.victims.(i) <- t.dense.(h.(i))
    done;
    k

  (* Evict the [k] coldest regions after one scan, and return how many
     went.  They are dropped coldest first, the order k successive
     single evictions would take with no lookups in between, so the
     arena's LIFO free lists, and with them every later placement,
     match the one-at-a-time path exactly. *)
  let evict_coldest_k t k =
    let t0 = Tel.timer_start t.tel in
    let k = select_coldest t k in
    Tel.timer_stop t.tel t.d_evict_scan_ns t0;
    for i = 0 to k - 1 do
      drop_region t t.victims.(i);
      t.victims.(i) <- dummy
    done;
    t.s_cap_evictions <- t.s_cap_evictions + k;
    Tel.add t.tel t.c_evict_cap k;
    k

  let evict_coldest t = evict_coldest_k t 1 = 1

  let max_slab = Arena.class_sizes.(Array.length Arena.class_sizes - 1)

  let too_big words =
    failwith
      (Printf.sprintf "Server: %d-word region exceeds the largest slab class (%d words)"
         words max_slab)

  (* Allocate [words] (at most [max_slab]), evicting coldest regions
     until it fits.  [pending] is the number of installs still queued
     behind this one (1 outside a batch): when arena pressure hits
     mid-batch, the whole queue's worth of coldest regions is cleared
     after one scan instead of paying a full scan per install — the
     service-level amortization the router benchmark measures at
     capacity. *)
  let alloc_evicting ?(pending = 1) t ~words =
    let rec go () =
      match Arena.alloc t.arena ~words with
      | Some a -> a
      | None ->
        if pending > 1 && t.s_live > 0 then begin
          ignore (evict_coldest_k t pending : int);
          match Arena.alloc t.arena ~words with
          | Some a -> a
          | None -> single ()
        end
        else single ()
    and single () =
      if not (evict_coldest t) then
        failwith
          (Printf.sprintf "Server: cannot place %d-word region in empty arena" words)
      else go ()
    in
    go ()

  (* Pre-compile size estimate, in code words.  Measured on the MIPS
     port: a single-filter compile has a ~63-word floor (reserved
     prologue area, bounds-check entry, fail/done tails) plus ~4 words
     per Cmp atom — a tcpip_session filter (4 atoms) emits 85 words.
     The floor is padded so common filters land in the 128-word class
     on the first try; the recompile path below corrects any
     underestimate at the cost of one extra compile. *)
  let estimate_words (f : Dpf.Filter.t) = 64 + (6 * List.length f.Dpf.Filter.atoms)

  let compile_at t ?buf ~base f =
    DP.compile ~base ~table_base:t.table_base ?buf [ f ]

  (* One stopwatch covers the whole install path — replace scrub,
     capacity evictions, slab allocation, compile (and the recompile on
     underestimate), code+table stores — so the install_ns tail
     reflects what a caller actually waits.  Replacements additionally
     land in replace_ns, keeping the replace tail separable. *)
  let install_common t ?buf ?(pending = 1) ~key (f : Dpf.Filter.t) =
    let t0 = Tel.timer_start t.tel in
    (* refuse an oversized filter before it can displace anything *)
    let estimate = estimate_words f in
    if estimate > max_slab then too_big estimate;
    let replaced =
      match Keys.find_opt t.table key with
      | Some r ->
        drop_region t r;
        t.s_replaces <- t.s_replaces + 1;
        Tel.bump t.tel t.c_replace;
        true
      | None -> false
    in
    (match t.max_live with
    | Some cap when t.s_live >= cap -> ignore (evict_coldest_k t (t.s_live - cap + 1) : int)
    | _ -> ());
    let addr, slab = alloc_evicting ~pending t ~words:estimate in
    let c = compile_at t ?buf ~base:addr f in
    let words = Codebuf.length c.Dpf.code.Vcode.gen.Gen.buf in
    (* on underestimate: return the slab and recompile into one that
       fits (code size is base-independent, so the second compile is
       exact) *)
    let addr, slab, c, words =
      if words <= slab then (addr, slab, c, words)
      else begin
        Arena.free t.arena addr;
        if words > max_slab then too_big words;
        let addr', slab' = alloc_evicting ~pending t ~words in
        let c' = compile_at t ?buf ~base:addr' f in
        let words' = Codebuf.length c'.Dpf.code.Vcode.gen.Gen.buf in
        assert (words' <= slab');
        t.s_recompiles <- t.s_recompiles + 1;
        Tel.bump t.tel t.c_recompile;
        (addr', slab', c', words')
      end
    in
    Mem.install_code t.mem ~addr c.Dpf.code.Vcode.gen.Gen.buf;
    DP.install_tables t.mem c;
    let r =
      {
        rg_key = key;
        rg_fid = f.Dpf.Filter.fid;
        rg_base = addr;
        rg_slab = slab;
        rg_words = words;
        rg_entry = c.Dpf.entry;
        rg_epoch = t.next_epoch;
        rg_slot = -1;
      }
    in
    t.next_epoch <- t.next_epoch + 1;
    link t r;
    t.s_installs <- t.s_installs + 1;
    Tel.bump t.tel t.c_install;
    Tel.timer_stop t.tel t.d_install_ns t0;
    if replaced then Tel.timer_stop t.tel t.d_replace_ns t0;
    r.rg_entry

  let install t ~key f = install_common t ~key f

  let install_batch t kfs =
    let n = List.length kfs in
    List.iteri
      (fun i (key, f) ->
        ignore (install_common t ~buf:t.scratch ~pending:(n - i) ~key f : int))
      kfs

  let lookup t key =
    match Keys.find_opt t.table key with
    | Some r ->
      t.slot_hits.(r.rg_slot) <- t.slot_hits.(r.rg_slot) + 1;
      t.s_hits <- t.s_hits + 1;
      Tel.bump t.tel t.c_hit;
      Some r.rg_entry
    | None ->
      t.s_misses <- t.s_misses + 1;
      Tel.bump t.tel t.c_miss;
      None

  let find t key =
    Keys.find_opt t.table key
    |> Option.map (fun r ->
           {
             base = r.rg_base;
             slab_words = r.rg_slab;
             code_words = r.rg_words;
             entry = r.rg_entry;
             fid = r.rg_fid;
             hits = t.slot_hits.(r.rg_slot);
             epoch = r.rg_epoch;
           })

  let check_invariants t =
    let fail fmt = Printf.ksprintf failwith ("Server.check_invariants: " ^^ fmt) in
    if Keys.length t.table <> t.s_live then
      fail "table holds %d regions, dense array %d" (Keys.length t.table) t.s_live;
    if Arena.live_slabs t.arena <> t.s_live then
      fail "arena holds %d live slabs, registry %d" (Arena.live_slabs t.arena) t.s_live;
    for i = 0 to t.s_live - 1 do
      let r = t.dense.(i) in
      if r.rg_slot <> i then fail "key %d at slot %d records slot %d" r.rg_key i r.rg_slot;
      if t.slot_epochs.(i) <> r.rg_epoch then
        fail "key %d at slot %d: epoch %d, slot epoch %d" r.rg_key i r.rg_epoch
          t.slot_epochs.(i);
      (match Keys.find_opt t.table r.rg_key with
      | Some r' when r' == r -> ()
      | _ -> fail "key %d in the dense array but not the table" r.rg_key);
      if Arena.slab_words t.arena r.rg_base <> Some r.rg_slab then
        fail "key %d: slab 0x%x is not a live %d-word arena slab" r.rg_key r.rg_base r.rg_slab
    done;
    (* Two slabs overlap iff some granule holds a byte of each.  Slab
       sizes are multiples of the smallest class, so with granules of
       that size measured from the lowest base, each slab covers whole
       granules and adjacent slabs never share one. *)
    let g = 4 * Arena.class_sizes.(0) in
    let lo = ref max_int in
    for i = 0 to t.s_live - 1 do
      lo := min !lo t.dense.(i).rg_base
    done;
    let claimed = Keys.create (4 * t.s_live) in
    for i = 0 to t.s_live - 1 do
      let r = t.dense.(i) in
      for j = (r.rg_base - !lo) / g to (r.rg_base + (4 * r.rg_slab) - 1 - !lo) / g do
        match Keys.find_opt claimed j with
        | Some k -> fail "slabs of keys %d and %d overlap at 0x%x" k r.rg_key (!lo + (j * g))
        | None -> Keys.add claimed j r.rg_key
      done
    done

  let stats t =
    {
      live = t.s_live;
      installs = t.s_installs;
      replaces = t.s_replaces;
      evictions = t.s_evictions;
      capacity_evictions = t.s_cap_evictions;
      recompiles = t.s_recompiles;
      lookup_hits = t.s_hits;
      lookup_misses = t.s_misses;
    }

  let arena_stats t = Arena.stats t.arena

  (* Named gauge closures for a {!Vmachine.Timeline}: registry
     occupancy, arena free-list depths (total and per size class) and
     the bump frontier.  All allocation-free reads, cheap enough to
     sample every few packets. *)
  let gauge_sources t =
    let a = t.arena in
    [
      ("server.live_regions", fun () -> t.s_live);
      ("server.arena.free_slabs", fun () -> Arena.free_slabs_total a);
      ("server.arena.live_slabs", fun () -> Arena.live_slabs a);
      ("server.arena.bump_words", fun () -> Arena.bump_words a);
    ]
    @ List.mapi
        (fun i size ->
          (Printf.sprintf "server.arena.free.c%d" size, fun () -> Arena.free_slabs a ~cls:i))
        (Array.to_list Arena.class_sizes)

  (* counters are monotonic stores; a gauge is written as the delta to
     the target value so generic consumers (vprof's counter dump) see
     the current level under the usual read API *)
  let set_gauge t c v = Tel.add t.tel c (v - Tel.value t.tel c)

  let sync_gauges t =
    let a = Arena.stats t.arena in
    let free = Array.fold_left (fun acc c -> acc + c.Arena.free) 0 a.Arena.classes in
    set_gauge t t.g_live t.s_live;
    set_gauge t t.g_slabs_live a.Arena.live_slabs;
    set_gauge t t.g_slabs_free free;
    set_gauge t t.g_bump_words a.Arena.bump_words
end
