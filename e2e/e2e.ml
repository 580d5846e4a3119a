(* The end-to-end benchmark: one workload per process, one thread.

   usage: e2e.exe --workload W --seed N --seconds S --json OUT [--trace TRACE]
          e2e.exe check SPEC RESULT [RESULT2]

   Every input is drawn from --seed; the programs under test only see
   the generated inputs.  Every output is checked against an
   independent oracle; a mismatch or an exception prints a FAIL line,
   counts as failed, and the run goes on.  README.md describes the
   workloads, the metrics and what each layer metric should move.

   The benchmark calls each layer's public functions directly, so each
   call can be timed from outside: the registry (Vserver.Server), the
   simulators, and the clients Dpf, Ash, Tcc, Vmjit and Vasm over the
   VCODE ports.  With --trace, spans around those calls give the
   per-layer breakdown; end-to-end numbers come from untraced runs. *)

module Mem = Vmachine.Mem
module Mconfig = Vmachine.Mconfig
module F = Fixtures
module SV = Vserver.Server.Make (Vmips.Mips_backend)
module Samples = Span.Samples

(* span kinds; the prefix names the layer, "bench" spans are roots *)
let k_packet = Span.kind "bench.packet"
let k_batch = Span.kind "bench.batch"
let k_fixture = Span.kind "bench.fixture"
let k_generation = Span.kind "bench.generation"
let k_lookup = Span.kind "server.lookup"
let k_install = Span.kind "server.install"
let k_evict = Span.kind "server.evict"
let k_install_batch = Span.kind "server.install_batch"
let k_cold = Span.kind "engine.call_cold"
let k_warm = Span.kind "engine.call_warm"
let k_dpf = Span.kind "dpf.compile"
let k_ash = Span.kind "ash.gen"
let k_jit = Span.kind "vmjit.translate"
let k_tcc = Span.kind "tcc.compile"
let k_body = Span.kind "vcode.body"
let k_vasm = Span.kind "vasm.assemble"

(* setup runs this many times; setup_s is the median *)
let setups = 7

(* The host-time rates (ops_per_s, sim_minsns_per_s, gen_ns_per_insn)
   are medians over windows of this much request time, so that a few
   seconds of contention from other tenants of the host move a few
   windows, not the result *)
let window_ns = 500_000_000

type ctx = {
  seed : int;
  seconds : float;
  tr : Span.t;
  mutable attempted : int;
  mutable failed : int;
  mutable lats : Samples.t list; (* request latencies, ns, one set per request type *)
  mutable win_ns : int;
  mutable win_n : int;
  mutable rates : float list; (* per window: requests per second *)
  mutable sim_rates : float list; (* per window: simulated M insns per host second *)
  mutable gen_rates : float list; (* per window: generation ns per word *)
  mutable guest_ns : int; (* host time inside guest calls *)
  mutable guest_insns : int;
  mutable gen_ns : int; (* host time inside generation calls *)
  mutable gen_words : int;
  mutable win_at : int array; (* guest_ns, guest_insns, gen_ns, gen_words when the window opened *)
  mutable setup_s : float list;
  mutable sim_cycles : int;
  mutable code_words : int;
  mutable machines : F.machine list; (* the timed part's machines *)
  mutable caches0 : int array; (* their cache counters when timing began *)
  mutable layer : (string * float) list; (* workload-specific layer metrics *)
}

let now = Span.now
let secs ns = float_of_int ns *. 1e-9

(* ---- checking ---- *)

let fail ctx msg =
  ctx.failed <- ctx.failed + 1;
  Printf.printf "FAIL %s\n%!" msg

let expect ctx what ~got ~want =
  ctx.attempted <- ctx.attempted + 1;
  if got <> want then fail ctx (Printf.sprintf "%s: got %d, want %d" what got want)

(* One request under a root span of [kind].  An exception counts as a
   failed operation and closes the request's spans; the run goes on. *)
let request ctx kind what f =
  Span.enter ctx.tr kind;
  match f () with
  | () -> Span.leave ctx.tr
  | exception e ->
    ctx.attempted <- ctx.attempted + 1;
    fail ctx (what ^ ": " ^ Printexc.to_string e);
    Span.unwind ctx.tr

(* ---- timing ---- *)

let open_window ctx =
  ctx.win_ns <- 0;
  ctx.win_n <- 0;
  ctx.win_at <- [| ctx.guest_ns; ctx.guest_insns; ctx.gen_ns; ctx.gen_words |]

(* the window's rates; one without guest calls or generation adds no
   rate for them *)
let close_window ctx =
  ctx.rates <- (float_of_int ctx.win_n /. secs ctx.win_ns) :: ctx.rates;
  let a = ctx.win_at in
  let gns = ctx.guest_ns - a.(0) and gins = ctx.guest_insns - a.(1) in
  if gns > 0 then ctx.sim_rates <- (float_of_int gins /. float_of_int gns *. 1e3) :: ctx.sim_rates;
  let cns = ctx.gen_ns - a.(2) and cw = ctx.gen_words - a.(3) in
  if cw > 0 then ctx.gen_rates <- (float_of_int cns /. float_of_int cw) :: ctx.gen_rates;
  open_window ctx

(* [ns] of request time toward the windows *)
let window ctx ns =
  ctx.win_ns <- ctx.win_ns + ns;
  ctx.win_n <- ctx.win_n + 1;
  if ctx.win_ns >= window_ns then close_window ctx

(* a fresh latency set for one type of request *)
let latencies ctx =
  let s = Samples.create () in
  ctx.lats <- s :: ctx.lats;
  s

let timed_request ctx lat kind what f =
  let t = now () in
  request ctx kind what f;
  let ns = now () - t in
  Samples.add lat ns;
  window ctx ns

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* one guest call on the engine; [cold] when the code at [entry] has
   not run since it was installed, so the call pays its translation *)
let guest ctx (m : F.machine) ~cold entry args =
  Span.enter ctx.tr (if cold then k_cold else k_warm);
  let i0 = m.F.insns () in
  let t0 = now () in
  let r = m.F.call entry args in
  let t1 = now () in
  Span.leave ctx.tr;
  ctx.guest_ns <- ctx.guest_ns + (t1 - t0);
  ctx.guest_insns <- ctx.guest_insns + (m.F.insns () - i0);
  r

(* one generation call into a client: its result and host ns *)
let generate ctx kind f =
  Span.enter ctx.tr kind;
  let t0 = now () in
  let r = f () in
  let dt = now () - t0 in
  Span.leave ctx.tr;
  ctx.gen_ns <- ctx.gen_ns + dt;
  (r, dt)

let run_for ~seconds f =
  let deadline = now () + int_of_float (seconds *. 1e9) in
  while now () < deadline do
    f ()
  done

let draw rng lo hi = lo + Random.State.int rng (hi - lo + 1)
let cycles ms = List.fold_left (fun acc (m : F.machine) -> acc + m.F.cycles ()) 0 ms

let cache_counters ms =
  let c = Array.make 4 0 in
  List.iter
    (fun (m : F.machine) ->
      let ih, im = Vmachine.Cache.stats m.F.icache and dh, dm = Vmachine.Cache.stats m.F.dcache in
      c.(0) <- c.(0) + ih;
      c.(1) <- c.(1) + im;
      c.(2) <- c.(2) + dh;
      c.(3) <- c.(3) + dm)
    ms;
  c

(* Run [build] [setups] times from scratch and keep the last state.
   [build] also returns the simulated cycles and generated words of its
   fixed warm-up, which must repeat exactly. *)
let set_up ctx build =
  let last = ref None in
  for i = 1 to setups do
    last := None;
    Gc.full_major ();
    let t0 = now () in
    let st, cycles, words = build () in
    ctx.setup_s <- secs (now () - t0) :: ctx.setup_s;
    if i > 1 && (cycles, words) <> (ctx.sim_cycles, ctx.code_words) then
      fail ctx
        (Printf.sprintf "setup %d: %d cycles and %d words, the first setup %d and %d" i cycles
           words ctx.sim_cycles ctx.code_words);
    ctx.sim_cycles <- cycles;
    ctx.code_words <- words;
    last := Some st
  done;
  Option.get !last

(* the timed part begins: spans on, cache counters noted, a window open *)
let start_timing ctx ms =
  ctx.machines <- ms;
  ctx.caches0 <- cache_counters ms;
  open_window ctx;
  Span.set_on ctx.tr true

(* ------------------------------------------------------------------ *)
(* The registry: router-churn and install-storm                        *)

let fleet = 10_000
let chunk = 256
let arena_base = 0x100000

type registry = {
  sv : SV.t;
  rm : F.machine;
  rng : Random.State.t;
  salt : int;
  mutable next_key : int;
  mutable oldest : int; (* keys below were evicted *)
  mutable called : Bytes.t; (* key -> its code has run *)
  mutable lookups : int;
  mutable misses : int;
  (* for dpf.compile_share: filters installed while traced, and the
     install time they took *)
  mutable share : Dpf.Filter.t list;
  mutable share_n : int;
  mutable share_ns : int;
}

let share_max = 4096

(* each key's 16-bit dst_port is a seeded hash of the key *)
let port_of r k = 1 + (Hashtbl.hash (r.salt, k) mod 65535)
let filter_of r k = Dpf.Filter.tcpip_session ~fid:k ~dst_ip:F.dst_ip ~dst_port:(port_of r k)

let registry ctx ?arena_limit () =
  let m = F.mips.F.machine Mconfig.router F.blocks in
  F.write_packet m ~port:0;
  let rng = Random.State.make [| ctx.seed |] in
  {
    sv = SV.create ~arena_base ?arena_limit m.F.mem;
    rm = m;
    rng;
    salt = Random.State.bits rng;
    next_key = 0;
    oldest = 0;
    called = Bytes.make (4 * fleet) '\000';
    lookups = 0;
    misses = 0;
    share = [];
    share_n = 0;
    share_ns = 0;
  }

let words_of_keys r k0 k1 =
  let w = ref 0 in
  for k = k0 to k1 - 1 do
    match SV.find r.sv k with Some i -> w := !w + i.SV.code_words | None -> ()
  done;
  !w

(* install keys [k0, k0 + n) in one install_batch call; returns the
   words generated for them *)
let install ctx r kind k0 n =
  let kfs = List.init n (fun i -> (k0 + i, filter_of r (k0 + i))) in
  let (), dt = generate ctx kind (fun () -> SV.install_batch r.sv kfs) in
  if Span.on ctx.tr && r.share_n < share_max then begin
    r.share <- List.rev_append (List.map snd kfs) r.share;
    r.share_n <- r.share_n + n;
    r.share_ns <- r.share_ns + dt
  end;
  let w = words_of_keys r k0 (k0 + n) in
  ctx.gen_words <- ctx.gen_words + w;
  w

(* add [n] fresh keys in batches of [chunk]; returns words generated *)
let install_fresh ctx r n =
  let k0 = r.next_key in
  r.next_key <- k0 + n;
  let b = ref k0 and words = ref 0 in
  while !b < k0 + n do
    let c = min chunk (k0 + n - !b) in
    words := !words + install ctx r k_install_batch !b c;
    b := !b + c
  done;
  !words

let first_call r k =
  let len = Bytes.length r.called in
  if k >= len then r.called <- Bytes.cat r.called (Bytes.make (max (k + 1 - len) len) '\000');
  let first = Bytes.get r.called k = '\000' in
  if first then Bytes.set r.called k '\001';
  first

(* one packet to key [k]: registry lookup, then the filter on the
   engine.  A live key must classify as itself; an evicted key must
   miss, which is a correct drop. *)
let classify ctx r k =
  let mem = r.rm.F.mem and port = port_of r k in
  Mem.write_u8 mem (F.pkt_addr + 22) (port lsr 8);
  Mem.write_u8 mem (F.pkt_addr + 23) (port land 0xff);
  Span.enter ctx.tr k_lookup;
  let e = SV.lookup r.sv k in
  Span.leave ctx.tr;
  r.lookups <- r.lookups + 1;
  let live = k >= r.oldest in
  match e with
  | Some entry ->
    let got = guest ctx r.rm ~cold:(first_call r k) entry [ F.pkt_addr; F.packet_len ] in
    expect ctx "packet classified as" ~got ~want:(if live then k else -1)
  | None ->
    r.misses <- r.misses + 1;
    expect ctx "live key missing from the registry" ~got:(Bool.to_int live) ~want:0

(* 3:1 to the newest quarter of keys, 1/16 to already-evicted keys *)
let draw_key r =
  let rng = r.rng and span = r.next_key - r.oldest in
  if r.oldest > 0 && Random.State.int rng 16 = 0 then Random.State.int rng r.oldest
  else if Random.State.int rng 4 < 3 then r.next_key - 1 - Random.State.int rng (max 1 (span / 4))
  else r.oldest + Random.State.int rng span

let churn_every = 32

(* packet [i] of the stream; every [churn_every]th also evicts the
   oldest filter and installs a fresh one *)
let packet ctx r i () =
  classify ctx r (draw_key r);
  if i mod churn_every = 0 then begin
    Span.enter ctx.tr k_evict;
    let evicted = SV.evict r.sv r.oldest in
    Span.leave ctx.tr;
    expect ctx "churn evicted the oldest key" ~got:(Bool.to_int evicted) ~want:1;
    r.oldest <- r.oldest + 1;
    r.next_key <- r.next_key + 1;
    ignore (install ctx r k_install (r.next_key - 1) 1 : int)
  end

(* the layer metrics of the registry workloads *)
let registry_layer r =
  let a = SV.arena_stats r.sv in
  let free = Array.fold_left (fun acc c -> acc + c.Vserver.Arena.free) 0 a.Vserver.Arena.classes in
  (* the filters installed while traced, compiled once more through the
     registry's own DPF instance, against the install time they took *)
  let buf = Vcodebase.Codebuf.create ~capacity:256 () in
  let t0 = now () in
  List.iter
    (fun f -> ignore (SV.DP.compile ~base:arena_base ~table_base:0x7F0000 ~buf [ f ] : Dpf.compiled))
    r.share;
  let compile_ns = now () - t0 in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  [
    ("server.lookup.miss_ratio", ratio r.misses r.lookups);
    ("arena.live_slabs", float_of_int a.Vserver.Arena.live_slabs);
    ("arena.free_slabs", float_of_int free);
    ("arena.bump_words", float_of_int a.Vserver.Arena.bump_words);
    ("dpf.compile_share", ratio compile_ns r.share_ns);
  ]

let open_rate = 50_000 (* packets/s in phase A *)
let warm_packets = 20_000

let router_churn ctx =
  let r =
    set_up ctx (fun () ->
        let r = registry ctx () in
        let words = install_fresh ctx r fleet in
        let c0 = r.rm.F.cycles () in
        for i = 1 to warm_packets do
          request ctx k_packet "warm-up packet" (packet ctx r i)
        done;
        (r, r.rm.F.cycles () - c0, words))
  in
  start_timing ctx [ r.rm ];
  r.lookups <- 0;
  r.misses <- 0;
  let i = ref warm_packets in
  (* phase A: open loop at a fixed rate; each packet is timed from when
     it was due, and the generator spins until then *)
  let n = int_of_float (float_of_int open_rate *. 0.6 *. ctx.seconds) in
  let period = 1_000_000_000 / open_rate in
  let lat = latencies ctx and wait = Samples.create () in
  let t0 = now () in
  let last_start = ref t0 in
  for j = 0 to n - 1 do
    let due = t0 + (j * period) in
    while now () < due do
      ()
    done;
    let start = now () in
    incr i;
    request ctx k_packet "packet" (packet ctx r !i);
    Samples.add lat (now () - due);
    Samples.add wait (start - due);
    last_start := start
  done;
  let backlog = max 0 (((!last_start - t0) / period) - (n - 1)) in
  (* phase B: closed loop, one packet after another; the rates come
     from its windows alone *)
  open_window ctx;
  run_for ~seconds:(0.4 *. ctx.seconds) (fun () ->
      let t = now () in
      incr i;
      request ctx k_packet "packet" (packet ctx r !i);
      window ctx (now () - t));
  let wait_p99 = List.hd (Samples.quantiles wait [ 0.99 ]) in
  if Span.on ctx.tr then
    ctx.layer <-
      [
        ("queue.wait.p99_us", wait_p99 /. 1e3);
        ("queue.wait.max_us", float_of_int (Samples.max wait) /. 1e3);
        ("queue.backlog_end", float_of_int backlog);
      ]
      @ registry_layer r

(* batches run once after setup, untimed: the first few dozen after it
   include one-off costs several times a batch's usual time *)
let settle_batches = 32

let install_storm ctx =
  let r =
    set_up ctx (fun () ->
        let r = registry ctx ~arena_limit:(arena_base + (4 * 128 * fleet)) () in
        let words = install_fresh ctx r fleet in
        (* warm-up: eight batches at capacity, each new filter verified *)
        let c0 = r.rm.F.cycles () in
        for _ = 1 to 8 do
          let k0 = r.next_key in
          ignore (install_fresh ctx r chunk : int);
          for k = k0 to r.next_key - 1 do
            request ctx k_packet "warm-up verify" (fun () -> classify ctx r k)
          done
        done;
        (r, r.rm.F.cycles () - c0, words))
  in
  (* a request: one batch of fresh filters, each forcing a capacity
     eviction, then one verifying packet per new filter *)
  let batch () =
    let k0 = r.next_key in
    r.next_key <- k0 + chunk;
    ignore (install ctx r k_install_batch k0 chunk : int);
    for k = k0 to k0 + chunk - 1 do
      classify ctx r k
    done
  in
  for _ = 1 to settle_batches do
    request ctx k_batch "settling batch" batch
  done;
  start_timing ctx [ r.rm ];
  r.lookups <- 0;
  r.misses <- 0;
  let cap0 = (SV.stats r.sv).SV.capacity_evictions and lat = latencies ctx in
  run_for ~seconds:ctx.seconds (fun () -> timed_request ctx lat k_batch "batch" batch);
  if Span.on ctx.tr then
    ctx.layer <-
      ( "server.capacity_evictions",
        float_of_int ((SV.stats r.sv).SV.capacity_evictions - cap0) )
      :: registry_layer r

(* ------------------------------------------------------------------ *)
(* sim-hot: a fixed round-robin of hot guest code                      *)

type fixture = {
  fname : string;
  canonical : int list; (* the arguments of the canonical pass *)
  draw : unit -> int; (* a seeded argument for the timed stream *)
  call : ctx -> cold:bool -> int -> unit; (* one guest call, checked *)
}

(* The sim-hot fixtures of port [p]: the corpus programs (MIPS only),
   DPF ten-filter classify, ASH copy+checksum over 8 KB and the vmjit
   loop.  Generates their code and returns a function that installs it
   on a machine, giving the fixtures; the words emitted; and a function
   that runs the same generations again, discarding their code.  Code
   comes first: a machine's large allocations would leave GC work for
   the generators' own allocations to pay. *)
let hot_fixtures ctx rng (p : F.port) =
  let words = ref 0 and regens = ref [] in
  let gen kind words_of f =
    let again () =
      let c, _ = generate ctx kind f in
      ctx.gen_words <- ctx.gen_words + words_of c;
      c
    in
    let c = again () in
    words := !words + words_of c;
    regens := (fun () -> ignore (again ())) :: !regens;
    c
  in
  let corpus =
    if p.F.name <> "mips" then []
    else
      List.map
        (fun (name, canonical, lo, hi) ->
          let src = F.corpus_source name and base = List.assoc name F.asm_base in
          let img =
            gen k_vasm (fun i -> Array.length i.Vasm.words) (fun () -> Vasm.assemble_exn ~base src)
          in
          (name, canonical, lo, hi, img))
        [ ("josephus", 48, 44, 52); ("sort", 64, 56, 72); ("fib", 14, 13, 15) ]
  in
  (* DPF: ten session filters on seeded ports; argument 10 is a packet
     that matches none *)
  let ports = Array.of_list (F.distinct_ports rng 10) in
  let dpf = gen k_dpf (fun c -> F.words c.Dpf.code) (fun () -> p.F.dpf (F.filter_set (Array.to_list ports))) in
  let ash = gen k_ash F.words (fun () -> p.F.ash [ Ash.Copy; Ash.Checksum ]) in
  let data = F.ash_data rng in
  let sum = Ash.native_checksum ~big_endian:p.F.big_endian data in
  let prog = F.jit_program ~c1:(draw rng 1 9) ~c2:(draw rng 0 99) in
  let jit = gen k_jit F.words (fun () -> p.F.jit prog) in
  let install (m : F.machine) =
    let corpus =
      List.map
        (fun (name, canonical, lo, hi, img) ->
          Workloads.load_asm_image m.F.mem img;
          let oracle = F.corpus_oracle name in
          {
            fname = name;
            canonical = [ canonical ];
            draw = (fun () -> draw rng lo hi);
            call =
              (fun ctx ~cold n ->
                expect ctx name ~got:(F.u32 (guest ctx m ~cold img.Vasm.entry [ n ]))
                  ~want:(oracle n));
          })
        corpus
    in
    F.install m dpf.Dpf.code;
    List.iter (fun (addr, ws) -> F.write_words m addr ws) dpf.Dpf.tables;
    F.write_packet m ~port:0;
    F.install m ash;
    Mem.blit_bytes m.F.mem ~addr:F.src_addr data;
    F.install m jit;
    corpus
    @ [
        {
          fname = "dpf";
          canonical = List.init 11 Fun.id;
          draw = (fun () -> Random.State.int rng 11);
          call =
            (fun ctx ~cold i ->
              let port = if i = 10 then 0 else ports.(i) in
              Mem.write_u8 m.F.mem (F.pkt_addr + 22) (port lsr 8);
              Mem.write_u8 m.F.mem (F.pkt_addr + 23) (port land 0xff);
              let got = guest ctx m ~cold dpf.Dpf.entry [ F.pkt_addr; F.packet_len ] in
              expect ctx "dpf classify" ~got ~want:(if i = 10 then -1 else i));
        };
        {
          fname = "ash";
          canonical = [ 0 ];
          draw = (fun () -> 0);
          call =
            (fun ctx ~cold _ ->
              let got =
                guest ctx m ~cold ash.Vcode.entry_addr [ F.dst_addr; F.src_addr; F.ash_words ]
              in
              expect ctx "ash copy+cksum" ~got ~want:sum);
        };
        {
          fname = "vmjit";
          canonical = [ 100 ];
          draw = (fun () -> draw rng 90 110);
          call =
            (fun ctx ~cold n ->
              expect ctx "vmjit loop"
                ~got:(F.u32 (guest ctx m ~cold jit.Vcode.entry_addr [ n ]))
                ~want:(F.u32 (Vmjit.reference prog n)));
        };
      ]
  in
  let regens = !regens in
  (install, !words, fun () -> List.iter (fun g -> g ()) regens)

(* Setup runs each fixture once on its canonical arguments, the fixed
   call set behind sim_cycles (seeded code, fixed amounts of work), then
   [warm_rounds] rounds of the seeded stream. *)
let warm_rounds = 8

(* sim-hot's requests generate nothing, so its gen_ns_per_insn comes
   from generation slices between rounds, every [slice_every_ns] of the
   timed part: [slice_passes] passes of every fixture's generators on
   every port, about a millisecond, outside any request and untraced *)
let slice_every_ns = 250_000_000
let slice_passes = 4

let sim_hot ctx =
  let fixtures, ms, regen =
    set_up ctx (fun () ->
        let rng = Random.State.make [| ctx.seed |] in
        let code = List.map (hot_fixtures ctx rng) F.ports in
        let ms = List.map (fun (p : F.port) -> p.F.machine Mconfig.dec5000 F.blocks) F.ports in
        let fixtures =
          Array.of_list (List.concat (List.map2 (fun (install, _, _) m -> install m) code ms))
        in
        let c0 = cycles ms in
        Array.iter
          (fun f ->
            List.iteri
              (fun i n -> request ctx k_fixture f.fname (fun () -> f.call ctx ~cold:(i = 0) n))
              f.canonical)
          fixtures;
        let canonical_cycles = cycles ms - c0 in
        for _ = 1 to warm_rounds do
          Array.iter
            (fun f -> request ctx k_fixture f.fname (fun () -> f.call ctx ~cold:false (f.draw ())))
            fixtures
        done;
        let regen () = List.iter (fun (_, _, g) -> g ()) code in
        ( (fixtures, ms, regen),
          canonical_cycles,
          List.fold_left (fun acc (_, w, _) -> acc + w) 0 code ))
  in
  start_timing ctx ms;
  let timed = Array.map (fun f -> (f, latencies ctx)) fixtures in
  let next_slice = ref (now ()) in
  run_for ~seconds:ctx.seconds (fun () ->
      Array.iter
        (fun (f, lat) ->
          let n = f.draw () in
          timed_request ctx lat k_fixture f.fname (fun () -> f.call ctx ~cold:false n))
        timed;
      if now () >= !next_slice then begin
        next_slice := now () + slice_every_ns;
        Span.set_on ctx.tr false;
        for _ = 1 to slice_passes do
          regen ()
        done;
        Span.set_on ctx.tr true
      end)

(* ------------------------------------------------------------------ *)
(* codegen: generation on every port each client supports              *)

type task = {
  client : string;
  tport : string;
  kind : int;
  next : unit -> unit; (* draw the seeded inputs of the next generation *)
  gen : unit -> int; (* the generation call alone; returns words generated *)
  check : ctx -> unit; (* install the result and run it once against its oracle *)
}

(* the ports tcc-compiled C runs on *)
let tcc_ports = [ "mips"; "sparc"; "alpha"; "ppc" ]

let gen_tasks rng (p : F.port) =
  let m = p.F.machine Mconfig.dec5000 F.blocks in
  F.write_packet m ~port:0;
  let task client kind next gen check = { client; tport = p.F.name; kind; next; gen; check } in
  let poke port =
    Mem.write_u8 m.F.mem (F.pkt_addr + 22) (port lsr 8);
    Mem.write_u8 m.F.mem (F.pkt_addr + 23) (port land 0xff)
  in
  let ports = ref [||] in
  let new_filter_set () = ports := Array.of_list (F.distinct_ports rng 32) in
  let filters () = F.filter_set (Array.to_list !ports) in
  (* a packet to each filter of the set, then one (port 0) to none *)
  let classify_all ctx what run =
    for i = 0 to 32 do
      poke (if i = 32 then 0 else !ports.(i));
      expect ctx what ~got:(run ~cold:(i = 0)) ~want:(if i = 32 then -1 else i)
    done
  in
  let dpf =
    let c = ref None in
    task "dpf" k_dpf new_filter_set
      (fun () ->
        let r = p.F.dpf (filters ()) in
        c := Some r;
        F.words r.Dpf.code)
      (fun ctx ->
        let c = Option.get !c in
        F.install m c.Dpf.code;
        List.iter (fun (addr, ws) -> F.write_words m addr ws) c.Dpf.tables;
        classify_all ctx "dpf32 classify" (fun ~cold ->
            guest ctx m ~cold c.Dpf.entry [ F.pkt_addr; F.packet_len ]))
  in
  let ash =
    let c = ref None in
    task "ash" k_ash ignore
      (fun () ->
        let r = p.F.ash [ Ash.Copy; Ash.Checksum; Ash.Byteswap ] in
        c := Some r;
        F.words r)
      (fun ctx ->
        let c = Option.get !c in
        F.install m c;
        let msg = Bytes.init 64 (fun _ -> Char.chr (Random.State.int rng 256)) in
        Mem.blit_bytes m.F.mem ~addr:F.src_addr msg;
        expect ctx "ash copy+cksum+bswap"
          ~got:(guest ctx m ~cold:true c.Vcode.entry_addr [ F.dst_addr; F.src_addr; 16 ])
          ~want:(Ash.native_checksum ~big_endian:p.F.big_endian msg))
  in
  let prog = ref [||] in
  let new_prog () = prog := F.jit_program ~c1:(draw rng 1 9) ~c2:(draw rng 0 99) in
  let jit =
    let c = ref None in
    task "vmjit" k_jit new_prog
      (fun () ->
        let r = p.F.jit !prog in
        c := Some r;
        F.words r)
      (fun ctx ->
        let c = Option.get !c in
        F.install m c;
        let n = 16 in
        expect ctx "vmjit translated loop"
          ~got:(F.u32 (guest ctx m ~cold:true c.Vcode.entry_addr [ n ]))
          ~want:(F.u32 (Vmjit.reference !prog n)))
  in
  let body =
    let c = ref None in
    task "vcode" k_body ignore
      (fun () ->
        let r = p.F.body () in
        c := Some r;
        F.words r)
      (fun ctx ->
        let c = Option.get !c in
        F.install m c;
        let r0 = draw rng 0 999 and r1 = draw rng 0 999 and p0 = draw rng 0 0xFFFF in
        Mem.write_u32 m.F.mem F.body_data p0;
        expect ctx "vcode body"
          ~got:(F.u32 (guest ctx m ~cold:true c.Vcode.entry_addr [ r0; r1; F.body_data ]))
          ~want:(F.body_oracle ~r0 ~r1 ~p0))
  in
  let tcc base src next check =
    let u = ref None in
    task "tcc" k_tcc next
      (fun () ->
        let r = p.F.tcc ~base src in
        u := Some r;
        List.fold_left (fun acc c -> acc + F.words c) 0 r.F.funcs)
      (fun ctx ->
        let u = Option.get !u in
        List.iter (F.install m) u.F.funcs;
        check ctx u)
  in
  let pathfinder =
    tcc F.pf_base Dpf.Pathfinder.source new_filter_set (fun ctx u ->
        let words, root = Dpf.Pathfinder.encode ~big_endian:p.F.big_endian (filters ()) in
        F.write_words m F.trie_addr words;
        let swap = if p.F.big_endian then 0 else 1 in
        classify_all ctx "tcc pathfinder classify" (fun ~cold ->
            guest ctx m ~cold
              (u.F.entry Dpf.Pathfinder.function_name)
              [ F.pkt_addr; F.packet_len; F.trie_addr; root; swap ]))
  in
  let interp =
    tcc F.interp_base Vmjit.interpreter_source new_prog (fun ctx u ->
        F.write_words m F.image_addr (Vmjit.image !prog);
        let n = 16 in
        expect ctx "tcc vmjit interpreter"
          ~got:
            (F.u32
               (guest ctx m ~cold:true
                  (u.F.entry Vmjit.interpreter_function)
                  [ F.image_addr; Array.length !prog; n ]))
          ~want:(F.u32 (Vmjit.reference !prog n)))
  in
  let vasm =
    if p.F.name <> "mips" then []
    else
      List.map
        (fun (name, n) ->
          let src = F.corpus_source name and img = ref None in
          task "vasm" k_vasm ignore
            (fun () ->
              let r = Vasm.assemble_exn ~base:(List.assoc name F.asm_base) src in
              img := Some r;
              Array.length r.Vasm.words)
            (fun ctx ->
              let img = Option.get !img in
              Workloads.load_asm_image m.F.mem img;
              expect ctx ("vasm " ^ name)
                ~got:(F.u32 (guest ctx m ~cold:true img.Vasm.entry [ n ]))
                ~want:(F.corpus_oracle name n)))
        [ ("josephus", 11); ("sort", 16); ("fib", 10) ]
  in
  let tcc = if List.mem p.F.name tcc_ports then [ pathfinder; interp ] else [] in
  ([ dpf; ash; jit; body ] @ tcc @ vasm, m)

(* one pass over the tasks: each generation is a request, timed alone
   into its latency set when it has one; its oracle run is part of the
   root span but not of the latency *)
let gen_pass ctx tasks =
  List.iter
    (fun (t, lat) ->
      request ctx k_generation (t.client ^ "." ^ t.tport) (fun () ->
          t.next ();
          let words, dt = generate ctx t.kind t.gen in
          ctx.gen_words <- ctx.gen_words + words;
          Option.iter
            (fun lat ->
              Samples.add lat dt;
              window ctx dt)
            lat;
          t.check ctx))
    tasks

let codegen ctx =
  let tasks, ms =
    set_up ctx (fun () ->
        let rng = Random.State.make [| ctx.seed |] in
        let built = List.map (gen_tasks rng) F.ports in
        let tasks = List.concat_map fst built and ms = List.map snd built in
        let c0 = cycles ms and w0 = ctx.gen_words in
        gen_pass ctx (List.map (fun t -> (t, None)) tasks);
        ((tasks, ms), cycles ms - c0, ctx.gen_words - w0))
  in
  start_timing ctx ms;
  let timed = List.map (fun t -> (t, Some (latencies ctx))) tasks in
  run_for ~seconds:ctx.seconds (fun () -> gen_pass ctx timed)

(* ------------------------------------------------------------------ *)
(* Layer sweeps of the traced run                                      *)

(* Fixed cells, the same on every workload, run untraced after the
   timed part: the engine over the sim-hot fixtures in every mode on
   every port, and every generator on every port. *)
let cell_s = 0.03

let engine_sweep ctx =
  let rng = Random.State.make [| ctx.seed; 1 |] in
  List.concat_map
    (fun (mode, flags) ->
      List.concat_map
        (fun (p : F.port) ->
          let install, _, _ = hot_fixtures ctx rng p in
          let fixtures = install (p.F.machine Mconfig.dec5000 flags) in
          let cells =
            List.map
              (fun f ->
                request ctx k_fixture f.fname (fun () -> f.call ctx ~cold:true (f.draw ()));
                let i0 = ctx.guest_insns and n0 = ctx.guest_ns in
                run_for ~seconds:cell_s (fun () ->
                    let n = f.draw () in
                    request ctx k_fixture f.fname (fun () -> f.call ctx ~cold:false n));
                (f.fname, ctx.guest_insns - i0, ctx.guest_ns - n0))
              fixtures
          in
          let rate i ns = if ns = 0 then 0.0 else float_of_int i /. float_of_int ns *. 1e3 in
          let insns = List.fold_left (fun a (_, i, _) -> a + i) 0 cells in
          let ns = List.fold_left (fun a (_, _, n) -> a + n) 0 cells in
          (Printf.sprintf "engine.%s.%s.minsns_per_s" mode p.F.name, rate insns ns)
          ::
          (if mode <> "blocks" then []
           else
             List.map
               (fun (f, i, n) -> (Printf.sprintf "sim.%s.%s.minsns_per_s" f p.F.name, rate i n))
               cells))
        F.ports)
    Workloads.modes

let gen_sweep ctx =
  let rng = Random.State.make [| ctx.seed; 2 |] in
  let tasks = List.concat_map (fun p -> fst (gen_tasks rng p)) F.ports in
  let groups =
    List.sort_uniq compare (List.map (fun t -> (t.client, t.tport)) tasks)
    |> List.map (fun (c, p) -> (c, p, List.filter (fun t -> t.client = c && t.tport = p) tasks))
  in
  let alloc = ref 0.0 and all_words = ref 0 in
  let rows =
    List.concat_map
      (fun (client, port, ts) ->
        let ns = ref 0 and words = ref 0 and rounds = ref 0 in
        run_for ~seconds:cell_s (fun () ->
            incr rounds;
            List.iter
              (fun t ->
                t.next ();
                let a0 = Gc.minor_words () in
                let w, dt = generate ctx t.kind t.gen in
                alloc := !alloc +. (Gc.minor_words () -. a0);
                ns := !ns + dt;
                words := !words + w)
              ts);
        List.iter (fun t -> request ctx k_generation client (fun () -> t.check ctx)) ts;
        all_words := !all_words + !words;
        let key m = Printf.sprintf "gen.%s.%s.%s" client port m in
        [
          (key "ns_per_insn", float_of_int !ns /. float_of_int (max 1 !words));
          (key "code_words", float_of_int !words /. float_of_int (max 1 !rounds));
        ])
      groups
  in
  ("gen.alloc_words_per_insn", !alloc /. float_of_int (max 1 !all_words)) :: rows

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

(* A latency quantile of one request type, ns: the median, over
   [lat_windows] consecutive windows of equal request count, of each
   window's quantile; fewer windows when a window would hold under
   [min_window] requests.  A few seconds of contention from other
   tenants of the host then move a few windows, not the estimate. *)
let lat_windows = 30
let min_window = 50

let windowed q (s : Samples.t) =
  let k = max 1 (min lat_windows (Samples.length s / min_window)) in
  let size = Samples.length s / k in
  median
    (List.init k (fun i ->
         let w = { Samples.a = Array.sub s.Samples.a (i * size) size; n = size } in
         List.hd (Samples.quantiles w [ q ])))

(* latency metrics over a mix of request types: the geometric mean over
   the types of each type's statistic, so that a shift between types
   near a percentile's rank cannot move it *)
let geomean_over ctx stat =
  match List.filter (fun s -> Samples.length s > 0) ctx.lats with
  | [] -> 0.0
  | ls -> exp (List.fold_left (fun acc s -> acc +. log (stat s)) 0.0 ls /. float_of_int (List.length ls))

let e2e_metrics ctx =
  (* a run too short for one full window reports its partial one *)
  if ctx.rates = [] && ctx.win_n > 0 then close_window ctx;
  [
    ("setup_s", median ctx.setup_s);
    ("ops_per_s", median ctx.rates);
    ("op_p50_us", geomean_over ctx (windowed 0.5) /. 1e3);
    ("op_p90_us", geomean_over ctx (windowed 0.9) /. 1e3);
    ("sim_minsns_per_s", median ctx.sim_rates);
    ("gen_ns_per_insn", median ctx.gen_rates);
    ("sim_cycles", float_of_int ctx.sim_cycles);
    ("code_words", float_of_int ctx.code_words);
    ( "peak_heap_mb",
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
  ]

(* every layer metric a workload may not touch, zero unless it does *)
let workload_layer_names =
  [
    "server.lookup.miss_ratio"; "server.capacity_evictions"; "arena.live_slabs";
    "arena.free_slabs"; "arena.bump_words"; "dpf.compile_share"; "queue.wait.p99_us";
    "queue.wait.max_us"; "queue.backlog_end";
  ]

let span_dists =
  [
    "server.lookup"; "server.install"; "server.evict"; "server.install_batch"; "engine.call_cold";
    "engine.call_warm";
  ]

let layer_metrics ctx =
  let dists =
    List.concat_map
      (fun name ->
        let s = Span.durations ctx.tr name in
        match Samples.quantiles s [ 0.5; 0.99 ] with
        | [ p50; p99 ] ->
          [
            (name ^ ".count", float_of_int (Samples.length s));
            (name ^ ".p50_ns", p50);
            (name ^ ".p99_ns", p99);
            (name ^ ".busy_s", Span.busy_s ctx.tr name);
          ]
        | _ -> assert false)
      span_dists
  in
  let c1 = cache_counters ctx.machines and c0 = ctx.caches0 in
  let miss h m =
    let h = c1.(h) - c0.(h) and m = c1.(m) - c0.(m) in
    if h + m = 0 then 0.0 else float_of_int m /. float_of_int (h + m)
  in
  let workload n = (n, Option.value ~default:0.0 (List.assoc_opt n ctx.layer)) in
  dists
  @ List.map workload workload_layer_names
  @ [
      ("machine.cache.icache.miss_ratio", miss 0 1);
      ("machine.cache.dcache.miss_ratio", miss 2 3);
    ]
  @ List.map (fun (layer, s) -> (layer ^ ".self_s", s)) (Span.self_by_layer ctx.tr)
  @ [
      ("trace.root_s", Span.root_s ctx.tr);
      ("trace.spans_dropped", float_of_int ctx.tr.Span.dropped);
    ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let write_json path ~meta ~attempted ~failed metrics =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": 1,\n";
  List.iter (fun (k, v) -> Printf.bprintf b "  %S: %s,\n" k v) meta;
  Printf.bprintf b "  \"attempted\": %d,\n  \"failed\": %d,\n  \"metrics\": {\n" attempted failed;
  let n = List.length metrics in
  List.iteri
    (fun i (k, v) -> Printf.bprintf b "    %S: %s%s\n" k (json_number v) (if i < n - 1 then "," else ""))
    metrics;
  Buffer.add_string b "  }\n}\n";
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b)

let workloads =
  [
    ("router-churn", router_churn);
    ("install-storm", install_storm);
    ("sim-hot", sim_hot);
    ("codegen", codegen);
  ]

let usage () =
  prerr_endline
    "usage: e2e.exe --workload W --seed N --seconds S --json OUT [--trace TRACE]\n\
    \       e2e.exe check SPEC RESULT [RESULT2]\n\
     workloads: router-churn install-storm sim-hot codegen";
  exit 2

let main args =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) in
  let json = ref "" and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: n :: rest ->
      seed := Option.value ~default:(-1) (int_of_string_opt n);
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := Option.value ~default:(-1.0) (float_of_string_opt s);
      parse rest
    | "--json" :: p :: rest ->
      json := p;
      parse rest
    | "--trace" :: p :: rest ->
      trace := Some p;
      parse rest
    | a :: _ ->
      Printf.eprintf "e2e: unexpected argument %S\n" a;
      usage ()
  in
  parse args;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      Printf.eprintf "e2e: unknown workload %S\n" !workload;
      usage ()
  in
  if !seed < 0 || !seconds < 0.0 || !json = "" then usage ();
  let tr = Span.create ~traced:(!trace <> None) in
  let ctx =
    {
      seed = !seed;
      seconds = !seconds;
      tr;
      attempted = 0;
      failed = 0;
      lats = [];
      win_ns = 0;
      win_n = 0;
      rates = [];
      sim_rates = [];
      gen_rates = [];
      guest_ns = 0;
      guest_insns = 0;
      gen_ns = 0;
      gen_words = 0;
      win_at = [| 0; 0; 0; 0 |];
      setup_s = [];
      sim_cycles = 0;
      code_words = 0;
      machines = [];
      caches0 = [||];
      layer = [];
    }
  in
  run ctx;
  Span.set_on tr false;
  let metrics = e2e_metrics ctx in
  let metrics =
    match !trace with
    | None -> metrics
    | Some path ->
      let layer = layer_metrics ctx in
      Span.write_trace tr ~meta:[ ("workload", !workload) ] path;
      metrics @ layer @ engine_sweep ctx @ gen_sweep ctx
  in
  List.iter (fun (k, v) -> Printf.printf "%-40s %s\n" k (json_number v)) metrics;
  Printf.printf "attempted %d, failed %d\n" ctx.attempted ctx.failed;
  let meta =
    [
      ("workload", Printf.sprintf "%S" !workload);
      ("seed", string_of_int !seed);
      ("seconds", json_number !seconds);
      ("traced", string_of_bool (!trace <> None));
      ("setups", string_of_int setups);
      ("profile", Printf.sprintf "%S" Build_info.profile);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
    ]
  in
  write_json !json ~meta ~attempted:ctx.attempted ~failed:ctx.failed metrics

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "check" :: spec :: (_ :: _ as results) -> exit (Check.run spec results)
  | args -> main args
