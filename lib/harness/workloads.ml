(* The shared port/workload/mode harness behind bin/vprof.exe,
   bin/vtrace.exe and bench/main.exe.

   Each tool used to carry its own copy of the same glue: four
   per-port adapter structs (create-with-config, install code, call,
   read counters) and the name tables mapping "mips"/"blocks"/
   "dpf-classify" strings to implementations.  This module is the one
   copy.  A port is a first-class module of type {!PORT}; the three
   evaluation workloads (the Table 3 DPF classifier, the Table 4 ASH
   pipeline, and the mixed-ALU loop the throughput benchmarks time)
   are set up by {!PORT.prepare}, which installs the generated code
   and returns a re-runnable closure plus the code regions for
   emit-site symbolization (see {!symbol_of}). *)

open Vcodebase
module Tel = Vmachine.Telemetry
module Trace = Vmachine.Trace
module Timeline = Vmachine.Timeline

let pkt_addr = 0x80000
let src_addr = 0x300000
let dst_addr = 0x312000

(* one generated-code span: [base, limit) bytes of simulated memory,
   plus the generator that emitted it (for {!Gen.prov_symbol}) *)
type code_region = {
  r_name : string;
  r_base : int;
  r_limit : int;
  r_gen : Gen.t;
}

type prepared = {
  run : unit -> unit; (* one full workload pass; re-runnable *)
  regions : code_region list;
  top : k:int -> (int * int * int * int) list;
      (* the router's [rt_top]; empty for the other workloads *)
}

(* The synthetic router: a {!Vserver.Server} registry of compiled DPF
   filters driven under churn.  Closures rather than a functor result
   so the CLI tools can hold one regardless of port. *)
type router = {
  rt_install : n:int -> batched:bool -> unit;
      (* install the next [n] keys; [batched] uses the scratch-buffer
         compile queue, otherwise one fresh buffer per filter *)
  rt_packets : n:int -> churn_every:int -> unit;
      (* demultiplex [n] packets against live filters (hot-skewed key
         choice, each classification checked against the installed
         fid); every [churn_every] packets the oldest filter is
         evicted and a fresh one installed in its place *)
  rt_live : unit -> int;
  rt_installs : unit -> int; (* filters ever installed *)
  rt_drops : unit -> int; (* lookups that missed (evicted keys) *)
  rt_sync : unit -> unit; (* push registry gauges into telemetry *)
  rt_top : k:int -> (int * int * int * int) list;
      (* hottest tenants by total classification time, descending:
         (key, packets, total_ns, max_ns).  Empty unless the router's
         sink is enabled. *)
}

(* ---- the external .asm corpus (workloads/*.asm, assembled by Vasm) ---- *)

let corpus_dirname = "workloads"

(* Search upward from the cwd: finds the repo-root [workloads/] when a
   tool runs via `dune exec`, and the copy the test stanza's glob deps
   materialize at _build/default/workloads when running under the
   runtest sandbox (cwd _build/default/test). *)
let corpus_dir () =
  let rec up dir n =
    let cand = Filename.concat dir corpus_dirname in
    if Sys.file_exists cand && Sys.is_directory cand then Some cand
    else
      let parent = Filename.dirname dir in
      if n > 8 || parent = dir then None else up parent (n + 1)
  in
  up (Sys.getcwd ()) 0

(* [(name, path)] for every corpus program, sorted by name *)
let corpus_programs () =
  match corpus_dir () with
  | None -> []
  | Some dir ->
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".asm")
    |> List.sort compare
    |> List.map (fun f -> (Filename.chop_suffix f ".asm", Filename.concat dir f))

(* a corpus program by name, or a direct path to a .asm file *)
let corpus_path name =
  if Filename.check_suffix name ".asm" && Sys.file_exists name then Some name
  else List.assoc_opt name (corpus_programs ())

let is_asm_workload name = String.length name > 4 && String.sub name 0 4 = "asm:"

let load_asm_image mem (img : Vasm.image) =
  Array.iteri (fun i w -> Vmachine.Mem.write_u32 mem (img.Vasm.base + (4 * i)) w) img.Vasm.words

let region name (c : Vcode.code) =
  { r_name = name; r_base = c.Vcode.base; r_limit = c.Vcode.base + c.Vcode.code_bytes;
    r_gen = c.Vcode.gen }

(* emit-site symbol for simulated address [pc]: find the covering
   generated region and ask its provenance table.  [None] when no
   region covers [pc] or its generator ran without provenance. *)
let symbol_of regions pc =
  let rec go = function
    | [] -> None
    | r :: rest ->
      if pc >= r.r_base && pc < r.r_limit then
        match Gen.prov_symbol r.r_gen ((pc - r.r_base) / 4) with
        | Some s -> Some (r.r_name ^ ":" ^ s)
        | None -> None
      else go rest
  in
  go regions

module type PORT = sig
  type m

  val name : string

  val create :
    ?cfg:Vmachine.Mconfig.t ->
    ?telemetry:Tel.t ->
    ?trace:Trace.t ->
    predecode:bool ->
    blocks:bool ->
    regions:bool ->
    unit ->
    m

  val mem : m -> Vmachine.Mem.t
  val insns : m -> int
  val cycles : m -> int
  val reset_stats : m -> unit
  val hot_blocks : limit:int -> m -> (int * int) list
  val disasm : word:int -> addr:int -> string
  val call_ints : ?fuel:int -> m -> entry:int -> int list -> int

  (** stale-translation injection (see {!Vmachine.Block_cache.alias}) *)
  val alias_block : m -> at:int -> from:int -> bool

  (** resident translations per tier: [(blocks, regions)] — cheap
      reads, safe as {!Timeline} gauges *)
  val resident : m -> int * int

  (** a fresh router over [m]'s memory; [max_live] caps resident
      filters (capacity evictions past it); [arena_slabs] sizes the
      code window to that many 128-word slabs (the single-filter slab
      class), the lever for driving the registry at capacity.
      [timeline] receives the registry/arena/engine gauges and one
      tick per packet; [tel] additionally gets the per-packet
      [router.classify_ns] distribution and the per-tenant table
      behind [rt_top]. *)
  val router :
    ?tel:Tel.t ->
    ?timeline:Timeline.t ->
    ?fuel:int ->
    ?max_live:int ->
    ?arena_slabs:int ->
    m ->
    router

  (** generate + install the named workload's code into [m]; [iters]
      is baked into the returned closure.  [tel] receives the
      generation-cost note ({!Tel.note_gen}); [provenance] runs the
      generators with emit-site provenance tables on.  [timeline]
      receives the engine gauges (the router adds its registry
      gauges) and one tick per unit of work: a packet on the router,
      a [run] call otherwise. *)
  val prepare :
    ?tel:Tel.t ->
    ?timeline:Timeline.t ->
    ?provenance:bool ->
    ?fuel:int ->
    m ->
    workload:string ->
    iters:int ->
    prepared
end

(* the per-simulator surface [Make_port] needs: the shared engine
   machine plus the port's calling convention, whose integer argument
   constructor is named where the port is applied *)
module type SIM = sig
  include Vmachine.Engine.S

  type arg

  val int : int -> arg
  val call : ?fuel:int -> t -> entry:int -> arg list -> unit
  val ret_int : t -> int
end

module Make_port (T : Target.S) (S : SIM) : PORT = struct
  module V = Vcode.Make (T)
  module DP = Dpf.Make (T)
  module ASH = Ash.Make (T)
  module SV = Vserver.Server.Make (T)

  type m = S.t

  let name = T.desc.Machdesc.name

  let create ?(cfg = Vmachine.Mconfig.dec5000) ?telemetry ?trace ~predecode ~blocks ~regions () =
    S.create ?telemetry ?trace ~predecode ~blocks ~regions cfg

  let mem (m : m) = m.S.mem
  let insns (m : m) = m.S.insns
  let cycles (m : m) = m.S.cycles
  let reset_stats = S.reset_stats
  let hot_blocks ~limit (m : m) = Vmachine.Block_cache.hot_blocks ~limit m.S.bc
  let disasm = T.disasm

  let call_ints ?fuel m ~entry vals =
    S.call ?fuel m ~entry (List.map S.int vals);
    S.ret_int m

  let alias_block (m : m) ~at ~from = Vmachine.Block_cache.alias m.S.bc ~at ~from

  let resident (m : m) =
    (Vmachine.Block_cache.resident_count m.S.bc, Vmachine.Region_cache.resident_count m.S.rc)

  (* the mixed-ALU loop the throughput benchmarks time *)
  let gen_loop () =
    let g, args = V.lambda ~base:0x10000 ~leaf:true "%i" in
    let open V.Names in
    let acc = V.getreg_exn g ~cls:`Temp Vtype.I in
    let i = V.getreg_exn g ~cls:`Temp Vtype.I in
    seti g acc 0;
    seti g i 0;
    let top = V.genlabel g and out = V.genlabel g in
    V.label g top;
    bgei g i args.(0) out;
    addi g acc acc i;
    orii g acc acc 3;
    addii g i i 1;
    jv g top;
    V.label g out;
    reti g acc;
    V.end_gen g

  (* The region-friendly nested loop: the 64-iteration inner loop's
     body is a chain of one-operation stages linked by direct jumps —
     the dispatch-dominated shape tier 3 targets, since in tier 2
     every jump edge costs a full block dispatch while a region fuses
     the chain and (the jumps' targets being static) crosses each edge
     for free — plus one biased conditional stage whose rare arm,
     taken once per inner loop (j = 43), exercises branch-direction
     specialization and side exits; [args.(0)] is the outer count. *)
  let gen_region_loop () =
    let g, args = V.lambda ~base:0x10000 ~leaf:true "%i" in
    let open V.Names in
    let acc = V.getreg_exn g ~cls:`Temp Vtype.I in
    let i = V.getreg_exn g ~cls:`Temp Vtype.I in
    let j = V.getreg_exn g ~cls:`Temp Vtype.I in
    let t = V.getreg_exn g ~cls:`Temp Vtype.I in
    seti g acc 0;
    seti g i 0;
    let outer = V.genlabel g and inner = V.genlabel g and out = V.genlabel g in
    V.label g outer;
    bgei g i args.(0) out;
    seti g j 0;
    V.label g inner;
    let stage op =
      let next = V.genlabel g in
      op ();
      jv g next;
      V.label g next
    in
    stage (fun () -> addi g acc acc j);
    stage (fun () -> xorii g acc acc 33);
    stage (fun () -> addii g acc acc 7);
    (* biased conditional: (j + 21) land 63 = 0 only at j = 43 *)
    let skip = V.genlabel g in
    addii g t j 21;
    andii g t t 63;
    bneii g t 0 skip;
    addii g acc acc 77;
    V.label g skip;
    stage (fun () -> orii g acc acc 9);
    stage (fun () -> xorii g acc acc 57);
    addii g j j 1;
    bltii g j 64 inner;
    addii g i i 1;
    jv g outer;
    V.label g out;
    reti g acc;
    V.end_gen g

  let install m (c : Vcode.code) =
    Vmachine.Mem.install_code (mem m) ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

  let engine_gauges ~tel ~timeline m =
    Timeline.gauge timeline "engine.blocks.resident" (fun () -> fst (resident m));
    Timeline.gauge timeline "engine.regions.resident" (fun () -> snd (resident m));
    Timeline.gauge timeline "tel.events_seen" (fun () -> Tel.events_seen tel)

  (* The router workload.  Keys are monotonic endpoint ids; the live
     set is the sliding window [oldest, next_key).  Each packet picks a
     key (skewed 3:1 toward the newest quarter — new connections are
     hot), pokes that key's destination port into the resident packet
     header, looks the filter up and runs it; the classification must
     return the installed fid, which is what makes every packet an
     oracle against stale translations at reused slab addresses. *)
  let router ?(tel = Tel.disabled) ?(timeline = Timeline.disabled) ?fuel ?max_live
      ?arena_slabs m =
    let mem = mem m in
    let arena_base = 0x100000 in
    let arena_limit =
      Option.map (fun n -> arena_base + (4 * 128 * n)) arena_slabs
    in
    let sv = SV.create ~tel ?max_live ~arena_base ?arena_limit mem in
    (* timeline gauges: registry occupancy + arena free lists from the
       server, per-tier resident translations and the event-ring total
       from the engine.  One tick per packet (below), so counter
       tracks plot against the packet ordinal. *)
    List.iter (fun (n, f) -> Timeline.gauge timeline n f) (SV.gauge_sources sv);
    engine_gauges ~tel ~timeline m;
    Dpf.Packet.install mem ~addr:pkt_addr (Dpf.Packet.tcp ());
    let next_key = ref 0 and oldest = ref 0 and drops = ref 0 in
    let tel_on = Tel.is_enabled tel in
    let d_classify = Tel.dist tel "router.classify_ns" in
    (* per-tenant attribution: key -> [| packets; total_ns; max_ns |].
       Only maintained when the sink is enabled, so the disabled
       packet loop stays allocation-free. *)
    let tstats : (int, int array) Hashtbl.t = Hashtbl.create (if tel_on then 256 else 1) in
    let note_tenant k dt =
      match Hashtbl.find_opt tstats k with
      | Some c ->
        c.(0) <- c.(0) + 1;
        c.(1) <- c.(1) + dt;
        if dt > c.(2) then c.(2) <- dt
      | None -> Hashtbl.add tstats k [| 1; dt; dt |]
    in
    (* dst_port is a 16-bit field: fold keys into [1000, 61000) *)
    let port_of_key k = 1000 + (k mod 60000) in
    let filter_of_key k =
      Dpf.Filter.tcpip_session ~fid:k ~dst_ip:0x0A000001 ~dst_port:(port_of_key k)
    in
    (* deterministic LCG so runs are reproducible across hosts *)
    let rng = ref 0x2545F491 in
    let rand bound =
      rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
      !rng mod bound
    in
    let rt_install ~n ~batched =
      let k0 = !next_key in
      next_key := k0 + n;
      if batched then begin
        (* drain the queue in bounded chunks: one monolithic 10k-pair
           list would stay live across every minor collection the
           compiles trigger, and re-scanning it costs more than the
           scratch buffer saves *)
        let chunk = 256 in
        let k = ref k0 in
        while !k < k0 + n do
          let c = min chunk (k0 + n - !k) in
          let b = !k in
          SV.install_batch sv (List.init c (fun i -> (b + i, filter_of_key (b + i))));
          k := b + c
        done
      end
      else
        for k = k0 to k0 + n - 1 do
          ignore (SV.install sv ~key:k (filter_of_key k) : int)
        done
    in
    let rt_packets ~n ~churn_every =
      for i = 1 to n do
        let span = !next_key - !oldest in
        if span <= 0 then invalid_arg "router: no filters installed";
        let k =
          if !oldest > 0 && rand 16 = 0 then rand !oldest (* an evicted endpoint *)
          else if rand 4 < 3 then !next_key - 1 - rand (max 1 (span / 4))
          else !oldest + rand span
        in
        let port = port_of_key k in
        Vmachine.Mem.write_u8 mem (pkt_addr + 22) ((port lsr 8) land 0xff);
        Vmachine.Mem.write_u8 mem (pkt_addr + 23) (port land 0xff);
        (* the classification match is duplicated rather than bound to
           a closure: a per-packet closure would allocate even with
           telemetry off *)
        (if tel_on then begin
           let t0 = Tel.now_ns () in
           (match SV.lookup sv k with
           | None -> incr drops
           | Some entry ->
             let got = call_ints ?fuel m ~entry [ pkt_addr; 40 ] in
             if got <> k then
               Printf.ksprintf failwith "router: packet for key %d classified as %d" k got);
           let dt = Tel.now_ns () - t0 in
           let dt = if dt < 0 then 0 else dt in
           Tel.observe tel d_classify dt;
           note_tenant k dt
         end
         else
           match SV.lookup sv k with
           | None -> incr drops
           | Some entry ->
             let got = call_ints ?fuel m ~entry [ pkt_addr; 40 ] in
             if got <> k then
               Printf.ksprintf failwith "router: packet for key %d classified as %d" k got);
        Timeline.tick timeline;
        if churn_every > 0 && i mod churn_every = 0 then begin
          ignore (SV.evict sv !oldest : bool);
          incr oldest;
          let k' = !next_key in
          incr next_key;
          SV.install_batch sv [ (k', filter_of_key k') ]
        end
      done
    in
    {
      rt_install;
      rt_packets;
      rt_live = (fun () -> SV.live sv);
      rt_installs = (fun () -> (SV.stats sv).SV.installs);
      rt_drops = (fun () -> !drops);
      rt_sync = (fun () -> SV.sync_gauges sv);
      rt_top =
        (fun ~k ->
          Hashtbl.fold (fun key c acc -> (key, c.(0), c.(1), c.(2)) :: acc) tstats []
          |> List.sort (fun (ka, _, ta, _) (kb, _, tb, _) ->
                 if ta <> tb then compare tb ta else compare ka kb)
          |> List.filteri (fun i _ -> i < k));
    }

  let no_top ~k:_ = []

  let prepare_workload ~tel ~timeline ~provenance ?fuel m ~workload ~iters =
    (* the generators create their own [Gen.t]s behind [lambda], so
       provenance is requested through the process-wide default; it is
       restored before any simulated code runs *)
    let generate f =
      if not provenance then f ()
      else begin
        Gen.set_provenance_default true;
        Fun.protect ~finally:(fun () -> Gen.set_provenance_default false) f
      end
    in
    match workload with
    | "dpf-classify" ->
      (* the Table 3 fixture: ten TCP/IP session filters, packets
         destined uniformly to each *)
      let c =
        generate (fun () ->
            DP.compile ~base:0x1000 ~table_base:0x200000 (Dpf.Filter.tcpip_filters 10))
      in
      Tel.note_gen tel ~prefix:"dpf" c.Dpf.code.Vcode.gen;
      install m c.Dpf.code;
      DP.install_tables (mem m) c;
      let run () =
        for k = 0 to iters - 1 do
          let port = 1000 + (k mod 10) in
          Dpf.Packet.install (mem m) ~addr:pkt_addr (Dpf.Packet.tcp ~dst_port:port ());
          if call_ints ?fuel m ~entry:c.Dpf.entry [ pkt_addr; 40 ] <> port - 1000 then
            failwith "dpf-classify: misclassified packet"
        done
      in
      { run; regions = [ region "dpf" c.Dpf.code ]; top = no_top }
    | "table4-ash" ->
      (* the Table 4 fixture: the dynamically composed copy+checksum
         pipeline over 8KB; [iters] scales the number of passes *)
      let code = generate (fun () -> ASH.gen_ash ~base:0x8000 [ Ash.Copy; Ash.Checksum ]) in
      Tel.note_gen tel ~prefix:"ash" code.Vcode.gen;
      install m code;
      let nwords = 2048 in
      let data = Bytes.init (4 * nwords) (fun i -> Char.chr ((i * 131) land 0xff)) in
      Vmachine.Mem.blit_bytes (mem m) ~addr:src_addr data;
      let run () =
        for _ = 1 to max 1 (iters / 250) do
          ignore (call_ints ?fuel m ~entry:code.Vcode.entry_addr [ dst_addr; src_addr; nwords ])
        done
      in
      { run; regions = [ region "ash" code ]; top = no_top }
    | "alu-loop" ->
      let code = generate gen_loop in
      Tel.note_gen tel ~prefix:"loop" code.Vcode.gen;
      install m code;
      let run () = ignore (call_ints ?fuel m ~entry:code.Vcode.entry_addr [ iters ]) in
      { run; regions = [ region "loop" code ]; top = no_top }
    | "region-loop" ->
      (* [iters] counts inner-loop iterations like alu-loop, so the
         bench's insns/sec rates are comparable across workloads *)
      let code = generate gen_region_loop in
      Tel.note_gen tel ~prefix:"rloop" code.Vcode.gen;
      install m code;
      let outer = max 1 (iters / 64) in
      let run () = ignore (call_ints ?fuel m ~entry:code.Vcode.entry_addr [ outer ]) in
      { run; regions = [ region "rloop" code ]; top = no_top }
    | "router" ->
      (* registry churn fixture: [iters] packets over a filter table
         sized to the packet count (16..4096 filters), one churn
         (evict oldest + install fresh) every 32 packets *)
      let r = router ~tel ~timeline ?fuel m in
      let nf = max 16 (min 4096 (iters / 4)) in
      Timeline.sample_now timeline; (* baseline row before any install *)
      r.rt_install ~n:nf ~batched:true;
      let run () =
        r.rt_packets ~n:iters ~churn_every:32;
        r.rt_sync ()
      in
      { run; regions = []; top = r.rt_top }
    | w when is_asm_workload w ->
      (* an external corpus program: assemble with Vasm, load the word
         image, and call [main] with [iters] as the single argument —
         the program's own convention is to return a checksum in the
         result register (bit-identity across modes is pinned by
         test/test_corpus.ml) *)
      let prog = String.sub w 4 (String.length w - 4) in
      if name <> "mips" then
        Printf.ksprintf failwith
          "asm workload %S: corpus programs are MIPS assembly (port %s cannot run them)" prog
          name;
      let path =
        match corpus_path prog with
        | Some p -> p
        | None -> Printf.ksprintf failwith "asm workload %S: no such corpus program" prog
      in
      let img =
        match Vasm.assemble_file path with
        | Ok img -> img
        | Error d -> Printf.ksprintf failwith "%s:%s" path (Vasm.diag_to_string d)
      in
      load_asm_image (mem m) img;
      let run () = ignore (call_ints ?fuel m ~entry:img.Vasm.entry [ iters ] : int) in
      { run; regions = []; top = no_top }
    | w -> Printf.ksprintf failwith "unknown workload %S" w

  let prepare ?(tel = Tel.disabled) ?(timeline = Timeline.disabled) ?(provenance = false) ?fuel
      m ~workload ~iters =
    if workload = "router" || not (Timeline.is_enabled timeline) then
      prepare_workload ~tel ~timeline ~provenance ?fuel m ~workload ~iters
    else begin
      engine_gauges ~tel ~timeline m;
      let p = prepare_workload ~tel ~timeline ~provenance ?fuel m ~workload ~iters in
      { p with run = (fun () -> p.run (); Timeline.tick timeline) }
    end
end

(* the four simulators as [SIM]s (also used by the test harnesses) *)
module Sims = struct
  module Mips = struct include Vmips.Mips_sim let int v = Int v end
  module Sparc = struct include Vsparc.Sparc_sim let int v = Int v end
  module Alpha = struct include Valpha.Alpha_sim let int v = Int v end
  module Ppc = struct include Vppc.Ppc_sim let int v = Int v end
end

module Mips_port = Make_port (Vmips.Mips_backend) (Sims.Mips)
module Sparc_port = Make_port (Vsparc.Sparc_backend) (Sims.Sparc)
module Alpha_port = Make_port (Valpha.Alpha_backend) (Sims.Alpha)
module Ppc_port = Make_port (Vppc.Ppc_backend) (Sims.Ppc)

(* ------------------------------------------------------------------ *)
(* Name tables — the single copy of the CLI vocabulary                 *)

let ports : (string * (module PORT)) list =
  [
    ("mips", (module Mips_port));
    ("sparc", (module Sparc_port));
    ("alpha", (module Alpha_port));
    ("ppc", (module Ppc_port));
  ]

(* mode name -> (predecode, blocks, regions): the four-tier ladder *)
let modes =
  [
    ("off", (false, false, false));
    ("predecode", (true, false, false));
    ("blocks", (true, true, false));
    ("regions", (true, true, true));
  ]

let workload_names = [ "dpf-classify"; "table4-ash"; "alu-loop"; "region-loop"; "router" ]
let port_names = List.map fst ports
let mode_names = List.map fst modes
let find_port name = List.assoc_opt name ports
let mode_flags name = List.assoc_opt name modes

(* resolve-or-die helpers for the command-line tools; [tool] prefixes
   the error message *)
let port_exn ~tool name =
  match find_port name with
  | Some p -> p
  | None ->
    Printf.eprintf "%s: unknown port %S (%s)\n" tool name (String.concat "|" port_names);
    exit 1

let mode_exn ~tool name =
  match mode_flags name with
  | Some f -> f
  | None ->
    Printf.eprintf "%s: unknown mode %S (%s)\n" tool name (String.concat "|" mode_names);
    exit 1

let workload_exn ~tool (module P : PORT) name =
  if List.mem name workload_names then name
  else if is_asm_workload name then begin
    (* validate the corpus program and its port now for a located CLI
       error rather than a failwith out of [prepare] *)
    let prog = String.sub name 4 (String.length name - 4) in
    match corpus_path prog with
    | Some _ when P.name <> "mips" ->
      Printf.eprintf "%s: corpus program %S is MIPS assembly; port %s cannot run it\n" tool
        prog P.name;
      exit 1
    | Some _ -> name
    | None ->
      Printf.eprintf "%s: unknown corpus program %S (available: %s)\n" tool prog
        (match corpus_programs () with
        | [] -> "none — no workloads/ directory found"
        | ps -> String.concat "|" (List.map fst ps));
      exit 1
  end
  else begin
    Printf.eprintf "%s: unknown workload %S (%s|asm:NAME)\n" tool name
      (String.concat "|" workload_names);
    exit 1
  end
