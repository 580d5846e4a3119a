(* The four ports as the benchmark drives them: a simulated machine per
   engine mode, every client generator instantiated for the port's
   backend, the seeded fixture inputs, and the independent oracles the
   outputs are checked against.

   Machines are built from the simulators directly rather than through
   the Workloads port adapters, whose signature hides the modelled
   icache and dcache that the machine.cache metrics read. *)

open Vcodebase
module Mem = Vmachine.Mem

type machine = {
  mem : Mem.t;
  call : int -> int list -> int; (* entry, integer args -> integer result *)
  insns : unit -> int;
  cycles : unit -> int;
  icache : Vmachine.Cache.t;
  dcache : Vmachine.Cache.t;
}

let install m (c : Vcode.code) = Mem.install_code m.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

let write_words m addr words =
  Array.iteri (fun i w -> Mem.write_u32 m.mem (addr + (4 * i)) (w land 0xFFFFFFFF)) words

(* generated words of a code object, the unit of [code_words] *)
let words (c : Vcode.code) = c.Vcode.code_bytes / 4

(* ---- memory layout shared by every fixture machine ---- *)

let dpf_base = 0x10000
let ash_base = 0x20000
let jit_base = 0x30000
let pf_base = 0x40000 (* tcc-compiled PATHFINDER *)
let interp_base = 0x50000 (* tcc-compiled bytecode interpreter *)
let body_base = 0x58000
let tcc_data = 0x68000 (* tcc globals *)
let body_data = 0x70000
let pkt_addr = 0x80000
let image_addr = 0x90000 (* bytecode image *)
let trie_addr = 0xA0000
let asm_base = [ ("josephus", 0xC0000); ("sort", 0xC8000); ("fib", 0xD0000) ]
let table_base = 0x200000 (* DPF dispatch tables *)
let src_addr = 0x300000
let dst_addr = 0x312000 (* distinct cache sets from src *)

(* ---- ports ---- *)

type tcc_unit = { funcs : Vcode.code list; entry : string -> int }

type port = {
  name : string;
  big_endian : bool;
  machine : Vmachine.Mconfig.t -> bool * bool * bool -> machine;
  dpf : Dpf.Filter.t list -> Dpf.compiled; (* at [dpf_base], tables at [table_base] *)
  ash : Ash.op list -> Vcode.code; (* at [ash_base] *)
  jit : Vmjit.program -> Vcode.code; (* at [jit_base] *)
  tcc : base:int -> string -> tcc_unit; (* globals at [tcc_data] *)
  body : unit -> Vcode.code; (* at [body_base] *)
}

let insns_per_body = 200

module Clients (T : Target.S) = struct
  module V = Vcode.Make (T)
  module DP = Dpf.Make (T)
  module ASH = Ash.Make (T)
  module J = Vmjit.Jit (T)
  module TC = Tcc.Tcc_compile.Make (T)

  let dpf filters = DP.compile ~base:dpf_base ~table_base filters
  let jit prog = J.translate ~base:jit_base prog

  let tcc ~base src =
    let p = TC.compile ~base ~data_base:tcc_data src in
    { funcs = List.map snd p.TC.funcs; entry = TC.entry p }

  (* the codegen-cost fixture of bench/main.ml: a 200-instruction
     ALU/load/store mix through the checked emitters *)
  let body () =
    let g, args = V.lambda ~base:body_base ~leaf:true ~capacity:320 "%i%i%p" in
    let r0 = args.(0) and r1 = args.(1) and p = args.(2) in
    for _ = 1 to insns_per_body / 8 do
      V.arith_imm g Op.Add Vtype.I r0 r0 1;
      V.arith g Op.Add Vtype.I r1 r1 r0;
      V.arith_imm g Op.Lsh Vtype.I r0 r0 2;
      V.arith g Op.Xor Vtype.I r0 r0 r1;
      V.load_imm g Vtype.I r1 p 0;
      V.store_imm g Vtype.I r0 p 4;
      V.arith g Op.Sub Vtype.I r0 r0 r1;
      V.arith_imm g Op.Or Vtype.I r1 r1 255
    done;
    V.Names.reti g r0;
    V.end_gen g
end

let port (module T : Target.S) machine =
  let module C = Clients (T) in
  {
    name = T.desc.Machdesc.name;
    big_endian = T.desc.Machdesc.big_endian;
    machine;
    dpf = C.dpf;
    ash = C.ASH.gen_ash ~base:ash_base;
    jit = C.jit;
    tcc = C.tcc;
    body = C.body;
  }

let mips =
  port (module Vmips.Mips_backend) (fun cfg (predecode, blocks, regions) ->
      let module S = Vmips.Mips_sim in
      let m = S.create ~predecode ~blocks ~regions cfg in
      {
        mem = m.S.mem;
        call = (fun entry args -> S.call m ~entry (List.map (fun v -> S.Int v) args); S.ret_int m);
        insns = (fun () -> m.S.insns);
        cycles = (fun () -> m.S.cycles);
        icache = m.S.icache;
        dcache = m.S.dcache;
      })

let sparc =
  port (module Vsparc.Sparc_backend) (fun cfg (predecode, blocks, regions) ->
      let module S = Vsparc.Sparc_sim in
      let m = S.create ~predecode ~blocks ~regions cfg in
      {
        mem = m.S.mem;
        call = (fun entry args -> S.call m ~entry (List.map (fun v -> S.Int v) args); S.ret_int m);
        insns = (fun () -> m.S.insns);
        cycles = (fun () -> m.S.cycles);
        icache = m.S.icache;
        dcache = m.S.dcache;
      })

let alpha =
  port (module Valpha.Alpha_backend) (fun cfg (predecode, blocks, regions) ->
      let module S = Valpha.Alpha_sim in
      let m = S.create ~predecode ~blocks ~regions cfg in
      {
        mem = m.S.mem;
        call = (fun entry args -> S.call m ~entry (List.map (fun v -> S.Int v) args); S.ret_int m);
        insns = (fun () -> m.S.insns);
        cycles = (fun () -> m.S.cycles);
        icache = m.S.icache;
        dcache = m.S.dcache;
      })

let ppc =
  port (module Vppc.Ppc_backend) (fun cfg (predecode, blocks, regions) ->
      let module S = Vppc.Ppc_sim in
      let m = S.create ~predecode ~blocks ~regions cfg in
      {
        mem = m.S.mem;
        call = (fun entry args -> S.call m ~entry (List.map (fun v -> S.Int v) args); S.ret_int m);
        insns = (fun () -> m.S.insns);
        cycles = (fun () -> m.S.cycles);
        icache = m.S.icache;
        dcache = m.S.dcache;
      })

let ports = [ mips; sparc; alpha; ppc ]

(* End-to-end runs use the blocks tier, every simulator's default. *)
let blocks = List.assoc "blocks" Workloads.modes

(* ---- seeded inputs ---- *)

let u32 x = x land 0xFFFFFFFF

(* [n] distinct 16-bit destination ports *)
let distinct_ports rng n =
  let seen = Hashtbl.create n in
  let rec draw () =
    let p = 1 + Random.State.int rng 65535 in
    if Hashtbl.mem seen p then draw ()
    else begin
      Hashtbl.add seen p ();
      p
    end
  in
  List.init n (fun _ -> draw ())

let dst_ip = 0x0A000001

let filter_set ports = List.mapi (fun fid port -> Dpf.Filter.tcpip_session ~fid ~dst_ip ~dst_port:port) ports

let write_packet m ~port = Dpf.Packet.install m.mem ~addr:pkt_addr (Dpf.Packet.tcp ~dst_port:port ())
let packet_len = 40

(* The vmjit fixture: acc = sum over i < n of (i * c1 + c2), constants
   drawn from the seed and burned into the translated code. *)
let jit_program ~c1 ~c2 =
  Vmjit.(
    assemble
      [
        Push 0; Store 1; Push 0; Store 2;
        Label `Loop;
        Load 2; Load 0; Lt; Jz `End;
        Load 1; Load 2; Push c1; Mul; Add; Push c2; Add; Store 1;
        Load 2; Push 1; Add; Store 2;
        Jmp `Loop;
        Label `End;
        Load 1; Ret;
      ])

(* 8 KB of seeded message data for the ASH pipelines *)
let ash_words = 2048
let ash_data rng = Bytes.init (4 * ash_words) (fun _ -> Char.chr (Random.State.int rng 256))

(* ---- independent oracles ---- *)

(* OCaml mirrors of the corpus programs' arithmetic (test_corpus.ml) *)
let josephus_oracle n_max =
  let v = ref 0 in
  for n = 1 to n_max do
    let f = ref 0 in
    for i = 2 to n do
      f := (!f + 3) mod i
    done;
    v := u32 ((!v lxor !f) + (!f lsl 1))
  done;
  !v

let fib_oracle n =
  let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) in
  fib (min n 20)

let sort_oracle n =
  let n = min n 256 in
  let a = Array.make n 0 in
  let s = ref 12345 in
  for i = 0 to n - 1 do
    s := u32 ((!s * 1103515245) + 12345);
    a.(i) <- !s land 0xFFFF
  done;
  Array.sort compare a;
  let v = ref 0 in
  for i = 0 to n - 1 do
    v := u32 ((!v lxor a.(i)) + i)
  done;
  !v

let corpus_oracle = function
  | "josephus" -> josephus_oracle
  | "fib" -> fib_oracle
  | "sort" -> sort_oracle
  | name -> invalid_arg name

(* the 200-insn body's result, low 32 bits; [p0] is the word at p *)
let body_oracle ~r0 ~r1 ~p0 =
  let r0 = ref r0 and r1 = ref r1 in
  for _ = 1 to insns_per_body / 8 do
    r0 := !r0 + 1;
    r1 := !r1 + !r0;
    r0 := !r0 lsl 2;
    r0 := !r0 lxor !r1;
    r1 := p0;
    r0 := !r0 - !r1;
    r1 := !r1 lor 255
  done;
  u32 !r0

let corpus_source name =
  match Workloads.corpus_path name with
  | Some path -> In_channel.with_open_bin path In_channel.input_all
  | None -> failwith ("corpus program not found: " ^ name ^ " (run from the repository root)")
