(* DPF tests: trie construction, the dynamically compiled classifier,
   and the MPF/PATHFINDER interpreter baselines — all checked against
   the OCaml reference semantics, plus the Table 3 cycle ordering. *)

module D = Dpf.Make (Vmips.Mips_backend)
module C = Tcc.Tcc_compile.Make (Vmips.Mips_backend)
module Sim = Vmips.Mips_sim
module Filter = Dpf.Filter
module Trie = Dpf.Trie
module Packet = Dpf.Packet

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let pkt_addr = 0x80000
let prog_addr = 0x100000

(* ------------------------------------------------------------------ *)
(* Random filters/packets for differential testing                     *)

let alphabet = [| 0x00; 0x01; 0x45; 0x06 |]

let random_byte st = alphabet.(QCheck.Gen.int_bound 3 st)

let gen_atom st : Filter.atom =
  let size = [| 1; 2; 4 |].(QCheck.Gen.int_bound 2 st) in
  let slot = QCheck.Gen.int_bound (48 / size - 1) st in
  let offset = slot * size in
  let rec bytes k acc = if k = 0 then acc else bytes (k - 1) ((acc lsl 8) lor random_byte st) in
  let value = bytes size 0 in
  let mask =
    if QCheck.Gen.bool st then (1 lsl (8 * size)) - 1
    else if size = 1 then 0x0F
    else (1 lsl (8 * size)) - 0x100
  in
  Filter.Cmp { offset; size; mask; value = value land mask }

let gen_filter fid st : Filter.t =
  let n = 1 + QCheck.Gen.int_bound 3 st in
  Filter.make ~fid (List.init n (fun _ -> gen_atom st))

let gen_filters st =
  let n = 1 + QCheck.Gen.int_bound 6 st in
  List.init n (fun i -> gen_filter i st)

let gen_packet st : Bytes.t =
  let len = 48 + (4 * QCheck.Gen.int_bound 4 st) in
  Bytes.init len (fun _ -> Char.chr (random_byte st))

let filters_and_packets =
  QCheck.make
    ~print:(fun (fs, ps) ->
      Printf.sprintf "%d filters, %d packets" (List.length fs) (List.length ps))
    QCheck.Gen.(
      pair gen_filters (list_size (int_range 1 8) gen_packet))

(* ------------------------------------------------------------------ *)
(* Trie semantics                                                      *)

let prop_trie_matches_filters =
  QCheck.Test.make ~name:"trie classification == first-match semantics" ~count:300
    filters_and_packets
    (fun (filters, pkts) ->
      let trie = Trie.of_filters filters in
      List.for_all
        (fun pkt -> Trie.classify trie pkt = Filter.classify filters pkt)
        pkts)

let test_trie_sharing () =
  (* ten TCP/IP session filters share a 3-atom prefix and one switch *)
  let filters = Filter.tcpip_filters 10 in
  let trie = Trie.of_filters filters in
  check Alcotest.int "switch width" 10 (Trie.max_switch_width trie);
  (* 3 Seq + 1 Switch + 10 Leafs = 14 nodes, far fewer than 10*4 atoms *)
  check Alcotest.int "nodes" 14 (Trie.count_nodes trie)

(* The list-based trie builder that the linear one replaced, kept as
   its reference: [Trie.build] must give a structurally equal trie. *)
module Old_trie = struct
  open Trie

  let rec split_while p = function
    | x :: rest when p x ->
      let yes, no = split_while p rest in
      (x :: yes, no)
    | l -> ([], l)

  let head_atom (atoms, _) = match atoms with a :: _ -> Some a | [] -> None

  let rec build (filters : (Filter.atom list * int) list) : t =
    match filters with
    | [] -> Fail
    | ([], fid) :: _ -> Leaf fid
    | (a0 :: _, _) :: _ -> (
      let run, rest =
        split_while
          (fun f ->
            match head_atom f with
            | Some a -> a = a0 || Filter.same_field a a0
            | None -> false)
          filters
      in
      let strip = function
        | a :: r, fid -> (a, (r, fid))
        | [], _ -> assert false
      in
      let node =
        if List.for_all (fun f -> match head_atom f with Some a -> a = a0 | None -> false) run
        then Seq (a0, build (List.map (fun f -> snd (strip f)) run))
        else begin
          let field = field_of_atom a0 in
          let groups : (int * (Filter.atom list * int) list ref) list ref = ref [] in
          List.iter
            (fun f ->
              let a, restf = strip f in
              let v = Filter.cmp_value a in
              match List.assoc_opt v !groups with
              | Some cell -> cell := restf :: !cell
              | None -> groups := !groups @ [ (v, ref [ restf ]) ])
            run;
          Switch (field, List.map (fun (v, cell) -> (v, build (List.rev !cell))) !groups)
        end
      in
      match rest with [] -> node | _ -> Alt (node, build rest))
end

(* filters over a few fields and few values, so that runs share fields,
   values repeat and fields interleave; about one atom in six a Shift *)
let gen_dense_filters st =
  let int = QCheck.Gen.int_bound in
  let atom () : Filter.atom =
    let offset = [| 0; 2; 9 |].(int 2 st) and size = [| 1; 2 |].(int 1 st) in
    if int 5 st = 0 then Filter.Shift { offset; size; mask = 0x0F; shift = int 2 st }
    else
      let mask = if int 3 st = 0 then 0x0F else 0xFF in
      Filter.Cmp { offset; size; mask; value = int 3 st land mask }
  in
  List.init (1 + int 39 st) (fun fid -> Filter.make ~fid (List.init (int 4 st) (fun _ -> atom ())))

let prop_trie_equals_old_builder =
  QCheck.Test.make ~name:"trie == old list-based builder" ~count:1000
    (QCheck.make ~print:(fun fs -> Printf.sprintf "%d filters" (List.length fs)) gen_dense_filters)
    (fun filters ->
      Trie.of_filters filters
      = Old_trie.build (List.map (fun (f : Filter.t) -> (f.Filter.atoms, f.Filter.fid)) filters))

(* The hash search that the allocation-free one replaced, kept as its
   reference: the same (size, mult, shift) must come out. *)
let old_find_perfect_hash (values : int list) : (int * int * int) option =
  let n = List.length values in
  let sizes = List.filter (fun s -> s >= n) [ 16; 32; 64; 128; 256 ] in
  let mults = [ 0x9E3779B1; 0x85EBCA6B; 0xC2B2AE35; 0x27220A95 ] in
  let u32 v = v land 0xFFFFFFFF in
  let try_one size mult shift =
    let seen = Hashtbl.create 32 in
    List.for_all
      (fun v ->
        let h = (u32 (u32 v * mult) lsr shift) land (size - 1) in
        if Hashtbl.mem seen h then false
        else begin
          Hashtbl.add seen h ();
          true
        end)
      values
  in
  let found = ref None in
  List.iter
    (fun size ->
      List.iter
        (fun mult ->
          for shift = 0 to 24 do
            if !found = None && try_one size mult shift then
              found := Some (size, mult, shift)
          done)
        mults)
    sizes;
  !found

(* 2,000 seeded key sets of 1..300 keys: mostly small sets, which have a
   perfect hash, and some over 256 or too dense, which have none; keys
   from a narrow range (duplicates), 16-bit ports, and full-width ints
   above 2^32 *)
let test_hash_search_matches_old () =
  let st = Random.State.make [| 1996 |] in
  let int = Random.State.int st in
  let found = ref 0 and none = ref 0 in
  for _ = 1 to 2000 do
    let n = if int 4 = 0 then 1 + int 300 else 1 + int 40 in
    let key () =
      match int 4 with
      | 0 -> int 64
      | 1 -> int 65536
      | 2 -> Random.State.bits st lor (Random.State.bits st lsl 30)
      | _ -> (1 lsl 32) + int 1_000_000
    in
    let keys = List.init n (fun _ -> key ()) in
    let want = old_find_perfect_hash keys in
    if want = None then incr none else incr found;
    if Dpf.find_perfect_hash keys <> want then
      Alcotest.failf "hash search differs on [%s]" (String.concat "; " (List.map string_of_int keys))
  done;
  (* both outcomes are exercised *)
  Alcotest.(check bool) "some sets hash" true (!found > 100);
  Alcotest.(check bool) "some sets do not" true (!none > 100)

(* ------------------------------------------------------------------ *)
(* DPF compiled classifier                                             *)

let dpf_machine filters =
  let c = D.compile ~base:0x1000 ~table_base:0x200000 filters in
  let m = Sim.create Vmachine.Mconfig.test_config in
  Vmachine.Mem.install_code m.Sim.mem ~addr:c.Dpf.code.Vcode.base
    c.Dpf.code.Vcode.gen.Vcodebase.Gen.buf;
  D.install_tables m.Sim.mem c;
  (m, c)

let dpf_classify (m, (c : Dpf.compiled)) (pkt : Bytes.t) =
  Vmachine.Mem.blit_bytes m.Sim.mem ~addr:pkt_addr pkt;
  Sim.call m ~entry:c.Dpf.entry [ Sim.Int pkt_addr; Sim.Int (Bytes.length pkt) ];
  Sim.ret_int m

let prop_dpf_matches_reference =
  QCheck.Test.make ~name:"DPF compiled classifier == reference" ~count:60
    filters_and_packets
    (fun (filters, pkts) ->
      let mc = dpf_machine filters in
      List.for_all
        (fun pkt -> dpf_classify mc pkt = Filter.classify filters pkt)
        pkts)

let test_dpf_table3_workload () =
  let filters = Filter.tcpip_filters 10 in
  let mc = dpf_machine filters in
  let _, c = mc in
  Alcotest.(check bool) "hash dispatch selected" true c.Dpf.used_hash;
  (* each session filter hits *)
  for i = 0 to 9 do
    let pkt = Packet.to_bytes (Packet.tcp ~dst_port:(1000 + i) ()) in
    check Alcotest.int (Printf.sprintf "port %d" (1000 + i)) i (dpf_classify mc pkt)
  done;
  (* misses: wrong port, wrong proto, wrong address, short packet *)
  check Alcotest.int "unknown port" (-1)
    (dpf_classify mc (Packet.to_bytes (Packet.tcp ~dst_port:999 ())));
  check Alcotest.int "udp" (-1) (dpf_classify mc (Packet.to_bytes (Packet.udp ())));
  check Alcotest.int "other host" (-1)
    (dpf_classify mc (Packet.to_bytes (Packet.tcp ~dst_ip:0x0A0000FF ~dst_port:1003 ())));
  check Alcotest.int "short packet" (-1) (dpf_classify mc (Bytes.make 8 'x'))

let test_dpf_few_filters_linear () =
  (* with 3 filters the dispatch should be a linear chain, not hash *)
  let filters = Filter.tcpip_filters 3 in
  let mc = dpf_machine filters in
  let _, c = mc in
  Alcotest.(check bool) "no hash" false c.Dpf.used_hash;
  check Alcotest.int "linear width" 3 c.Dpf.max_linear;
  let pkt = Packet.to_bytes (Packet.tcp ~dst_port:1001 ()) in
  check Alcotest.int "still classifies" 1 (dpf_classify mc pkt)

let test_dpf_bsearch () =
  (* switch over non-leaf children forces binary search *)
  let mk ~fid ~port ~src =
    Filter.make ~fid
      [
        Filter.Cmp { offset = 9; size = 1; mask = 0xFF; value = 6 };
        Filter.Cmp { offset = 22; size = 2; mask = 0xFFFF; value = port };
        Filter.Cmp { offset = 12; size = 4; mask = 0xFFFFFFFF; value = src };
      ]
  in
  let filters = List.init 10 (fun i -> mk ~fid:i ~port:(2000 + (37 * i)) ~src:(0x0A000002 + i)) in
  let mc = dpf_machine filters in
  let _, c = mc in
  Alcotest.(check bool) "bsearch used" true c.Dpf.used_bsearch;
  List.iteri
    (fun i _ ->
      let pkt =
        Packet.to_bytes (Packet.tcp ~dst_port:(2000 + (37 * i)) ~src_ip:(0x0A000002 + i) ())
      in
      check Alcotest.int (Printf.sprintf "filter %d" i) i (dpf_classify mc pkt))
    filters

let test_dpf_varhdr () =
  (* Shift atoms: TCP dst port matched across IHL 5..12 *)
  let filters = [ Filter.tcpip_varhdr ~fid:7 ~dst_port:8080 ] in
  let mc = dpf_machine filters in
  List.iter
    (fun ihl ->
      let pkt = Packet.to_bytes (Packet.tcp ~ihl ~dst_port:8080 ()) in
      check Alcotest.int (Printf.sprintf "ihl %d" ihl) 7 (dpf_classify mc pkt);
      let miss = Packet.to_bytes (Packet.tcp ~ihl ~dst_port:8081 ()) in
      check Alcotest.int (Printf.sprintf "ihl %d miss" ihl) (-1) (dpf_classify mc miss))
    [ 5; 6; 8; 12 ]

(* DPF on big-endian SPARC: byte-order conversion must be a no-op *)
let test_dpf_sparc () =
  let module DS = Dpf.Make (Vsparc.Sparc_backend) in
  let module S = Vsparc.Sparc_sim in
  let filters = Filter.tcpip_filters 10 in
  let c = DS.compile ~base:0x1000 ~table_base:0x200000 filters in
  let m = S.create Vmachine.Mconfig.test_config in
  Vmachine.Mem.install_code m.S.mem ~addr:c.Dpf.code.Vcode.base
    c.Dpf.code.Vcode.gen.Vcodebase.Gen.buf;
  DS.install_tables m.S.mem c;
  let classify pkt =
    Vmachine.Mem.blit_bytes m.S.mem ~addr:pkt_addr pkt;
    S.call m ~entry:c.Dpf.entry [ S.Int pkt_addr; S.Int (Bytes.length pkt) ];
    S.ret_int m
  in
  check Alcotest.int "hit" 4 (classify (Packet.to_bytes (Packet.tcp ~dst_port:1004 ())));
  check Alcotest.int "miss" (-1) (classify (Packet.to_bytes (Packet.udp ())))

(* DPF compiles and classifies correctly on the 64-bit and PowerPC
   ports too (the generated tables are 32-bit words on all of them) *)
let test_dpf_alpha () =
  let module DA = Dpf.Make (Valpha.Alpha_backend) in
  let module S = Valpha.Alpha_sim in
  let filters = Filter.tcpip_filters 10 in
  let c = DA.compile ~base:0x10000 ~table_base:0x200000 filters in
  let m = S.create Vmachine.Mconfig.test_config in
  Vmachine.Mem.install_code m.S.mem ~addr:c.Dpf.code.Vcode.base
    c.Dpf.code.Vcode.gen.Vcodebase.Gen.buf;
  DA.install_tables m.S.mem c;
  let classify pkt =
    Vmachine.Mem.blit_bytes m.S.mem ~addr:pkt_addr pkt;
    S.call m ~entry:c.Dpf.entry [ S.Int pkt_addr; S.Int (Bytes.length pkt) ];
    S.ret_int m
  in
  check Alcotest.int "hit" 6 (classify (Packet.to_bytes (Packet.tcp ~dst_port:1006 ())));
  check Alcotest.int "miss" (-1) (classify (Packet.to_bytes (Packet.udp ())))

let test_dpf_ppc () =
  let module DP2 = Dpf.Make (Vppc.Ppc_backend) in
  let module S = Vppc.Ppc_sim in
  let filters = Filter.tcpip_filters 10 in
  let c = DP2.compile ~base:0x1000 ~table_base:0x200000 filters in
  let m = S.create Vmachine.Mconfig.test_config in
  Vmachine.Mem.install_code m.S.mem ~addr:c.Dpf.code.Vcode.base
    c.Dpf.code.Vcode.gen.Vcodebase.Gen.buf;
  DP2.install_tables m.S.mem c;
  let classify pkt =
    Vmachine.Mem.blit_bytes m.S.mem ~addr:pkt_addr pkt;
    S.call m ~entry:c.Dpf.entry [ S.Int pkt_addr; S.Int (Bytes.length pkt) ];
    S.ret_int m
  in
  check Alcotest.int "hit" 3 (classify (Packet.to_bytes (Packet.tcp ~dst_port:1003 ())));
  check Alcotest.int "miss" (-1)
    (classify (Packet.to_bytes (Packet.tcp ~dst_ip:0x01020304 ~dst_port:1003 ())))

(* ------------------------------------------------------------------ *)
(* Interpreter baselines (tcc-compiled)                                *)

let build_interp source fname =
  let prog = C.compile ~base:0x4000 source in
  let m = Sim.create Vmachine.Mconfig.test_config in
  List.iter
    (fun (_, code) ->
      Vmachine.Mem.install_code m.Sim.mem ~addr:code.Vcode.base code.Vcode.gen.Vcodebase.Gen.buf)
    prog.C.funcs;
  (m, C.entry prog fname)

let write_words m addr words =
  Array.iteri (fun i w -> Vmachine.Mem.write_u32 m.Sim.mem (addr + (4 * i)) w) words

let mpf_classify (m, entry) program pkt =
  write_words m prog_addr program;
  Vmachine.Mem.blit_bytes m.Sim.mem ~addr:pkt_addr pkt;
  Sim.call m ~entry
    [ Sim.Int pkt_addr; Sim.Int (Bytes.length pkt); Sim.Int prog_addr; Sim.Int 1 ];
  Sim.ret_int m

let pf_classify (m, entry) (words, root) pkt =
  write_words m prog_addr words;
  Vmachine.Mem.blit_bytes m.Sim.mem ~addr:pkt_addr pkt;
  Sim.call m ~entry
    [
      Sim.Int pkt_addr; Sim.Int (Bytes.length pkt); Sim.Int prog_addr; Sim.Int root;
      Sim.Int 1;
    ];
  Sim.ret_int m

let prop_mpf_matches_reference =
  let interp = lazy (build_interp Dpf.Mpf.source Dpf.Mpf.function_name) in
  QCheck.Test.make ~name:"MPF interpreter == reference" ~count:60 filters_and_packets
    (fun (filters, pkts) ->
      let program = Filter.mpf_program ~big_endian:false filters in
      List.for_all
        (fun pkt ->
          mpf_classify (Lazy.force interp) program pkt = Filter.classify filters pkt)
        pkts)

let prop_pathfinder_matches_reference =
  let interp = lazy (build_interp Dpf.Pathfinder.source Dpf.Pathfinder.function_name) in
  QCheck.Test.make ~name:"PATHFINDER interpreter == reference" ~count:60
    filters_and_packets
    (fun (filters, pkts) ->
      let enc = Dpf.Pathfinder.encode ~big_endian:false filters in
      List.for_all
        (fun pkt ->
          pf_classify (Lazy.force interp) enc pkt = Filter.classify filters pkt)
        pkts)

let test_interp_varhdr () =
  let filters = [ Filter.tcpip_varhdr ~fid:7 ~dst_port:8080 ] in
  let mpf = build_interp Dpf.Mpf.source Dpf.Mpf.function_name in
  let pf = build_interp Dpf.Pathfinder.source Dpf.Pathfinder.function_name in
  let program = Filter.mpf_program ~big_endian:false filters in
  let enc = Dpf.Pathfinder.encode ~big_endian:false filters in
  List.iter
    (fun ihl ->
      let hit = Packet.to_bytes (Packet.tcp ~ihl ~dst_port:8080 ()) in
      let miss = Packet.to_bytes (Packet.tcp ~ihl ~dst_port:9999 ()) in
      check Alcotest.int "mpf hit" 7 (mpf_classify mpf program hit);
      check Alcotest.int "mpf miss" (-1) (mpf_classify mpf program miss);
      check Alcotest.int "pf hit" 7 (pf_classify pf enc hit);
      check Alcotest.int "pf miss" (-1) (pf_classify pf enc miss))
    [ 5; 7; 10 ]

(* ------------------------------------------------------------------ *)
(* The Table 3 shape: DPF beats PATHFINDER beats MPF                   *)

let test_cycle_ordering () =
  let filters = Filter.tcpip_filters 10 in
  let pkt = Packet.to_bytes (Packet.tcp ~dst_port:1009 ()) in
  (* DPF *)
  let mc = dpf_machine filters in
  let m, _ = mc in
  ignore (dpf_classify mc pkt);
  Sim.reset_stats m;
  ignore (dpf_classify mc pkt);
  let dpf_cycles = m.Sim.cycles in
  (* MPF *)
  let mm, mentry = build_interp Dpf.Mpf.source Dpf.Mpf.function_name in
  let program = Filter.mpf_program ~big_endian:false filters in
  ignore (mpf_classify (mm, mentry) program pkt);
  Sim.reset_stats mm;
  ignore (mpf_classify (mm, mentry) program pkt);
  let mpf_cycles = mm.Sim.cycles in
  (* PATHFINDER *)
  let pm, pentry = build_interp Dpf.Pathfinder.source Dpf.Pathfinder.function_name in
  let enc = Dpf.Pathfinder.encode ~big_endian:false filters in
  ignore (pf_classify (pm, pentry) enc pkt);
  Sim.reset_stats pm;
  ignore (pf_classify (pm, pentry) enc pkt);
  let pf_cycles = pm.Sim.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "dpf (%d) < pathfinder (%d)" dpf_cycles pf_cycles)
    true (dpf_cycles < pf_cycles);
  Alcotest.(check bool)
    (Printf.sprintf "pathfinder (%d) < mpf (%d)" pf_cycles mpf_cycles)
    true (pf_cycles < mpf_cycles)

let () =
  Alcotest.run "dpf"
    [
      ( "trie",
        [
          qtest prop_trie_matches_filters;
          Alcotest.test_case "prefix sharing" `Quick test_trie_sharing;
          qtest prop_trie_equals_old_builder;
          Alcotest.test_case "hash search == old search" `Quick test_hash_search_matches_old;
        ] );
      ( "dpf",
        [
          qtest prop_dpf_matches_reference;
          Alcotest.test_case "table 3 workload" `Quick test_dpf_table3_workload;
          Alcotest.test_case "linear dispatch" `Quick test_dpf_few_filters_linear;
          Alcotest.test_case "binary search" `Quick test_dpf_bsearch;
          Alcotest.test_case "variable header" `Quick test_dpf_varhdr;
          Alcotest.test_case "sparc (big endian)" `Quick test_dpf_sparc;
          Alcotest.test_case "alpha (64-bit)" `Quick test_dpf_alpha;
          Alcotest.test_case "ppc" `Quick test_dpf_ppc;
        ] );
      ( "interpreters",
        [
          qtest prop_mpf_matches_reference;
          qtest prop_pathfinder_matches_reference;
          Alcotest.test_case "variable header" `Quick test_interp_varhdr;
        ] );
      ("table3", [ Alcotest.test_case "cycle ordering" `Quick test_cycle_ordering ]);
    ]
