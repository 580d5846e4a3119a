(* Unit and property tests for the target-independent VCODE base:
   types, code buffer, generation state, register allocation, and the
   machine substrate (memory, caches). *)

open Vcodebase

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Vtype                                                               *)

let test_signature_parse () =
  check (Alcotest.list Alcotest.string) "simple"
    [ "i" ] (List.map Vtype.to_string (Vtype.parse_signature "%i"));
  check (Alcotest.list Alcotest.string) "multi"
    [ "i"; "p"; "d" ]
    (List.map Vtype.to_string (Vtype.parse_signature "%i%p%d"));
  check (Alcotest.list Alcotest.string) "unsigned multichar"
    [ "uc"; "us"; "ul"; "u" ]
    (List.map Vtype.to_string (Vtype.parse_signature "%uc%us%ul%u"));
  check (Alcotest.list Alcotest.string) "empty" []
    (List.map Vtype.to_string (Vtype.parse_signature ""))

let test_signature_errors () =
  let bad s =
    match Vtype.parse_signature s with
    | _ -> Alcotest.failf "expected failure for %S" s
    | exception Verror.Error (Verror.Bad_type _) -> ()
  in
  bad "i";
  bad "%x";
  bad "%"

let test_sizes () =
  check Alcotest.int "int is 4" 4 (Vtype.size ~word_bytes:4 Vtype.I);
  check Alcotest.int "long follows word (32)" 4 (Vtype.size ~word_bytes:4 Vtype.L);
  check Alcotest.int "long follows word (64)" 8 (Vtype.size ~word_bytes:8 Vtype.L);
  check Alcotest.int "pointer follows word" 8 (Vtype.size ~word_bytes:8 Vtype.P);
  check Alcotest.int "double is 8" 8 (Vtype.size ~word_bytes:4 Vtype.D);
  check Alcotest.int "uchar is 1" 1 (Vtype.size ~word_bytes:4 Vtype.UC);
  check Alcotest.int "void is 0" 0 (Vtype.size ~word_bytes:4 Vtype.V)

let test_type_table () =
  (* Table 1 has twelve types and their C equivalents *)
  check Alcotest.int "12 types" 12 (List.length Vtype.all);
  check Alcotest.string "p is void*" "void *" (Vtype.c_equivalent Vtype.P);
  List.iter
    (fun t -> Alcotest.(check bool) "c_equivalent nonempty" true (Vtype.c_equivalent t <> ""))
    Vtype.all

let test_op_tables () =
  (* Table 2 composition rules *)
  Alcotest.(check bool) "add takes floats" true (List.mem Vtype.F (Op.binop_types Op.Add));
  Alcotest.(check bool) "mod excludes floats" false (List.mem Vtype.F (Op.binop_types Op.Mod));
  Alcotest.(check bool) "lsh excludes pointer" false (List.mem Vtype.P (Op.binop_types Op.Lsh));
  Alcotest.(check bool) "no float immediates" false (Op.binop_imm_ok Op.Add Vtype.D);
  Alcotest.(check bool) "int immediates ok" true (Op.binop_imm_ok Op.Add Vtype.I);
  Alcotest.(check bool) "cvi2d ok" true (Op.conversion_ok ~from:Vtype.I ~to_:Vtype.D);
  Alcotest.(check bool) "cvd2u not listed" false (Op.conversion_ok ~from:Vtype.D ~to_:Vtype.U)

(* ------------------------------------------------------------------ *)
(* Codebuf                                                             *)

let test_codebuf_basic () =
  let b = Codebuf.create () in
  check Alcotest.int "empty" 0 (Codebuf.length b);
  let i0 = Codebuf.emit b 0xDEADBEEF in
  let i1 = Codebuf.emit b 42 in
  check Alcotest.int "index 0" 0 i0;
  check Alcotest.int "index 1" 1 i1;
  check Alcotest.int "get" 0xDEADBEEF (Codebuf.get b 0);
  Codebuf.set b 0 7;
  check Alcotest.int "patched" 7 (Codebuf.get b 0);
  Codebuf.truncate b 1;
  check Alcotest.int "truncated" 1 (Codebuf.length b)

let test_codebuf_growth () =
  let b = Codebuf.create ~capacity:2 () in
  for i = 0 to 999 do ignore (Codebuf.emit b i) done;
  check Alcotest.int "length" 1000 (Codebuf.length b);
  for i = 0 to 999 do assert (Codebuf.get b i = i) done

let test_codebuf_reserve () =
  let b = Codebuf.create () in
  ignore (Codebuf.emit b 1);
  let at = Codebuf.reserve b ~n:5 ~fill:0 in
  check Alcotest.int "reserve index" 1 at;
  check Alcotest.int "reserve length" 6 (Codebuf.length b);
  check Alcotest.int "fill" 0 (Codebuf.get b 3)

let test_codebuf_blit_endianness () =
  let b = Codebuf.create () in
  ignore (Codebuf.emit b 0x11223344);
  let le = Bytes.make 4 '\000' and be = Bytes.make 4 '\000' in
  Codebuf.blit_to_bytes b ~big_endian:false le 0;
  Codebuf.blit_to_bytes b ~big_endian:true be 0;
  check Alcotest.string "little" "\x44\x33\x22\x11" (Bytes.to_string le);
  check Alcotest.string "big" "\x11\x22\x33\x44" (Bytes.to_string be)

(* reset keeps the backing capacity (heap_words flat, no growths on
   re-emission) while making the old contents unreachable *)
let test_codebuf_reset_reuse () =
  let b = Codebuf.create ~capacity:2 () in
  for i = 0 to 999 do
    ignore (Codebuf.emit b i)
  done;
  let grew = Codebuf.growths b in
  check Alcotest.bool "grew past the hint" true (grew > 0);
  let hw = Codebuf.heap_words b in
  Codebuf.reset b;
  check Alcotest.int "reset length" 0 (Codebuf.length b);
  check Alcotest.int "reset growths baseline" 0 (Codebuf.growths b);
  check Alcotest.int "capacity kept (heap_words flat)" hw (Codebuf.heap_words b);
  for i = 0 to 999 do
    ignore (Codebuf.emit b (i * 3))
  done;
  check Alcotest.int "re-emitted" 1000 (Codebuf.length b);
  check Alcotest.int "no growths on reuse" 0 (Codebuf.growths b);
  check Alcotest.int "heap_words still flat" hw (Codebuf.heap_words b);
  check Alcotest.int "fresh contents" 42 (Codebuf.get b 14)

(* old indices are dead after reset: get/set/truncate check against the
   new length *)
let test_codebuf_reset_truncate () =
  let b = Codebuf.create () in
  for i = 0 to 9 do
    ignore (Codebuf.emit b i)
  done;
  Codebuf.truncate b 4;
  check Alcotest.int "truncated" 4 (Codebuf.length b);
  Codebuf.reset b;
  ignore (Codebuf.emit b 7);
  Alcotest.check_raises "get past reset length"
    (Verror.Error (Verror.Bad_operand "Codebuf.get: index 3 outside [0,1)")) (fun () ->
      ignore (Codebuf.get b 3));
  Alcotest.check_raises "truncate past reset length"
    (Verror.Error (Verror.Bad_operand "Codebuf.truncate: length 4 outside [0,1]"))
    (fun () -> Codebuf.truncate b 4)

let prop_codebuf_word_identity =
  QCheck.Test.make ~name:"codebuf stores 32-bit words exactly" ~count:500
    QCheck.(list (int_bound 0xFFFFFFF))
    (fun ws ->
      let b = Codebuf.create () in
      List.iter (fun w -> ignore (Codebuf.emit b w)) ws;
      List.length ws = Codebuf.length b
      && List.for_all2 ( = ) ws (Array.to_list (Codebuf.to_array b)))

(* ------------------------------------------------------------------ *)
(* Gen: labels, relocs, allocator                                      *)

let dummy_desc : Machdesc.t =
  {
    Machdesc.name = "dummy";
    word_bits = 32;
    big_endian = false;
    branch_delay_slots = 0;
    load_delay = 0;
    nregs = 8;
    nfregs = 4;
    temps = [| Reg.R 1; Reg.R 2 |];
    vars = [| Reg.R 3; Reg.R 4; Reg.R 5 |];
    ftemps = [| Reg.F 0 |];
    fvars = [| Reg.F 2 |];
    callee_mask = (1 lsl 3) lor (1 lsl 4) lor (1 lsl 5);
    fcallee_mask = 1 lsl 2;
    conv =
      { Callconv.counting = Per_class; int_regs = [| 6 |]; fp_regs = [||]; slot_bytes = 4;
        stack_base = 0; single_slots = 1; stack_limit = 0; int_ret = 7; fp_ret = 0; window = 0 };
    sp = Reg.R 0;
    locals_base = 0;
    scratch = Reg.R 0;
    fscratch = Reg.F 3;
    reg_name = Reg.to_string;
  }

let test_labels () =
  let g = Gen.create dummy_desc in
  let l0 = Gen.genlabel g and l1 = Gen.genlabel g in
  check Alcotest.int "fresh ids" 1 l1;
  Alcotest.(check bool) "initially unbound" false (Gen.label_defined g l0);
  ignore (Codebuf.emit g.Gen.buf 0);
  Gen.bind_label g l0;
  Alcotest.(check bool) "bound" true (Gen.label_defined g l0);
  check Alcotest.int "bound position" 1 g.Gen.labels.(l0)

let test_many_labels () =
  let g = Gen.create dummy_desc in
  let ls = List.init 100 (fun _ -> Gen.genlabel g) in
  check Alcotest.int "100 labels" 100 (List.length ls);
  List.iteri (fun i l -> assert (i = l)) ls

let test_reloc_resolution () =
  let g = Gen.create dummy_desc in
  let l = Gen.genlabel g in
  ignore (Codebuf.emit g.Gen.buf 0);
  Gen.add_reloc g ~site:0 ~lab:l ~kind:7;
  ignore (Codebuf.emit g.Gen.buf 0);
  Gen.bind_label g l;
  let seen = ref [] in
  Gen.resolve_relocs g ~apply:(fun ~kind ~site ~dest -> seen := (kind, site, dest) :: !seen);
  check
    Alcotest.(list (triple int int int))
    "resolved" [ (7, 0, 2) ] !seen

let test_unresolved_label () =
  let g = Gen.create dummy_desc in
  let l = Gen.genlabel g in
  Gen.add_reloc g ~site:0 ~lab:l ~kind:0;
  Alcotest.check_raises "unresolved" (Verror.Error (Verror.Unresolved_label l)) (fun () ->
      Gen.resolve_relocs g ~apply:(fun ~kind:_ ~site:_ ~dest:_ -> ()))

let test_regalloc_priority_order () =
  let g = Gen.create dummy_desc in
  check (Alcotest.option Alcotest.string) "first temp" (Some "r1")
    (Option.map Reg.to_string (Gen.getreg g ~cls:`Temp ~float:false));
  check (Alcotest.option Alcotest.string) "second temp" (Some "r2")
    (Option.map Reg.to_string (Gen.getreg g ~cls:`Temp ~float:false));
  check (Alcotest.option Alcotest.string) "exhausted" None
    (Option.map Reg.to_string (Gen.getreg g ~cls:`Temp ~float:false))

let test_regalloc_putreg () =
  let g = Gen.create dummy_desc in
  let r1 = Option.get (Gen.getreg g ~cls:`Temp ~float:false) in
  let _r2 = Option.get (Gen.getreg g ~cls:`Temp ~float:false) in
  Gen.putreg g r1;
  check (Alcotest.option Alcotest.string) "freed register reused" (Some "r1")
    (Option.map Reg.to_string (Gen.getreg g ~cls:`Temp ~float:false))

let test_regalloc_unavailable_override () =
  let g = Gen.create dummy_desc in
  Gen.set_reg_class g (Reg.R 1) Gen.Ounavail;
  check (Alcotest.option Alcotest.string) "skips unavailable" (Some "r2")
    (Option.map Reg.to_string (Gen.getreg g ~cls:`Temp ~float:false))

let test_regalloc_float_pool () =
  let g = Gen.create dummy_desc in
  check (Alcotest.option Alcotest.string) "float temp" (Some "f0")
    (Option.map Reg.to_string (Gen.getreg g ~cls:`Temp ~float:true));
  check (Alcotest.option Alcotest.string) "float var" (Some "f2")
    (Option.map Reg.to_string (Gen.getreg g ~cls:`Var ~float:true))

let test_note_write_masks () =
  let g = Gen.create dummy_desc in
  Gen.note_write g (Reg.R 3);
  Gen.note_write g (Reg.R 1);
  check Alcotest.int "only callee-saved recorded" (1 lsl 3) g.Gen.used_callee;
  Gen.note_write g (Reg.F 2);
  check Alcotest.int "float callee recorded" (1 lsl 2) g.Gen.used_fcallee

let test_note_write_override () =
  let g = Gen.create dummy_desc in
  (* interrupt-handler scenario: force caller-saved r1 to be treated as
     callee-saved *)
  Gen.set_reg_class g (Reg.R 1) Gen.Ocallee;
  Gen.note_write g (Reg.R 1);
  check Alcotest.int "forced callee recorded" (1 lsl 1) g.Gen.used_callee;
  (* and relax a callee-saved register *)
  let g2 = Gen.create dummy_desc in
  Gen.set_reg_class g2 (Reg.R 3) Gen.Ocaller;
  Gen.note_write g2 (Reg.R 3);
  check Alcotest.int "relaxed register not recorded" 0 g2.Gen.used_callee

let test_locals_alignment () =
  let g = Gen.create dummy_desc in
  let o1 = Gen.alloc_local g ~bytes:1 ~align:1 in
  let o2 = Gen.alloc_local g ~bytes:4 ~align:4 in
  let o3 = Gen.alloc_local g ~bytes:8 ~align:8 in
  check Alcotest.int "first at 0" 0 o1;
  check Alcotest.int "word aligned" 4 o2;
  check Alcotest.int "double aligned" 8 o3;
  check Alcotest.int "total" 16 g.Gen.locals_bytes

let prop_locals_aligned =
  QCheck.Test.make ~name:"alloc_local always respects alignment" ~count:300
    QCheck.(list (pair (int_range 1 16) (oneofl [ 1; 2; 4; 8 ])))
    (fun reqs ->
      let g = Gen.create dummy_desc in
      List.for_all
        (fun (bytes, align) -> Gen.alloc_local g ~bytes ~align mod align = 0)
        reqs)

let test_finished_guard () =
  let g = Gen.create dummy_desc in
  g.Gen.finished <- true;
  Alcotest.check_raises "emission after v_end" (Verror.Error Verror.Already_finished)
    (fun () -> Gen.check_open g)

let test_live_words_constant_in_insns () =
  (* the in-place property: generation state (excluding the code itself)
     does not grow with instruction count *)
  let g = Gen.create dummy_desc in
  let overhead g = Gen.live_words g - Codebuf.heap_words g.Gen.buf in
  let before = overhead g in
  for i = 0 to 9999 do ignore (Codebuf.emit g.Gen.buf i) done;
  check Alcotest.int "bookkeeping unchanged after 10k instructions" before (overhead g)

(* ------------------------------------------------------------------ *)
(* Mem and Cache                                                       *)

let test_mem_rw () =
  let m = Vmachine.Mem.create ~size:4096 () in
  Vmachine.Mem.write_u32 m 0 0xCAFEBABE;
  check Alcotest.int "u32" 0xCAFEBABE (Vmachine.Mem.read_u32 m 0);
  check Alcotest.int "byte LE" 0xBE (Vmachine.Mem.read_u8 m 0);
  Vmachine.Mem.write_u16 m 4 0xBEEF;
  check Alcotest.int "u16" 0xBEEF (Vmachine.Mem.read_u16 m 4);
  Vmachine.Mem.write_u64 m 8 0x1122334455667788L;
  check Alcotest.int64 "u64" 0x1122334455667788L (Vmachine.Mem.read_u64 m 8)

let test_mem_big_endian () =
  let m = Vmachine.Mem.create ~big_endian:true ~size:64 () in
  Vmachine.Mem.write_u32 m 0 0x11223344;
  check Alcotest.int "byte BE" 0x11 (Vmachine.Mem.read_u8 m 0);
  check Alcotest.int "u16 BE" 0x1122 (Vmachine.Mem.read_u16 m 0)

let test_mem_faults () =
  let m = Vmachine.Mem.create ~size:64 () in
  (match Vmachine.Mem.read_u32 m 0x1000 with
  | _ -> Alcotest.fail "expected out-of-bounds fault"
  | exception Vmachine.Mem.Fault _ -> ());
  match Vmachine.Mem.read_u32 m 2 with
  | _ -> Alcotest.fail "expected misalignment fault"
  | exception Vmachine.Mem.Fault _ -> ()

let test_mem_bulk_bounds () =
  let m = Vmachine.Mem.create ~size:64 () in
  let expect_fault what f =
    match f () with
    | _ -> Alcotest.fail ("expected Fault: " ^ what)
    | exception Vmachine.Mem.Fault _ -> ()
  in
  (* every bulk writer is bounds-checked and raises Fault, never a raw
     Invalid_argument from Bytes *)
  expect_fault "blit_bytes past end" (fun () ->
      Vmachine.Mem.blit_bytes m ~addr:60 (Bytes.make 8 'x'));
  expect_fault "blit_bytes negative addr" (fun () ->
      Vmachine.Mem.blit_bytes m ~addr:(-4) (Bytes.make 2 'x'));
  expect_fault "fill past end" (fun () -> Vmachine.Mem.fill m ~addr:60 ~len:8 'x');
  expect_fault "fill negative addr" (fun () -> Vmachine.Mem.fill m ~addr:(-1) ~len:2 'x');
  expect_fault "fill negative len" (fun () -> Vmachine.Mem.fill m ~addr:0 ~len:(-2) 'x');
  expect_fault "blit_string past end" (fun () -> Vmachine.Mem.blit_string m ~addr:62 "abcd");
  expect_fault "read_string past end" (fun () ->
      ignore (Vmachine.Mem.read_string m ~addr:62 ~len:4));
  expect_fault "read_string negative len" (fun () ->
      ignore (Vmachine.Mem.read_string m ~addr:0 ~len:(-1)));
  (* zero-length operations are no-ops, valid anywhere in [0, size] *)
  Vmachine.Mem.blit_string m ~addr:64 "";
  Vmachine.Mem.blit_bytes m ~addr:64 Bytes.empty;
  Vmachine.Mem.fill m ~addr:64 ~len:0 'x';
  check Alcotest.string "empty read at size" "" (Vmachine.Mem.read_string m ~addr:64 ~len:0);
  expect_fault "zero-length op past size" (fun () ->
      ignore (Vmachine.Mem.read_string m ~addr:65 ~len:0))

let test_mem_write_watcher () =
  let m = Vmachine.Mem.create ~size:256 () in
  let log = ref [] in
  Vmachine.Mem.set_write_watcher m (fun addr len -> log := (addr, len) :: !log);
  Vmachine.Mem.write_u8 m 1 0xAB;
  Vmachine.Mem.write_u16 m 2 0xCDEF;
  Vmachine.Mem.write_u32 m 4 0xDEADBEEF;
  Vmachine.Mem.write_u64 m 8 1L;
  Vmachine.Mem.blit_bytes m ~addr:32 (Bytes.make 3 'x');
  Vmachine.Mem.fill m ~addr:40 ~len:5 'y';
  Vmachine.Mem.blit_string m ~addr:48 "hi";
  (* zero-length bulk ops must not notify *)
  Vmachine.Mem.blit_string m ~addr:60 "";
  let got = List.rev !log in
  check
    Alcotest.(list (pair int int))
    "watcher sees every mutation"
    [ (1, 1); (2, 2); (4, 4); (8, 4); (12, 4); (32, 3); (40, 5); (48, 2) ]
    got

let prop_mem_u64_roundtrip =
  QCheck.Test.make ~name:"u64 read/write roundtrip both endiannesses" ~count:300
    QCheck.(pair int64 bool)
    (fun (v, be) ->
      let m = Vmachine.Mem.create ~big_endian:be ~size:64 () in
      Vmachine.Mem.write_u64 m 16 v;
      Vmachine.Mem.read_u64 m 16 = v)

(* Bounds near [max_int]: [addr + len] wraps negative there, so a check
   written that way lets the access through (a segfault on the unsafe
   byte load, or [Invalid_argument] from [Bytes]).  Every accessor must
   raise [Fault] instead. *)
let test_mem_near_max_int () =
  let m = Vmachine.Mem.create ~size:4096 () in
  let expect_fault what f =
    match f () with
    | _ -> Alcotest.fail ("expected Fault: " ^ what)
    | exception Vmachine.Mem.Fault _ -> ()
  in
  let top = max_int land lnot 7 in
  expect_fault "read_u8 max_int" (fun () -> Vmachine.Mem.read_u8 m max_int);
  expect_fault "write_u8 max_int" (fun () -> Vmachine.Mem.write_u8 m max_int 1);
  expect_fault "read_u16" (fun () -> Vmachine.Mem.read_u16 m (top + 6));
  expect_fault "write_u16" (fun () -> Vmachine.Mem.write_u16 m (top + 6) 1);
  expect_fault "read_u32" (fun () -> Vmachine.Mem.read_u32 m (top + 4));
  expect_fault "write_u32" (fun () -> Vmachine.Mem.write_u32 m (top + 4) 1);
  expect_fault "read_u64" (fun () -> Vmachine.Mem.read_u64 m top);
  expect_fault "write_u64" (fun () -> Vmachine.Mem.write_u64 m top 1L);
  expect_fault "fill" (fun () -> Vmachine.Mem.fill m ~addr:(max_int - 1) ~len:4 'x');
  expect_fault "blit_string" (fun () -> Vmachine.Mem.blit_string m ~addr:(max_int - 1) "abcd");
  expect_fault "blit_bytes" (fun () ->
      Vmachine.Mem.blit_bytes m ~addr:(max_int - 1) (Bytes.make 4 'x'));
  expect_fault "read_string" (fun () -> ignore (Vmachine.Mem.read_string m ~addr:max_int ~len:1));
  expect_fault "install_code" (fun () ->
      let buf = Vcodebase.Codebuf.create () in
      ignore (Vcodebase.Codebuf.emit buf 0 : int);
      Vmachine.Mem.install_code m ~addr:top buf);
  expect_fault "fill huge len" (fun () -> Vmachine.Mem.fill m ~addr:8 ~len:max_int 'x')

(* The word accessors against a byte-wise reference: the same value or
   the same [Fault] message, the same bytes stored, and the same
   [on_write (addr, len)], in both byte orders and at aligned,
   misaligned, negative, last-word and past-the-end addresses. *)
let prop_mem_words_bytewise =
  let size = 64 in
  let addr_gen =
    QCheck.Gen.(
      oneof
        [ int_range (-8) (size + 8); map (fun k -> 4 * k) (int_range (-2) 17);
          map (fun k -> max_int - k) (int_range 0 8); return min_int ])
  in
  let gen = QCheck.Gen.(quad bool addr_gen (string_size (return size)) int) in
  QCheck.Test.make ~name:"u32/u64 accessors match a byte-wise reference" ~count:2000
    (QCheck.make gen)
    (fun (be, addr, init, v) ->
      let module M = Vmachine.Mem in
      (* a memory holding [init], logging every write after that *)
      let fresh () =
        let m = M.create ~big_endian:be ~size () in
        M.blit_string m ~addr:0 init;
        let log = ref [] in
        M.set_write_watcher m (fun a l -> log := (a, l) :: !log);
        (m, log)
      in
      let image m = M.read_string m ~addr:0 ~len:size in
      let result f = match f () with x -> Ok x | exception M.Fault msg -> Error msg in
      (* the reference: the fault message, or the bytes' value *)
      let ref_read len what =
        if addr < 0 || addr > size - len then
          Error
            (Printf.sprintf "%s of %d bytes at 0x%x out of bounds (mem size 0x%x)" what len addr
               size)
        else if addr land (len - 1) <> 0 then Error (Printf.sprintf "misaligned %s at 0x%x" what addr)
        else
          Ok
            (List.fold_left
               (fun acc i -> (acc lsl 8) lor Char.code init.[addr + if be then i else len - 1 - i])
               0 (List.init len Fun.id))
      in
      (* ... the image a store leaves *)
      let ref_write len what =
        Result.map
          (fun _ ->
            let b = Bytes.of_string init in
            for i = 0 to len - 1 do
              let sh = 8 * if be then len - 1 - i else i in
              Bytes.set b (addr + i) (Char.chr ((v asr sh) land 0xFF))
            done;
            Bytes.to_string b)
          (ref_read len what)
      in
      (* a faulting store must leave memory as it was *)
      let store f =
        let m, log = fresh () in
        let r = result (fun () -> f m; image m) in
        let r = match r with Error _ when image m <> init -> Error "memory changed" | r -> r in
        (r, List.rev !log)
      in
      let m, _ = fresh () in
      let w32, log32 = store (fun m -> M.write_u32 m addr v) in
      let w64, log64 = store (fun m -> M.write_u64 m addr (Int64.of_int v)) in
      let logged w l = match w with Ok _ -> l | Error _ -> [] in
      result (fun () -> M.read_u32 m addr) = ref_read 4 "load32"
      (* 64-bit values wrap to 63 bits the same way on both sides *)
      && result (fun () -> Int64.to_int (M.read_u64 m addr)) = ref_read 8 "load64"
      && w32 = ref_write 4 "store32"
      && log32 = logged w32 [ (addr, 4) ]
      && w64 = ref_write 8 "store64"
      && log64 = logged w64 [ (addr, 4); (addr + 4, 4) ])

let test_cache_behaviour () =
  let c = Vmachine.Cache.create ~size_bytes:64 ~line_bytes:16 ~miss_penalty:10 in
  check Alcotest.int "cold miss" 10 (Vmachine.Cache.access c 0);
  check Alcotest.int "hit same line" 0 (Vmachine.Cache.access c 4);
  check Alcotest.int "hit same line end" 0 (Vmachine.Cache.access c 15);
  check Alcotest.int "next line misses" 10 (Vmachine.Cache.access c 16);
  (* 64-byte direct-mapped: address 64 conflicts with 0 *)
  check Alcotest.int "conflict miss" 10 (Vmachine.Cache.access c 64);
  check Alcotest.int "evicted line misses again" 10 (Vmachine.Cache.access c 0);
  Vmachine.Cache.flush c;
  check Alcotest.int "flush invalidates" 10 (Vmachine.Cache.access c 0);
  let hits, misses = Vmachine.Cache.stats c in
  check Alcotest.int "hits counted" 2 hits;
  check Alcotest.int "misses counted" 5 misses

let () =
  Alcotest.run "vcode-base"
    [
      ( "vtype",
        [
          Alcotest.test_case "signature parse" `Quick test_signature_parse;
          Alcotest.test_case "signature errors" `Quick test_signature_errors;
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "table 1" `Quick test_type_table;
          Alcotest.test_case "table 2 composition" `Quick test_op_tables;
        ] );
      ( "codebuf",
        [
          Alcotest.test_case "basic" `Quick test_codebuf_basic;
          Alcotest.test_case "growth" `Quick test_codebuf_growth;
          Alcotest.test_case "reserve" `Quick test_codebuf_reserve;
          Alcotest.test_case "blit endianness" `Quick test_codebuf_blit_endianness;
          Alcotest.test_case "reset reuse" `Quick test_codebuf_reset_reuse;
          Alcotest.test_case "reset vs truncate" `Quick test_codebuf_reset_truncate;
          qtest prop_codebuf_word_identity;
        ] );
      ( "gen",
        [
          Alcotest.test_case "labels" `Quick test_labels;
          Alcotest.test_case "many labels" `Quick test_many_labels;
          Alcotest.test_case "reloc resolution" `Quick test_reloc_resolution;
          Alcotest.test_case "unresolved label" `Quick test_unresolved_label;
          Alcotest.test_case "allocator priority order" `Quick test_regalloc_priority_order;
          Alcotest.test_case "putreg reuse" `Quick test_regalloc_putreg;
          Alcotest.test_case "unavailable override" `Quick test_regalloc_unavailable_override;
          Alcotest.test_case "float pools" `Quick test_regalloc_float_pool;
          Alcotest.test_case "note_write masks" `Quick test_note_write_masks;
          Alcotest.test_case "note_write override" `Quick test_note_write_override;
          Alcotest.test_case "locals alignment" `Quick test_locals_alignment;
          qtest prop_locals_aligned;
          Alcotest.test_case "finished guard" `Quick test_finished_guard;
          Alcotest.test_case "in-place space property" `Quick test_live_words_constant_in_insns;
        ] );
      ( "machine",
        [
          Alcotest.test_case "mem rw" `Quick test_mem_rw;
          Alcotest.test_case "mem big endian" `Quick test_mem_big_endian;
          Alcotest.test_case "mem faults" `Quick test_mem_faults;
          Alcotest.test_case "mem bulk bounds" `Quick test_mem_bulk_bounds;
          Alcotest.test_case "mem write watcher" `Quick test_mem_write_watcher;
          qtest prop_mem_u64_roundtrip;
          Alcotest.test_case "mem near max_int" `Quick test_mem_near_max_int;
          qtest prop_mem_words_bytewise;
          Alcotest.test_case "cache behaviour" `Quick test_cache_behaviour;
        ] );
    ]
