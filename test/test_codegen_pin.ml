(* Generated-code pins.

   Every case below generates a function (or a client's whole output)
   on all four ports and digests the emitted words together with the
   entry index.  The digests are committed: a change to the calling
   convention, the frame plumbing or any emitter that alters one word
   fails this test until the entry is re-pinned on purpose.  The cases
   reach incoming stack arguments and double alignment (lambda at 0-10
   mixed I/F/D parameters), outgoing stack arguments and the
   parallel-move cycles every port resolves, caller's own parameters
   passed on permuted among them (do_call), every return path (ret/retval per
   type, leaf and non-leaf frames, callee-saved registers, FP
   immediates), and fixed-seed DPF, ASH, vmjit and tcc output.

   The second half pins the simulator side of the same convention with
   literal locations: for a few signatures per port it states the
   register number or stack-pointer offset where each argument lands
   when a harness call places it. *)

open Vcodebase

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)

let digest_code (c : Vcode.code) =
  let buf = c.Vcode.gen.Gen.buf in
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int c.Vcode.gen.Gen.entry_index);
  for i = 0 to Codebuf.length buf - 1 do
    Buffer.add_string b (Printf.sprintf ";%x" (Codebuf.get buf i))
  done;
  Buffer.contents b

let hex s = String.sub (Digest.to_hex (Digest.string s)) 0 12

(* Mixed parameter patterns; a signature of n parameters is the
   pattern's first n letters. *)
let patterns = [ "idfidiffdi"; "ddfiifdfid"; "fiddifidfi" ]

let vtype_of = function 'i' -> Vtype.I | 'f' -> Vtype.F | 'd' -> Vtype.D | _ -> assert false
let sig_of s = String.concat "" (List.init (String.length s) (fun i -> "%" ^ String.make 1 s.[i]))

module Cases (T : Target.S) = struct
  module V = Vcode.Make (T)
  module DP = Dpf.Make (T)
  module ASH = Ash.Make (T)
  module J = Vmjit.Jit (T)
  module TC = Tcc.Tcc_compile.Make (T)

  let base = 0x10000
  let callee = Gen.Jaddr 0x4000

  (* a register of class [cls], or of the other class when the port has
     none left (SPARC has no FP vars) *)
  let reg g ~cls t =
    match V.getreg g ~cls t with
    | Some r -> r
    | None -> V.getreg_exn g ~cls:(match cls with `Temp -> `Var | `Var -> `Temp) t

  let set_value g t r k =
    if Vtype.is_float t then V.setf g t r (float_of_int k +. 0.5)
    else V.set g t r (Int64.of_int k)

  (* incoming parameters: leaf returns its first int parameter; the
     framed variant spills every parameter to a local *)
  let lambda_case ~leaf letters =
    let g, args = V.lambda ~base ~leaf (sig_of letters) in
    let tys = Array.init (String.length letters) (fun i -> vtype_of letters.[i]) in
    if not leaf then
      Array.iteri (fun i a -> V.st_local g (V.local g tys.(i)) a) args;
    (match String.index_opt letters 'i' with
    | Some i -> V.ret g Vtype.I (Some args.(i))
    | None -> V.ret g Vtype.V None);
    V.end_gen g

  (* outgoing arguments from fresh registers holding constants *)
  let call_case letters =
    let g, _ = V.lambda ~base "" in
    let args =
      List.init (String.length letters) (fun i ->
          let t = vtype_of letters.[i] in
          let r = reg g ~cls:`Temp t in
          set_value g t r (i + 1);
          (t, r))
    in
    List.iter (fun (t, r) -> V.push_arg g t r) args;
    V.do_call g callee;
    let r = reg g ~cls:`Temp Vtype.I in
    V.retval g Vtype.I r;
    V.ret g Vtype.I (Some r);
    V.end_gen g

  (* every int temp holds a constant, then all are passed in pool order
     or reversed: on PPC and SPARC the temps overlap the argument
     registers, so the shuffle has cycles *)
  let temps_case ~rev =
    let g, _ = V.lambda ~base "" in
    let rec take acc = match V.getreg g ~cls:`Temp Vtype.I with Some r -> take (r :: acc) | None -> acc in
    let temps = take [] in
    List.iteri (fun i r -> V.set g Vtype.I r (Int64.of_int (i + 1))) temps;
    let temps = if rev then temps else List.rev temps in
    let n = min (List.length temps) 6 in
    List.iteri (fun i r -> if i < n then V.push_arg g Vtype.I r) temps;
    V.do_call g callee;
    V.ret g Vtype.V None;
    V.end_gen g

  (* incoming parameters passed on permuted *)
  let permute_case () =
    let g, p = V.lambda ~base "%i%i%i" in
    List.iter (fun i -> V.push_arg g Vtype.I p.(i)) [ 2; 0; 1 ];
    V.do_call g callee;
    V.ret g Vtype.V None;
    V.end_gen g

  let leaf_ret_case t =
    let g, p = V.lambda ~base ~leaf:true ("%" ^ Vtype.to_string t ^ "%" ^ Vtype.to_string t) in
    V.ret g t (Some p.(1));
    V.end_gen g

  let call_ret_case ~cls t =
    let g, _ = V.lambda ~base "" in
    let r = reg g ~cls t in
    V.do_call g callee;
    V.retval g t r;
    V.ret g t (Some r);
    V.end_gen g

  let callee_saved_case () =
    let g, _ = V.lambda ~base "" in
    let rec take t acc = match V.getreg g ~cls:`Var t with Some r -> take t (r :: acc) | None -> acc in
    let ints = take Vtype.I [] and dbls = take Vtype.D [] in
    List.iteri (fun i r -> V.set g Vtype.I r (Int64.of_int (i + 7))) ints;
    List.iteri (fun i r -> V.setf g Vtype.D r (float_of_int i +. 0.25)) dbls;
    (match ints with
    | acc :: rest ->
      List.iter (fun r -> V.arith g Op.Add Vtype.I acc acc r) rest;
      V.ret g Vtype.I (Some acc)
    | [] -> V.ret g Vtype.V None);
    V.end_gen g

  let fimm_case () =
    let g, p = V.lambda ~base ~leaf:true "%i" in
    let f = reg g ~cls:`Temp Vtype.F and d = reg g ~cls:`Temp Vtype.D in
    let d2 = reg g ~cls:`Temp Vtype.D in
    V.setf g Vtype.F f 1.5;
    V.setf g Vtype.D d 2.25;
    V.cvt g ~from:Vtype.I ~to_:Vtype.D d2 p.(0);
    V.arith g Op.Add Vtype.D d d d2;
    V.cvt g ~from:Vtype.F ~to_:Vtype.D d2 f;
    V.arith g Op.Mul Vtype.D d d d2;
    V.ret g Vtype.D (Some d);
    V.end_gen g

  (* fixed-seed client output *)
  let rng () = Random.State.make [| 3 |]

  let dpf () =
    let rng = rng () in
    let filters =
      List.init 12 (fun fid ->
          Dpf.Filter.tcpip_session ~fid ~dst_ip:0x0A000001 ~dst_port:(1 + Random.State.int rng 65535))
    in
    [ (DP.compile ~base ~table_base:0x200000 filters).Dpf.code ]

  let ash () =
    let k = Random.State.bits (rng ()) in
    [ ASH.gen_ash ~base [ Ash.Copy; Ash.Checksum; Ash.Byteswap; Ash.Xorkey k ] ]

  let jit () =
    let rng = rng () in
    let c1 = Random.State.int rng 100 and c2 = Random.State.int rng 100 in
    let prog =
      Vmjit.(
        assemble
          [
            Push 0; Store 1; Push 0; Store 2; Label `Loop; Load 2; Load 0; Lt; Jz `End;
            Load 1; Load 2; Push c1; Mul; Add; Push c2; Add; Store 1;
            Load 2; Push 1; Add; Store 2; Jmp `Loop; Label `End; Load 1; Ret;
          ])
    in
    [ J.translate ~base prog ]

  let tcc src () = List.map snd (TC.compile ~base ~data_base:0x68000 src).TC.funcs

  let cases : (string * (unit -> Vcode.code list)) list =
    let one f () = [ f () ] in
    List.concat
      [
        List.concat_map
          (fun p ->
            List.concat_map
              (fun n ->
                let l = String.sub p 0 n in
                [
                  (Printf.sprintf "lambda-leaf-%s-%d" p n, one (fun () -> lambda_case ~leaf:true l));
                  (Printf.sprintf "lambda-frame-%s-%d" p n, one (fun () -> lambda_case ~leaf:false l));
                ])
              (List.init 11 Fun.id))
          patterns;
        List.map
          (fun l -> ("call-" ^ l, one (fun () -> call_case l)))
          [ ""; "i"; "f"; "d"; "iiiiii"; "idfidifi"; "ddff"; "fdif"; "iiiiiiii"; "dddd"; "ifffi" ];
        [
          ("call-temps", one (fun () -> temps_case ~rev:false));
          ("call-temps-rev", one (fun () -> temps_case ~rev:true));
          ("call-permute", one permute_case);
          ("callee-saved", one callee_saved_case);
          ("fimm", one fimm_case);
        ];
        List.concat_map
          (fun t ->
            let n = Vtype.to_string t in
            [
              ("ret-leaf-" ^ n, one (fun () -> leaf_ret_case t));
              ("retval-temp-" ^ n, one (fun () -> call_ret_case ~cls:`Temp t));
              ("retval-var-" ^ n, one (fun () -> call_ret_case ~cls:`Var t));
            ])
          Vtype.[ I; U; L; UL; P; C; US; F; D ];
        [
          ("dpf", dpf);
          ("ash", ash);
          ("vmjit", jit);
          ("tcc-pathfinder", tcc Dpf.Pathfinder.source);
          ("tcc-interp", tcc Vmjit.interpreter_source);
        ];
      ]

  let digests () =
    List.map
      (fun (name, f) ->
        (T.desc.Machdesc.name ^ "/" ^ name, hex (String.concat "|" (List.map digest_code (f ())))))
      cases
end

module Mips = Cases (Vmips.Mips_backend)
module Ppc = Cases (Vppc.Ppc_backend)
module Sparc = Cases (Vsparc.Sparc_backend)
module Alpha = Cases (Valpha.Alpha_backend)

let actual () = List.concat [ Mips.digests (); Ppc.digests (); Sparc.digests (); Alpha.digests () ]

(* [codegen_pin.expected]: one "port/case digest" line per entry *)
let expected () =
  let path =
    List.find Sys.file_exists [ "codegen_pin.expected"; "test/codegen_pin.expected" ]
  in
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ k; v ] -> Some (k, v)
         | _ -> None)

let test_digests () =
  let got = actual () and expected = expected () in
  let diffs = List.filter (fun (k, v) -> List.assoc_opt k expected <> Some v) got in
  if diffs <> [] || List.length expected <> List.length got then begin
    print_endline "current digests (the whole expected file):";
    List.iter (fun (k, v) -> Printf.printf "%s %s\n" k v) got;
    List.iter
      (fun (k, v) ->
        Printf.printf "changed: %s %s -> %s\n" k
          (Option.value ~default:"(none)" (List.assoc_opt k expected)) v)
      diffs
  end;
  check Alcotest.int "changed entries" 0 (List.length diffs);
  check Alcotest.int "entry count" (List.length expected) (List.length got)

(* ------------------------------------------------------------------ *)
(* Simulator placement, literal locations                              *)

(* A harness call to [Engine.halt_addr] places the arguments and stops
   before executing anything, leaving them where the convention put
   them. *)
let halt = Vmachine.Engine.halt_addr

let test_mips_places () =
  let module S = Vmips.Mips_sim in
  let m = S.create Vmachine.Mconfig.test_config in
  let sp = m.S.stack_top land lnot 7 in
  let w off = Vmachine.Mem.read_u32 m.S.mem (sp + off) in
  (* slots: i0 -> $a0; d aligns to slot 2 -> $f12; i4 -> sp+32;
     i5 -> sp+36; f6 -> sp+40 (FP registers only cover slots < 4) *)
  S.call m ~entry:halt [ S.Int 1; S.Double 2.5; S.Int 3; S.Int 4; S.Single 5.5 ];
  check Alcotest.int "$4" 1 m.S.st.S.regs.(4);
  check (Alcotest.float 0.) "$f12" 2.5 (S.get_double m.S.st 12);
  check Alcotest.int "sp+32" 3 (w 32);
  check Alcotest.int "sp+36" 4 (w 36);
  check Alcotest.int "sp+40" (Int32.to_int (Int32.bits_of_float 5.5)) (w 40);
  (* two FP args take $f12/$f14, then an int in slot 2 -> $a2, a
     double aligned to slot 4 -> sp+32 *)
  S.call m ~entry:halt [ S.Single 1.5; S.Single 2.5; S.Int 7; S.Double 9.25 ];
  check (Alcotest.float 0.) "$f12" 1.5 (S.get_single m.S.st 12);
  check (Alcotest.float 0.) "$f14" 2.5 (S.get_single m.S.st 14);
  check Alcotest.int "$6" 7 m.S.st.S.regs.(6);
  check Alcotest.int64 "sp+32" (Int64.bits_of_float 9.25) (Vmachine.Mem.read_u64 m.S.mem (sp + 32))

let test_ppc_places () =
  let module S = Vppc.Ppc_sim in
  let m = S.create Vmachine.Mconfig.test_config in
  let sp = m.S.stack_top land lnot 7 in
  (* ints count r3.., FP args f1.. independently *)
  S.call m ~entry:halt [ S.Int 1; S.Double 2.5; S.Int 3; S.Single 4.5 ];
  check Alcotest.int "r3" 1 m.S.st.S.regs.(3);
  check Alcotest.int "r4" 3 m.S.st.S.regs.(4);
  check (Alcotest.float 0.) "f1" 2.5 (S.fval m.S.st 1);
  check (Alcotest.float 0.) "f2" 4.5 (S.fval m.S.st 2);
  (* nine ints, a tenth int, and a ninth double: the ninth int goes to
     sp+8, the tenth to sp+12, the double aligns to sp+16 *)
  let ints = List.init 10 (fun i -> S.Int (100 + i)) in
  let dbls = List.init 9 (fun i -> S.Double (float_of_int i +. 0.5)) in
  S.call m ~entry:halt (ints @ dbls);
  check Alcotest.int "r10" 107 m.S.st.S.regs.(10);
  check Alcotest.int "sp+8" 108 (Vmachine.Mem.read_u32 m.S.mem (sp + 8));
  check Alcotest.int "sp+12" 109 (Vmachine.Mem.read_u32 m.S.mem (sp + 12));
  check (Alcotest.float 0.) "f8" 7.5 (S.fval m.S.st 8);
  check Alcotest.int64 "sp+16" (Int64.bits_of_float 8.5) (Vmachine.Mem.read_u64 m.S.mem (sp + 16))

let test_sparc_places () =
  let module S = Vsparc.Sparc_sim in
  let m = S.create Vmachine.Mconfig.test_config in
  let sp = m.S.stack_top land lnot 7 in
  let w off = Vmachine.Mem.read_u32 m.S.mem (sp + off) in
  (* slot k is sp+68+4k.  i0 -> %o0; f1 -> sp+72; d: slot 2 would sit
     at 68+8, not 8-aligned, so it moves to slot 3 -> sp+80; i4 -> slot
     5, %o5 *)
  S.call m ~entry:halt [ S.Int 1; S.Single 2.5; S.Double 3.25; S.Int 4 ];
  check Alcotest.int "%o0" 1 (S.get_reg m.S.st 8);
  check Alcotest.int "sp+72" (Int32.to_int (Int32.bits_of_float 2.5)) (w 72);
  check Alcotest.int64 "sp+80" (Int64.bits_of_float 3.25) (Vmachine.Mem.read_u64 m.S.mem (sp + 80));
  check Alcotest.int "%o5" 4 (S.get_reg m.S.st 13);
  (* a double in slot 1 (68+4 = 72, aligned) takes slots 1-2; the
     ints after it take %o3-%o5, then slot 6 -> sp+92 *)
  S.call m ~entry:halt [ S.Int 5; S.Double 6.5; S.Int 7; S.Int 8; S.Int 9; S.Int 10 ];
  check Alcotest.int "%o0" 5 (S.get_reg m.S.st 8);
  check Alcotest.int64 "sp+72" (Int64.bits_of_float 6.5) (Vmachine.Mem.read_u64 m.S.mem (sp + 72));
  check Alcotest.int "%o3" 7 (S.get_reg m.S.st 11);
  check Alcotest.int "%o5" 9 (S.get_reg m.S.st 13);
  check Alcotest.int "sp+92" 10 (w 92)

let test_alpha_places () =
  let module S = Valpha.Alpha_sim in
  let m = S.create Vmachine.Mconfig.test_config in
  let sp = m.S.stack_top land lnot 15 in
  (* argument k takes register k of its class: $16+k or $f16+k; the
     seventh on is at sp+8(k-6) *)
  S.call m ~entry:halt
    [ S.Int 1; S.Double 2.5; S.Int64 3L; S.Single 4.5; S.Int 5; S.Int 6; S.Int 7; S.Double 8.5 ];
  check Alcotest.int64 "$16" 1L m.S.st.S.regs.(16);
  check (Alcotest.float 0.) "$f17" 2.5 (S.fval m.S.st 17);
  check Alcotest.int64 "$18" 3L m.S.st.S.regs.(18);
  check (Alcotest.float 0.) "$f19" 4.5 (S.fval m.S.st 19);
  check Alcotest.int64 "$21" 6L m.S.st.S.regs.(21);
  check Alcotest.int64 "sp+0" 7L (Vmachine.Mem.read_u64 m.S.mem sp);
  check Alcotest.int64 "sp+8" (Int64.bits_of_float 8.5) (Vmachine.Mem.read_u64 m.S.mem (sp + 8))

(* Singles past the FP argument registers are read by the callee as
   four-byte singles from their stack slot; the harness must store
   them that way. *)
let last_single (module T : Target.S) ~call =
  let module V = Vcode.Make (T) in
  let n = 9 in
  let g, p = V.lambda ~base:0x10000 ~leaf:true (String.concat "" (List.init n (fun _ -> "%f"))) in
  V.ret g Vtype.F (Some p.(n - 1));
  let code = V.end_gen g in
  call code (List.init n (fun i -> Callconv.Single (float_of_int i +. 0.5)))

let test_stack_singles () =
  let install mem (c : Vcode.code) = Vmachine.Mem.install_code mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf in
  let cfg = Vmachine.Mconfig.test_config in
  let check_port name got = check (Alcotest.float 0.) name 8.5 got in
  check_port "mips"
    (last_single (module Vmips.Mips_backend) ~call:(fun c args ->
         let module S = Vmips.Mips_sim in
         let m = S.create cfg in
         install m.S.mem c;
         S.call m ~entry:c.Vcode.entry_addr args;
         S.ret_single m));
  check_port "ppc"
    (last_single (module Vppc.Ppc_backend) ~call:(fun c args ->
         let module S = Vppc.Ppc_sim in
         let m = S.create cfg in
         install m.S.mem c;
         S.call m ~entry:c.Vcode.entry_addr args;
         S.ret_single m));
  check_port "sparc"
    (last_single (module Vsparc.Sparc_backend) ~call:(fun c args ->
         let module S = Vsparc.Sparc_sim in
         let m = S.create cfg in
         install m.S.mem c;
         S.call m ~entry:c.Vcode.entry_addr args;
         S.ret_single m));
  check_port "alpha"
    (last_single (module Valpha.Alpha_backend) ~call:(fun c args ->
         let module S = Valpha.Alpha_sim in
         let m = S.create cfg in
         install m.S.mem c;
         S.call m ~entry:c.Vcode.entry_addr args;
         S.ret_single m))

let () =
  Alcotest.run "codegen_pin"
    [
      ("digests", [ Alcotest.test_case "all ports" `Quick test_digests ]);
      ( "sim placement",
        [
          Alcotest.test_case "mips" `Quick test_mips_places;
          Alcotest.test_case "ppc" `Quick test_ppc_places;
          Alcotest.test_case "sparc" `Quick test_sparc_places;
          Alcotest.test_case "alpha" `Quick test_alpha_places;
          Alcotest.test_case "stack singles reach the callee" `Quick test_stack_singles;
        ] );
    ]
