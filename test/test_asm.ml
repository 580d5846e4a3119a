(* Round-trip differential fuzzing and the negative suite for Vasm.

   The assembler is pinned three ways:
   1. encode-differential: random valid instruction programs are
      printed through Mips_asm.disasm and re-assembled; the words must
      equal Mips_asm.encode of the originals (assembler vs backend).
   2. disasm fixpoint: random *words* (canonicalized through
      decode/encode so field dead bits don't alias) disassemble —
      including the .word fallback for undecodable words — and
      re-assemble to the identical image, and the re-disassembly is
      textually identical (asm -> words -> disasm -> asm is closed).
   3. the negative suite: every malformed-input class produces a
      located diagnostic, never an uncaught exception. *)

module A = Vmips.Mips_asm

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Instruction generator over the textual subset                       *)

let is_ctl = function
  | A.J _ | A.Jal _ | A.Jr _ | A.Jalr _ | A.Beq _ | A.Bne _ | A.Blez _ | A.Bgtz _
  | A.Bltz _ | A.Bgez _ | A.Bc1t _ | A.Bc1f _ ->
    true
  | _ -> false

let insn_gen : A.t QCheck.Gen.t =
  let open QCheck.Gen in
  let r = int_bound 31 in
  let fr = int_bound 31 in
  let sh = int_bound 31 in
  let simm = int_range (-32768) 32767 in
  let zimm = int_bound 0xFFFF in
  (* raw branch offset; clamped per-index in [fix_prog] so absolute
     targets stay non-negative *)
  let off = int_range (-40) 100 in
  let fmt = oneofl A.[ FS; FD; FW ] in
  oneof
    [
      (let* d = r and* t = r and* s = sh in
       oneofl [ A.Sll (d, t, s); A.Srl (d, t, s); A.Sra (d, t, s) ]);
      (let* d = r and* t = r and* s = r in
       oneofl [ A.Sllv (d, t, s); A.Srlv (d, t, s); A.Srav (d, t, s) ]);
      (let* s = r in
       return (A.Jr s));
      (let* d = r and* s = r in
       return (A.Jalr (d, s)));
      (let* d = r in
       oneofl [ A.Mfhi d; A.Mflo d ]);
      (let* a = r and* b = r in
       oneofl [ A.Mult (a, b); A.Multu (a, b); A.Div (a, b); A.Divu (a, b) ]);
      (let* d = r and* a = r and* b = r in
       oneofl
         A.
           [
             Addu (d, a, b); Subu (d, a, b); And (d, a, b); Or (d, a, b); Xor (d, a, b);
             Nor (d, a, b); Slt (d, a, b); Sltu (d, a, b);
           ]);
      (let* t = r and* s = r and* i = simm in
       oneofl [ A.Addiu (t, s, i); A.Slti (t, s, i); A.Sltiu (t, s, i) ]);
      (let* t = r and* s = r and* i = zimm in
       oneofl [ A.Andi (t, s, i); A.Ori (t, s, i); A.Xori (t, s, i) ]);
      (let* t = r and* i = zimm in
       return (A.Lui (t, i)));
      (let* t = int_bound 0x3FFFFFF in
       oneofl [ A.J t; A.Jal t ]);
      (let* a = r and* b = r and* o = off in
       oneofl [ A.Beq (a, b, o); A.Bne (a, b, o) ]);
      (let* a = r and* o = off in
       oneofl [ A.Blez (a, o); A.Bgtz (a, o); A.Bltz (a, o); A.Bgez (a, o) ]);
      (let* t = r and* b = r and* o = simm in
       oneofl
         A.
           [
             Lb (t, b, o); Lbu (t, b, o); Lh (t, b, o); Lhu (t, b, o); Lw (t, b, o);
             Sb (t, b, o); Sh (t, b, o); Sw (t, b, o);
           ]);
      (let* t = fr and* b = r and* o = simm in
       oneofl [ A.Lwc1 (t, b, o); A.Swc1 (t, b, o); A.Ldc1 (t, b, o); A.Sdc1 (t, b, o) ]);
      (let* t = r and* f = fr in
       oneofl [ A.Mtc1 (t, f); A.Mfc1 (t, f) ]);
      (let* m = fmt and* d = fr and* a = fr and* b = fr in
       oneofl
         A.[ Fadd (m, d, a, b); Fsub (m, d, a, b); Fmul (m, d, a, b); Fdiv (m, d, a, b) ]);
      (let* m = fmt and* d = fr and* a = fr in
       oneofl A.[ Fmov (m, d, a); Fneg (m, d, a); Fabs (m, d, a); Fsqrt (m, d, a) ]);
      (let* to_ = fmt and* from = fmt and* d = fr and* a = fr in
       return (A.Cvt (to_, from, d, a)));
      (let* m = fmt and* d = fr and* a = fr in
       return (A.Truncw (m, d, a)));
      (let* c = oneofl A.[ CEq; CLt; CLe ] and* m = fmt and* a = fr and* b = fr in
       return (A.Fcmp (c, m, a, b)));
      (let* o = off in
       oneofl [ A.Bc1t o; A.Bc1f o ]);
      (let* c = int_bound 0xFFFFF in
       return (A.Break c));
      return A.Nop;
    ]

(* clamp branch offsets so absolute targets stay in range, and break
   up back-to-back control transfers (the assembler rejects a branch
   in a delay slot by design) *)
let fix_prog prog =
  let clamp idx = function
    | A.Beq (a, b, o) -> A.Beq (a, b, max (-(idx + 1)) o)
    | A.Bne (a, b, o) -> A.Bne (a, b, max (-(idx + 1)) o)
    | A.Blez (a, o) -> A.Blez (a, max (-(idx + 1)) o)
    | A.Bgtz (a, o) -> A.Bgtz (a, max (-(idx + 1)) o)
    | A.Bltz (a, o) -> A.Bltz (a, max (-(idx + 1)) o)
    | A.Bgez (a, o) -> A.Bgez (a, max (-(idx + 1)) o)
    | A.Bc1t o -> A.Bc1t (max (-(idx + 1)) o)
    | A.Bc1f o -> A.Bc1f (max (-(idx + 1)) o)
    | i -> i
  in
  let rec dedelay prev = function
    | [] -> []
    | i :: tl ->
      let i = if prev && is_ctl i then A.Nop else i in
      i :: dedelay (is_ctl i) tl
  in
  dedelay false (List.mapi clamp prog)

let prog_gen = QCheck.Gen.(map fix_prog (list_size (int_range 1 40) insn_gen))

let listing ~base words =
  String.concat "\n" (List.mapi (fun i w -> A.disasm ~addr:(base + (4 * i)) w) words)

let prog_print prog = listing ~base:0 (List.map A.encode prog)

(* 1: assembler vs backend encoder, over disasm's own syntax *)
let encode_differential =
  QCheck.Test.make ~count:300 ~name:"assemble(disasm(encode p)) = encode p"
    (QCheck.make ~print:prog_print prog_gen)
    (fun prog ->
      let words = List.map A.encode prog in
      let text = listing ~base:0 words in
      match Vasm.assemble ~base:0 text with
      | Error d ->
        QCheck.Test.fail_reportf "assemble failed %s on:\n%s" (Vasm.diag_to_string d) text
      | Ok img ->
        if Array.to_list img.Vasm.words <> words then
          QCheck.Test.fail_reportf "word mismatch on:\n%s" text
        else true)

(* 2: disasm -> asm fixpoint on canonical words, .word fallback included *)
let canon_word w =
  match A.decode w with t -> A.encode t | exception A.Bad_insn _ -> w

let is_ctl_word w = match A.decode w with t -> is_ctl t | exception A.Bad_insn _ -> false

let raw_fix words =
  let rec dedelay prev = function
    | [] -> []
    | w :: tl ->
      let w = if prev && is_ctl_word w then 0 else w in
      w :: dedelay (is_ctl_word w) tl
  in
  dedelay false (List.map canon_word words)

let raw_base = 0x20000 (* far enough up that a -32768-word branch target stays >= 0 *)

let raw_gen = QCheck.Gen.(map raw_fix (list_size (int_range 1 40) (int_bound 0xFFFFFFFF)))

let disasm_fixpoint =
  QCheck.Test.make ~count:300 ~name:"disasm -> asm fixpoint on canonical words"
    (QCheck.make ~print:(fun ws -> listing ~base:raw_base ws) raw_gen)
    (fun words ->
      let text = listing ~base:raw_base words in
      match Vasm.assemble ~base:raw_base text with
      | Error d ->
        QCheck.Test.fail_reportf "assemble failed %s on:\n%s" (Vasm.diag_to_string d) text
      | Ok img ->
        if Array.to_list img.Vasm.words <> words then
          QCheck.Test.fail_reportf "word mismatch on:\n%s" text
        else if listing ~base:raw_base (Array.to_list img.Vasm.words) <> text then
          QCheck.Test.fail_reportf "re-disassembly not a fixpoint on:\n%s" text
        else true)

(* ------------------------------------------------------------------ *)
(* Unit tests: labels, pseudos, directives                             *)

let words_of img = Array.to_list img.Vasm.words

let check_words name expected img = Alcotest.(check (list int)) name expected (words_of img)

let asm_exn src =
  match Vasm.assemble ~base:0x10000 src with
  | Ok img -> img
  | Error d -> Alcotest.failf "unexpected assembly error %s" (Vasm.diag_to_string d)

let test_labels () =
  let img =
    asm_exn "main:\n  li $t0, 10\nloop:\n  addiu $t0, $t0, -1\n  bnez $t0, loop\n  nop\n  jr $ra\n  nop\n"
  in
  check_words "countdown"
    (List.map A.encode
       [
         A.Addiu (8, 0, 10); A.Addiu (8, 8, -1); A.Bne (8, 0, -2); A.Nop; A.Jr 31; A.Nop;
       ])
    img;
  Alcotest.(check int) "entry is main" 0x10000 img.Vasm.entry;
  Alcotest.(check (option int)) "loop symbol" (Some 0x10004)
    (List.assoc_opt "loop" img.Vasm.symbols)

let test_pseudos () =
  let img =
    asm_exn
      "li $t0, 0x12345678\nla $t1, buf\nmove $t2, $t3\nnot $t4, $t5\nneg $t6, $t7\nbuf: .word 7\n"
  in
  check_words "pseudo expansions"
    (List.map A.encode
       [
         A.Lui (8, 0x1234); A.Ori (8, 8, 0x5678); (* li wide *)
         A.Lui (9, 0x0001); A.Ori (9, 9, 0x001C); (* la buf = 0x1001c *)
         A.Addu (10, 11, 0); A.Nor (12, 13, 0); A.Subu (14, 0, 15);
       ]
    @ [ 7 ])
    img;
  Alcotest.(check int) "entry defaults to base" 0x10000 img.Vasm.entry

let test_branch_pseudos () =
  let img = asm_exn "blt $t0, $t1, out\nnop\nout: nop\n" in
  check_words "blt = slt + bne"
    (List.map A.encode [ A.Slt (1, 8, 9); A.Bne (1, 0, 1); A.Nop; A.Nop ])
    img;
  let img = asm_exn "bge $t0, $t1, out\nnop\nout: nop\n" in
  check_words "bge = slt + beq"
    (List.map A.encode [ A.Slt (1, 8, 9); A.Beq (1, 0, 1); A.Nop; A.Nop ])
    img

let test_directives () =
  let img =
    asm_exn ".org 0x10008\nv: .word 1, v\n.byte 1, 2\n.align 1\n.half 0x1234\n.asciiz \"ab\"\n"
  in
  check_words "data image" [ 0; 0; 1; 0x10008; 0x12340201; 0x00006261 ] img

let test_useful_delay_slot () =
  (* a non-control instruction after a branch is the delay slot, not
     an error *)
  let img = asm_exn "jr $ra\naddiu $sp, $sp, 12\n" in
  check_words "filled delay slot" (List.map A.encode [ A.Jr 31; A.Addiu (29, 29, 12) ]) img

(* ------------------------------------------------------------------ *)
(* Negative suite: located diagnostics, never an uncaught exception    *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let neg_cases =
  [
    ("unknown-mnemonic", "frob $t0, $t1\n", 1, "unknown mnemonic");
    ("unknown-register", "addu $t0, $zz, $t1\n", 1, "unknown register");
    ("register-number-range", "addu $32, $t0, $t1\n", 1, "out of range");
    ("simm16-range", "addiu $t0, $t1, 40000\n", 1, "out of signed 16-bit range");
    ("zimm16-range", "ori $t0, $t1, -1\n", 1, "out of 16-bit range");
    ("shamt-range", "sll $t0, $t1, 32\n", 1, "shift amount");
    ("mem-offset-range", "lw $t0, 70000($sp)\n", 1, "out of signed 16-bit range");
    ( "branch-offset-range",
      "beq $zero, $zero, far\nnop\n.org 0x80000\nfar: nop\n",
      1,
      "out of range" );
    ("undefined-label", "j nowhere\nnop\n", 1, "undefined label");
    ("duplicate-label", "a: nop\na: nop\n", 2, "duplicate label");
    ("branch-in-delay-slot", "beq $zero, $zero, x\nj x\nx: nop\n", 2, "delay slot");
    ("pseudo-in-delay-slot", "b out\nblt $t0, $t1, out\nout: nop\n", 2, "delay slot");
    ("operand-count", "addu $t0, $t1\n", 1, "expects 3 operands");
    ("operand-kind", "lw $t0, $t1\n", 1, "memory operand");
    ("li-32bit-range", "li $t0, 5000000000\n", 1, "32 bits");
    ("li-wants-literal", "li $t0, somewhere\n", 1, "numeric immediate");
    ("word-needs-value", ".word\n", 1, "at least one");
    ("misaligned-insn", ".byte 1, 2\nnop\n", 2, "unaligned");
    ("org-backward", "nop\n.org 0x0\n", 2, "backward");
    ("break-range", "break 2000000\n", 1, "break code");
    ("jump-region", "j 0x20000004\nnop\n", 1, "256MB region");
    ("bad-hex", "li $t0, 0xzz\n", 1, "malformed hex");
    ("unterminated-string", ".asciiz \"oops\n", 1, "unterminated string");
    ("stray-token", "addu $t0, $t1, $t2 extra\n", 1, "junk after operand");
    (* an image no machine memory holds is refused in pass 1, before pass 2
       would size a word array by it; neither case allocates the span *)
    ("org-past-memory", ".org 0x3FFFFFFFFFFFFFF0\nmain: .word 1\n", 1, "largest machine memory");
    ("space-wraps", ".space 0x3FFFFFFFFFFFFFF0\n.space 0x3FFFFFFFFFFFFFF0\n", 1,
      "largest machine memory");
    ("span-one-past-cap", ".org 0x80FFFC\n.word 1, 2\n", 2, "largest machine memory");
  ]

let test_negative () =
  List.iter
    (fun (name, src, exp_line, exp_sub) ->
      match Vasm.assemble ~base:0x10000 src with
      | exception e -> Alcotest.failf "%s: uncaught exception %s" name (Printexc.to_string e)
      | Ok _ -> Alcotest.failf "%s: assembled successfully, expected a diagnostic" name
      | Error d ->
        if d.Vasm.line <> exp_line then
          Alcotest.failf "%s: diagnostic on line %d (col %d: %s), expected line %d" name
            d.Vasm.line d.Vasm.col d.Vasm.msg exp_line;
        if d.Vasm.col <= 0 then Alcotest.failf "%s: missing column in diagnostic" name;
        if not (contains d.Vasm.msg exp_sub) then
          Alcotest.failf "%s: diagnostic %S does not mention %S" name d.Vasm.msg exp_sub)
    neg_cases

let test_file_missing () =
  match Vasm.assemble_file "/nonexistent/path.asm" with
  | Ok _ -> Alcotest.fail "assembled a nonexistent file"
  | Error d -> Alcotest.(check int) "line 0 for io errors" 0 d.Vasm.line

let () =
  Alcotest.run "vasm"
    [
      ( "roundtrip",
        [ qtest encode_differential; qtest disasm_fixpoint ] );
      ( "units",
        [
          Alcotest.test_case "labels" `Quick test_labels;
          Alcotest.test_case "pseudos" `Quick test_pseudos;
          Alcotest.test_case "branch pseudos" `Quick test_branch_pseudos;
          Alcotest.test_case "directives" `Quick test_directives;
          Alcotest.test_case "useful delay slot" `Quick test_useful_delay_slot;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "negative suite" `Quick test_negative;
          Alcotest.test_case "missing file" `Quick test_file_missing;
        ] );
    ]
