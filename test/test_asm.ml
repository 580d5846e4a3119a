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
      located diagnostic, never an uncaught exception.
   4. the oracle: on the workloads/ corpus, the negative suite and
      3,000 seeded inputs, Vasm returns exactly what the two-pass
      assembler kept in Vasm_oracle returns (the same image, or the
      same first diagnostic), and neither raises. *)

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
    (* an image no machine memory holds is refused while it is sized,
       before any word array is made for it; neither case allocates the span *)
    ("org-past-memory", ".org 0x3FFFFFFFFFFFFFF0\nmain: .word 1\n", 1, "largest machine memory");
    ("space-wraps", ".space 0x3FFFFFFFFFFFFFF0\n.space 0x3FFFFFFFFFFFFFF0\n", 1,
      "largest machine memory");
    ("span-one-past-cap", ".org 0x80FFFC\n.word 1, 2\n", 2, "largest machine memory");
    (* a register number or literal too long for an int is located, not a
       [Failure] from [int_of_string], and a hex literal at or above 2^62
       is refused rather than wrapped negative *)
    ("register-number-overflow", "addu $99999999999999999999, $t0, $t1\n", 1, "out of range");
    ("float-register-overflow", "add.d $f99999999999999999999, $f0, $f2\n", 1, "out of range");
    ("li-hex-wraps", "li $t0, 0x7FFFFFFFFFFFFFFF\n", 1, "does not fit in an int");
    ("addiu-hex-wraps", "addiu $t0, $t1, 0x7FFFFFFFFFFFFFFF\n", 1, "does not fit in an int");
    ("word-hex-wraps", ".word 0x7FFFFFFFFFFFFFFF\n", 1, "does not fit in an int");
    ("mem-offset-hex-wraps", "lw $t0, 0x7FFFFFFFFFFFFFFF($sp)\n", 1, "does not fit in an int");
    ("decimal-overflow", "li $t0, -99999999999999999999\n", 1, "does not fit in an int");
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

(* ------------------------------------------------------------------ *)
(* The two-pass oracle                                                 *)

let show = function
  | Ok img -> Printf.sprintf "image of %d words" (Array.length img.Vasm.words)
  | Error d -> "error " ^ Vasm.diag_to_string d

let agree ?(base = 0x10000) src =
  let run name f =
    match f src with
    | r -> r
    | exception e -> Alcotest.failf "%s raised %s on:\n%s" name (Printexc.to_string e) src
  in
  let got = run "Vasm" (Vasm.assemble ~base) and want = run "Vasm_oracle" (Vasm_oracle.assemble ~base) in
  if got <> want then
    Alcotest.failf "on base 0x%x:\n%s\nVasm: %s\noracle: %s" base src (show got) (show want)

let corpus () =
  List.map
    (fun (_, path) -> In_channel.with_open_bin path In_channel.input_all)
    (Workloads.corpus_programs ())

let test_oracle_corpus () =
  let programs = corpus () in
  Alcotest.(check int) "six corpus programs" 6 (List.length programs);
  List.iter (fun src -> agree src) programs

let test_oracle_negative () = List.iter (fun (_, src, _, _) -> agree src) neg_cases

(* the assembler's vocabulary, with boundary and overlong literals and
   register numbers, labels defined and undefined, and stray tokens *)
let mnemonics =
  [| "nop"; "sll"; "srl"; "sra"; "sllv"; "srlv"; "srav"; "jr"; "jalr"; "mfhi"; "mflo"; "mult";
     "multu"; "div"; "divu"; "addu"; "subu"; "and"; "or"; "xor"; "nor"; "slt"; "sltu"; "addiu";
     "slti"; "sltiu"; "andi"; "ori"; "xori"; "lui"; "j"; "jal"; "beq"; "bne"; "blez"; "bgtz";
     "bltz"; "bgez"; "lb"; "lbu"; "lh"; "lhu"; "lw"; "sb"; "sh"; "sw"; "lwc1"; "swc1"; "ldc1";
     "sdc1"; "mtc1"; "mfc1"; "bc1t"; "bc1f"; "break"; "li"; "la"; "move"; "not"; "neg"; "b";
     "beqz"; "bnez"; "blt"; "bge"; "bgt"; "ble"; "add.s"; "sub.d"; "mul.w"; "div.s"; "mov.d";
     "neg.s"; "abs.d"; "sqrt.s"; "trunc.w.d"; "cvt.s.w"; "cvt.d.s"; "c.eq.d"; "c.lt.s"; "c.le.w";
     "add.q"; "trunc.s.d"; "c.gt.s"; "frob"; "Addu" |]

let directives = [| ".org"; ".align"; ".space"; ".word"; ".half"; ".byte"; ".asciiz"; ".text" |]

let registers =
  Array.append
    (Array.map (fun n -> "$" ^ n) A.reg_names)
    [| "$fp"; "$0"; "$31"; "$32"; "$007"; "$99999999999999999999"; "$f0"; "$f12"; "$f31"; "$f32";
       "$f99999999999999999999"; "$f"; "$zz"; "$t0.x"; "$zero0"; "$" |]

let numbers =
  [| "0"; "1"; "-1"; "4"; "31"; "32"; "12"; "13"; "32767"; "32768"; "-32768"; "-32769"; "65535";
     "65536"; "0xFFFF"; "0x10000"; "0x7FFFFFFF"; "0xFFFFFFFF"; "0x100000000"; "-0x80000000";
     "-0x80000001"; "4294967295"; "1048575"; "1048576"; "0x10008"; "0x10010"; "0x20000004";
     "0x7FFFFFFFFFFFFFFF"; "0x4000000000000000"; "0x3FFFFFFFFFFFFFFF"; "4611686018427387903";
     "4611686018427387904"; "-4611686018427387904"; "99999999999999999999"; "0x"; "0xzz"; "0X1f";
     "-0x10"; "007"; "0x80000" |]

let labels = [| "L1"; "L2"; "L3"; "main"; "loop"; "far"; "nowhere"; ".bad"; "x" |]
let strays = [| ","; ":"; "("; ")"; "\"\\q\""; "\"ab\""; "\"a\\n\\0\""; "\"open"; "#c"; ";c"; "@"; "-"; "\r" |]

let soup_line rs =
  let int = Random.State.int rs in
  let pick a = a.(int (Array.length a)) in
  let operand () =
    match int 9 with
    | 0 | 1 | 2 -> pick registers
    | 3 | 4 -> pick numbers
    | 5 | 6 -> pick labels
    | 7 -> Printf.sprintf "%s(%s)" (pick numbers) (pick registers)
    | _ -> pick strays
  in
  let b = Buffer.create 64 in
  if int 3 = 0 then Buffer.add_string b (pick labels ^ ": ");
  if int 8 = 0 then Buffer.add_string b (pick labels ^ ":");
  (match int 10 with
  | 0 -> ()
  | 1 | 2 -> Buffer.add_string b (pick directives)
  | _ -> Buffer.add_string b (pick mnemonics));
  let n = int 4 in
  for k = 1 to n do
    Buffer.add_string b (if k = 1 then " " else if int 12 = 0 then " " else ", ");
    Buffer.add_string b (operand ())
  done;
  if int 10 = 0 then Buffer.add_string b (" " ^ pick strays);
  Buffer.contents b

let mutate rs src =
  let int = Random.State.int rs in
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let i = int (Array.length lines) in
  let line = lines.(i) in
  let len = String.length line in
  (lines.(i) <-
     match int 5 with
     | 0 -> soup_line rs
     | 1 -> ""
     | 2 when len > 0 ->
       let k = int len in
       String.sub line 0 k ^ String.sub line (k + 1) (len - k - 1)
     | 3 ->
       let k = int (len + 1) in
       String.sub line 0 k ^ soup_line rs ^ String.sub line k (len - k)
     | _ -> line ^ "\n" ^ line);
  String.concat "\n" (Array.to_list lines)

(* A lexically clean program: every token is well formed, most
   operands have the kinds their mnemonic wants, and labels are
   defined once, so the faults that remain are the encoding ones
   (operand kinds and counts, ranges, forward and undefined labels,
   delay slots) whose order the fixups must keep. *)
let signature = function
  | "nop" -> ""
  | "sll" | "srl" | "sra" | "addiu" | "slti" | "sltiu" | "andi" | "ori" | "xori" -> "rri"
  | "jr" | "mfhi" | "mflo" -> "r"
  | "jalr" | "mult" | "multu" | "div" | "divu" | "move" | "not" | "neg" -> "rr"
  | "lui" | "li" | "la" -> "ri"
  | "j" | "jal" | "bc1t" | "bc1f" | "b" -> "t"
  | "beq" | "bne" | "blt" | "bge" | "bgt" | "ble" -> "rrt"
  | "blez" | "bgtz" | "bltz" | "bgez" | "beqz" | "bnez" -> "rt"
  | "lb" | "lbu" | "lh" | "lhu" | "lw" | "sb" | "sh" | "sw" -> "rm"
  | "lwc1" | "swc1" | "ldc1" | "sdc1" -> "fm"
  | "mtc1" | "mfc1" -> "rf"
  | "break" -> "i"
  | mn when String.contains mn '.' -> (
    match String.split_on_char '.' mn with
    | [ ("add" | "sub" | "mul" | "div"); _ ] -> "fff"
    | _ -> "ff")
  | _ -> "rrr"

(* the known mnemonics, grouped by the order their operands are
   checked in, so that each order is drawn as often as the others *)
let groups =
  [| [| "nop" |]; [| "sllv"; "srav"; "addu"; "sltu" |]; [| "sll"; "sra"; "addiu"; "sltiu"; "andi"; "xori" |];
     [| "mult"; "divu" |]; [| "mfhi"; "mflo" |]; [| "jr" |]; [| "jalr" |]; [| "lui" |];
     [| "lw"; "lbu"; "sh"; "sb" |]; [| "lwc1"; "sdc1" |]; [| "mtc1"; "mfc1" |]; [| "move"; "not"; "neg" |];
     [| "j"; "jal" |]; [| "beq"; "bne" |]; [| "blez"; "bgez" |]; [| "bc1t"; "bc1f"; "b" |];
     [| "beqz"; "bnez" |]; [| "blt"; "bge"; "bgt"; "ble" |]; [| "break" |]; [| "li" |]; [| "la" |];
     [| "add.s"; "div.d"; "mul.w" |]; [| "mov.d"; "sqrt.s" |]; [| "trunc.w.d"; "cvt.s.w"; "c.le.d" |] |]

let clean_program rs =
  let int = Random.State.int rs in
  let pick a = a.(int (Array.length a)) in
  (* one line in [bad] is faulty (none if 0): four operands in five of a
     faulty line may have the wrong kind, and one line in four the wrong
     count *)
  let bad = pick [| 0; 3; 8; 20 |] in
  let faulty = ref false in
  let wrong () = !faulty && int 5 > 0 in
  let lines = 1 + int 16 in
  (* every line defines L<line>, so one reference in [lines + 1] is undefined *)
  let label () = Printf.sprintf "L%d" (int (lines + 1)) in
  let imm () =
    match int 8 with
    | 0 -> label ()
    | 1 | 2 | 3 -> string_of_int (int 40 - 8)
    | _ -> pick [| "0"; "31"; "32"; "-1"; "32767"; "32768"; "-32768"; "65535"; "65536"; "0x12345678";
                   "0xFFFFFFFF"; "-0x80000000"; "4294967296"; "1048575"; "1048576"; "0x10000" |]
  in
  let operand want =
    match if wrong () then pick [| 'r'; 'f'; 'i'; 'm'; 't' |] else want with
    | 'r' when int 2 = 0 -> "$" ^ pick (Array.append A.reg_names [| "fp" |])
    | 'r' -> Printf.sprintf "$%d" (int 32)
    | 'f' -> Printf.sprintf "$f%d" (int 32)
    | 'm' -> Printf.sprintf "%s($%d)" (pick [| "0"; "4"; "-8"; "32767"; "-32768"; "12"; "-32769"; "70000" |]) (int 32)
    | 't' when int 4 = 0 -> Printf.sprintf "0x%x" (0x10000 + (4 * int 24) - 16 + if int 8 = 0 then 2 else 0)
    | 't' -> label ()
    | _ -> imm ()
  in
  let line k =
    faulty := bad > 0 && int bad = 0;
    Printf.sprintf "L%d: " k
    ^
    match int 12 with
    | 0 ->
      (* realigned, so the next instruction is not at an odd address *)
      Printf.sprintf "%s %s\n.align 2" (pick [| ".word"; ".half"; ".byte" |])
        (String.concat ", " (List.init (1 + int 3) (fun _ -> imm ())))
    | 1 ->
      pick
        [| ".align 3"; ".space 4"; ".asciiz \"ab\"\n.align 2"; ".asciiz \"\\n\\t\\0\\\\\\\"\"\n.align 2";
           ".space 8"; ".org 0x10080" |]
    | _ ->
      let mn = pick (pick groups) in
      let sg = signature mn in
      let sg = if !faulty && int 4 = 0 then String.sub "rrrr" 0 (int 4) else sg in
      let ctl = String.contains sg 't' || mn = "jr" || mn = "jalr" in
      let ops = String.concat ", " (List.init (String.length sg) (fun i -> operand sg.[i])) in
      Printf.sprintf "%s %s%s" mn ops (if ctl then pick [| "\nnop"; "\nnop"; "\n.word 7"; "" |] else "")
  in
  String.concat "\n" (List.init lines line)

let random_source rs programs =
  let int = Random.State.int rs in
  match int 5 with
  | 0 -> String.init (int 200) (fun _ -> if int 8 = 0 then '\n' else Char.chr (int 256))
  | 1 -> mutate rs (List.nth programs (int (List.length programs)))
  | 2 -> String.concat "\n" (List.init (1 + int 12) (fun _ -> soup_line rs))
  | _ -> clean_program rs

(* every mnemonic with every one to three operands drawn from each
   operand kind, a forward label, an undefined one and a value out of
   every range: which fault is reported first depends on the order the
   operands are checked in *)
let test_oracle_operand_order () =
  let kinds = [ "$t1"; "$f2"; "70000"; "fwd"; "nowhere"; "4($sp)" ] in
  let rec lists k = if k = 0 then [ [] ] else List.concat_map (fun l -> List.map (fun o -> o :: l) kinds) (lists (k - 1)) in
  let operand_lists = List.concat_map lists [ 0; 1; 2; 3 ] in
  Array.iter
    (fun mn ->
      List.iter
        (fun ops -> agree (Printf.sprintf "%s %s\nfwd: nop\n" mn (String.concat ", " ops)))
        operand_lists)
    mnemonics

let test_oracle_random () =
  let programs = corpus () in
  let rs = Random.State.make [| 28 |] in
  for _ = 1 to 3000 do
    let base = match Random.State.int rs 16 with 0 -> 0 | 1 -> 0x20000 | 2 -> 0x10002 | _ -> 0x10000 in
    agree ~base (random_source rs programs)
  done

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
      ( "oracle",
        [
          Alcotest.test_case "corpus" `Quick test_oracle_corpus;
          Alcotest.test_case "negative suite" `Quick test_oracle_negative;
          Alcotest.test_case "operand order" `Quick test_oracle_operand_order;
          Alcotest.test_case "3000 seeded inputs" `Quick test_oracle_random;
        ] );
    ]
