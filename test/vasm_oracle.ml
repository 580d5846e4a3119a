(* The oracle of the differential assembler tests: Vasm as it was
   before the one-pass scanner, a two-pass assembler that lexes each
   line into a token list, parses it into a statement list, and encodes
   the statements in a second pass.  It is kept here verbatim apart from
   two fixes the scanner also carries: a register number too long for an
   int is an "out of range" diagnostic (the old lexer let
   [int_of_string]'s [Failure] escape), and a literal whose magnitude
   does not fit in an int is refused (the old lexer wrapped a hex
   literal at or above 2^62 negative).

   [assemble src] returns what [Vasm.assemble] must return on [src]:
   the same image, or the same first diagnostic.  Its diagnostic order
   is the reference: every error of the first pass (lexing, parsing,
   labels, sizing) wins over every error of the second (ranges, operand
   kinds, undefined labels, delay slots), and within a pass the earlier
   statement wins. *)

module A = Vmips.Mips_asm

type diag = Vasm.diag = { line : int; col : int; msg : string }

exception Error = Vasm.Error

let error ~line ~col fmt = Printf.ksprintf (fun msg -> raise (Error { line; col; msg })) fmt

type image = Vasm.image = {
  base : int;
  words : int array;
  entry : int;
  symbols : (string * int) list;
}

(* ------------------------------------------------------------------ *)
(* Lexing                                                              *)

type tok =
  | Tid of string (* mnemonic / label / directive / symbol reference *)
  | Treg of int
  | Tfreg of int
  | Tint of int
  | Tstr of string
  | Tcomma
  | Tcolon
  | Tlparen
  | Trparen

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '.'
let is_id_char c = is_id_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let reg_index =
  let tbl = Hashtbl.create 64 in
  Array.iteri (fun i n -> Hashtbl.replace tbl n i) A.reg_names;
  Hashtbl.replace tbl "fp" 30;
  fun name -> Hashtbl.find_opt tbl name

(* one source line -> [(token, 1-based col)] *)
let lex_line ~line s =
  let n = String.length s in
  let toks = ref [] in
  let push t col = toks := (t, col + 1) :: !toks in
  let i = ref 0 in
  let err col fmt = error ~line ~col:(col + 1) fmt in
  (try
     while !i < n do
       let c = s.[!i] in
       if c = ' ' || c = '\t' || c = '\r' then incr i
       else if c = '#' || c = ';' then raise Exit
       else if c = ',' then (push Tcomma !i; incr i)
       else if c = ':' then (push Tcolon !i; incr i)
       else if c = '(' then (push Tlparen !i; incr i)
       else if c = ')' then (push Trparen !i; incr i)
       else if c = '$' then begin
         let start = !i in
         incr i;
         let b = Buffer.create 4 in
         while !i < n && is_id_char s.[!i] do
           Buffer.add_char b s.[!i];
           incr i
         done;
         let name = Buffer.contents b in
         if name = "" then err start "bare '$' is not a register";
         let all_digits lo =
           let ok = ref (String.length name > lo) in
           String.iteri (fun k c -> if k >= lo && not (is_digit c) then ok := false) name;
           !ok
         in
         (* a number too long for an int is as out of range as 32 *)
         if all_digits 0 then begin
           match int_of_string_opt name with
           | Some v when v <= 31 -> push (Treg v) start
           | _ -> err start "register number %s out of range (0..31)" name
         end
         else if name.[0] = 'f' && all_digits 1 then begin
           let digits = String.sub name 1 (String.length name - 1) in
           match int_of_string_opt digits with
           | Some v when v <= 31 -> push (Tfreg v) start
           | _ -> err start "float register $f%s out of range ($f0..$f31)" digits
         end
         else
           match reg_index name with
           | Some v -> push (Treg v) start
           | None -> err start "unknown register $%s" name
       end
       else if is_digit c || (c = '-' && !i + 1 < n && is_digit s.[!i + 1]) then begin
         let start = !i in
         if c = '-' then incr i;
         let hex = !i + 1 < n && s.[!i] = '0' && (s.[!i + 1] = 'x' || s.[!i + 1] = 'X') in
         if hex then i := !i + 2;
         let digits_start = !i in
         while
           !i < n
           && (is_digit s.[!i]
              || (hex && ((s.[!i] >= 'a' && s.[!i] <= 'f') || (s.[!i] >= 'A' && s.[!i] <= 'F'))))
         do
           incr i
         done;
         if hex && !i = digits_start then err start "malformed hex literal";
         (* the magnitude must fit in an int: [int_of_string] would wrap a
            hex literal at or above 2^62 negative *)
         let text = String.sub s start (!i - start) in
         let neg = c = '-' in
         let mag = String.sub text (Bool.to_int neg) (String.length text - Bool.to_int neg) in
         (match int_of_string_opt mag with
         | Some v when v >= 0 -> push (Tint (if neg then -v else v)) start
         | _ -> err start "number %s does not fit in an int" text)
       end
       else if c = '"' then begin
         let start = !i in
         incr i;
         let b = Buffer.create 16 in
         let closed = ref false in
         while (not !closed) && !i < n do
           (match s.[!i] with
           | '"' -> closed := true
           | '\\' ->
             incr i;
             if !i >= n then err start "unterminated escape in string";
             Buffer.add_char b
               (match s.[!i] with
               | 'n' -> '\n'
               | 't' -> '\t'
               | '0' -> '\000'
               | '\\' -> '\\'
               | '"' -> '"'
               | c -> err (!i) "unknown string escape '\\%c'" c)
           | c -> Buffer.add_char b c);
           incr i
         done;
         if not !closed then err start "unterminated string literal";
         push (Tstr (Buffer.contents b)) start
       end
       else if is_id_start c then begin
         let start = !i in
         let b = Buffer.create 8 in
         while !i < n && is_id_char s.[!i] do
           Buffer.add_char b s.[!i];
           incr i
         done;
         push (Tid (Buffer.contents b)) start
       end
       else err !i "unexpected character '%c'" c
     done
   with Exit -> ());
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

type operand =
  | Oreg of int
  | Ofreg of int
  | Oimm of int
  | Osym of string
  | Omem of int * int (* offset, base register *)

type located_op = { v : operand; ocol : int }

type stmt =
  | Insn of { mn : string; mcol : int; ops : located_op list; line : int; loc : int }
  | Dir of {
      d : string;
      ops : located_op list;
      str : (string * int) option;
      line : int;
      loc : int;
    }

(* parse the operand list after a mnemonic/directive *)
let parse_operands ~line toks =
  let err col fmt = error ~line ~col fmt in
  let rec operand = function
    | (Treg r, c) :: rest -> ({ v = Oreg r; ocol = c }, rest)
    | (Tfreg r, c) :: rest -> ({ v = Ofreg r; ocol = c }, rest)
    | (Tid s, c) :: rest -> ({ v = Osym s; ocol = c }, rest)
    | (Tstr _, c) :: _ -> err c "string literal only valid after .asciiz"
    | (Tint v, c) :: (Tlparen, _) :: rest -> mem v c rest
    | (Tlparen, c) :: rest -> mem 0 c rest
    | (Tint v, c) :: rest -> ({ v = Oimm v; ocol = c }, rest)
    | (t, c) :: _ ->
      err c "expected operand, got %s"
        (match t with
        | Tcomma -> "','"
        | Tcolon -> "':'"
        | Trparen -> "')'"
        | _ -> "token")
    | [] -> err 1 "expected operand at end of line"
  and mem off c = function
    | (Treg b, _) :: (Trparen, _) :: rest -> ({ v = Omem (off, b); ocol = c }, rest)
    | (Treg _, _) :: (t, c') :: _ ->
      ignore t;
      err c' "expected ')' after base register"
    | _ -> err c "expected '(base-register)' in memory operand"
  in
  let rec go acc toks =
    let op, rest = operand toks in
    match rest with
    | [] -> List.rev (op :: acc)
    | (Tcomma, _) :: rest' -> go (op :: acc) rest'
    | (_, c) :: _ -> err c "junk after operand (expected ',' or end of line)"
  in
  match toks with [] -> [] | _ -> go [] toks

(* ------------------------------------------------------------------ *)
(* Instruction selection                                               *)

let ctl_transfer = function
  | A.J _ | A.Jal _ | A.Jr _ | A.Jalr _ | A.Beq _ | A.Bne _ | A.Blez _ | A.Bgtz _
  | A.Bltz _ | A.Bgez _ | A.Bc1t _ | A.Bc1f _ ->
    true
  | _ -> false

let known_pseudos =
  [ "li"; "la"; "move"; "not"; "neg"; "b"; "beqz"; "bnez"; "blt"; "bge"; "bgt"; "ble" ]

(* expansion size in words; must agree with [expand] below (the fuzz
   suite would catch a drift as a wrong-address branch).  Only [li]
   sizes on an operand, and that operand is required to be a literal,
   so sizes never depend on label values. *)
let insn_words ~line ~mcol mn ops =
  match mn with
  | "li" -> (
    match ops with
    | [ _; { v = Oimm n; _ } ] -> if n >= -32768 && n <= 65535 then 1 else 2
    | [ _; { v = Osym _; ocol } ] ->
      error ~line ~col:ocol "li takes a numeric immediate (use la for addresses)"
    | _ -> error ~line ~col:mcol "li expects: li $rt, imm")
  | "la" | "blt" | "bge" | "bgt" | "ble" -> 2
  | _ -> 1

let fmt_of_name ~line ~col = function
  | "s" -> A.FS
  | "d" -> A.FD
  | "w" -> A.FW
  | f -> error ~line ~col "unknown float format .%s (s|d|w)" f

(* [resolve sym col] yields the absolute address of a label; [pc] is
   the address of the word being emitted *)
let expand ~line ~mcol ~resolve ~pc mn (ops : located_op list) : A.t list =
  let err col fmt = error ~line ~col fmt in
  let value = function
    | { v = Oimm n; _ } -> n
    | { v = Osym s; ocol } -> resolve s ocol
    | { ocol; _ } -> err ocol "expected immediate or label"
  in
  let reg = function
    | { v = Oreg r; _ } -> r
    | { ocol; _ } -> err ocol "expected integer register"
  in
  let freg = function
    | { v = Ofreg r; _ } -> r
    | { ocol; _ } -> err ocol "expected float register ($f0..$f31)"
  in
  let simm16 o =
    let n = value o in
    if n < -32768 || n > 32767 then
      err o.ocol "immediate %d out of signed 16-bit range (-32768..32767)" n;
    n
  in
  let zimm16 o =
    let n = value o in
    if n < 0 || n > 0xFFFF then err o.ocol "immediate %d out of 16-bit range (0..65535)" n;
    n
  in
  let shamt o =
    let n = value o in
    if n < 0 || n > 31 then err o.ocol "shift amount %d out of range (0..31)" n;
    n
  in
  let mem = function
    | { v = Omem (off, b); ocol } ->
      if off < -32768 || off > 32767 then
        err ocol "memory offset %d out of signed 16-bit range" off;
      (b, off)
    | { v = Osym _; ocol } | { v = Oimm _; ocol } ->
      err ocol "expected 'offset(base)' memory operand (load the address first)"
    | { ocol; _ } -> err ocol "expected 'offset(base)' memory operand"
  in
  (* branch target -> signed 16-bit word offset relative to pc + 4 *)
  let btarget ~pc o =
    let t = value o in
    if t land 3 <> 0 then err o.ocol "branch target 0x%x is not word-aligned" t;
    let off = (t - (pc + 4)) asr 2 in
    if off < -32768 || off > 32767 then
      err o.ocol "branch target 0x%x out of range (%d words from pc)" t off;
    off
  in
  let jtarget ~pc o =
    let t = value o in
    if t land 3 <> 0 then err o.ocol "jump target 0x%x is not word-aligned" t;
    if t < 0 || (pc + 4) land 0xF0000000 <> t land 0xF0000000 then
      err o.ocol "jump target 0x%x outside the current 256MB region" t;
    (t land 0x0FFFFFFF) lsr 2
  in
  let nops k = err mcol "%s expects %d operand%s" mn k (if k = 1 then "" else "s") in
  match (mn, ops) with
  (* --- integer instruction set, accepting the disassembler's syntax --- *)
  | "nop", [] -> [ A.Nop ]
  | "nop", _ -> nops 0
  | ("sll" | "srl" | "sra"), [ a; b; c ] ->
    let rd = reg a and rt = reg b and sh = shamt c in
    [ (match mn with "sll" -> A.Sll (rd, rt, sh) | "srl" -> A.Srl (rd, rt, sh) | _ -> A.Sra (rd, rt, sh)) ]
  | ("sll" | "srl" | "sra"), _ -> nops 3
  | ("sllv" | "srlv" | "srav"), [ a; b; c ] ->
    let rd = reg a and rt = reg b and rs = reg c in
    [ (match mn with "sllv" -> A.Sllv (rd, rt, rs) | "srlv" -> A.Srlv (rd, rt, rs) | _ -> A.Srav (rd, rt, rs)) ]
  | ("sllv" | "srlv" | "srav"), _ -> nops 3
  | "jr", [ a ] -> [ A.Jr (reg a) ]
  | "jr", _ -> nops 1
  | "jalr", [ a ] -> [ A.Jalr (A.ra, reg a) ]
  | "jalr", [ a; b ] -> [ A.Jalr (reg a, reg b) ]
  | "jalr", _ -> nops 2
  | "mfhi", [ a ] -> [ A.Mfhi (reg a) ]
  | "mflo", [ a ] -> [ A.Mflo (reg a) ]
  | ("mfhi" | "mflo"), _ -> nops 1
  | ("mult" | "multu" | "div" | "divu"), [ a; b ] ->
    let rs = reg a and rt = reg b in
    [
      (match mn with
      | "mult" -> A.Mult (rs, rt)
      | "multu" -> A.Multu (rs, rt)
      | "div" -> A.Div (rs, rt)
      | _ -> A.Divu (rs, rt));
    ]
  | ("mult" | "multu" | "div" | "divu"), _ -> nops 2
  | ("addu" | "subu" | "and" | "or" | "xor" | "nor" | "slt" | "sltu"), [ a; b; c ] ->
    let rd = reg a and rs = reg b and rt = reg c in
    [
      (match mn with
      | "addu" -> A.Addu (rd, rs, rt)
      | "subu" -> A.Subu (rd, rs, rt)
      | "and" -> A.And (rd, rs, rt)
      | "or" -> A.Or (rd, rs, rt)
      | "xor" -> A.Xor (rd, rs, rt)
      | "nor" -> A.Nor (rd, rs, rt)
      | "slt" -> A.Slt (rd, rs, rt)
      | _ -> A.Sltu (rd, rs, rt));
    ]
  | ("addu" | "subu" | "and" | "or" | "xor" | "nor" | "slt" | "sltu"), _ -> nops 3
  | ("addiu" | "slti" | "sltiu"), [ a; b; c ] ->
    let rt = reg a and rs = reg b and i = simm16 c in
    [
      (match mn with
      | "addiu" -> A.Addiu (rt, rs, i)
      | "slti" -> A.Slti (rt, rs, i)
      | _ -> A.Sltiu (rt, rs, i));
    ]
  | ("addiu" | "slti" | "sltiu"), _ -> nops 3
  | ("andi" | "ori" | "xori"), [ a; b; c ] ->
    let rt = reg a and rs = reg b and i = zimm16 c in
    [
      (match mn with
      | "andi" -> A.Andi (rt, rs, i)
      | "ori" -> A.Ori (rt, rs, i)
      | _ -> A.Xori (rt, rs, i));
    ]
  | ("andi" | "ori" | "xori"), _ -> nops 3
  | "lui", [ a; b ] -> [ A.Lui (reg a, zimm16 b) ]
  | "lui", _ -> nops 2
  | "j", [ t ] -> [ A.J (jtarget ~pc t) ]
  | "jal", [ t ] -> [ A.Jal (jtarget ~pc t) ]
  | ("j" | "jal"), _ -> nops 1
  | ("beq" | "bne"), [ a; b; t ] ->
    let rs = reg a and rt = reg b in
    let off = btarget ~pc t in
    [ (if mn = "beq" then A.Beq (rs, rt, off) else A.Bne (rs, rt, off)) ]
  | ("beq" | "bne"), _ -> nops 3
  | ("blez" | "bgtz" | "bltz" | "bgez"), [ a; t ] ->
    let rs = reg a in
    let off = btarget ~pc t in
    [
      (match mn with
      | "blez" -> A.Blez (rs, off)
      | "bgtz" -> A.Bgtz (rs, off)
      | "bltz" -> A.Bltz (rs, off)
      | _ -> A.Bgez (rs, off));
    ]
  | ("blez" | "bgtz" | "bltz" | "bgez"), _ -> nops 2
  | ("lb" | "lbu" | "lh" | "lhu" | "lw" | "sb" | "sh" | "sw"), [ a; m ] ->
    let rt = reg a in
    let b, off = mem m in
    [
      (match mn with
      | "lb" -> A.Lb (rt, b, off)
      | "lbu" -> A.Lbu (rt, b, off)
      | "lh" -> A.Lh (rt, b, off)
      | "lhu" -> A.Lhu (rt, b, off)
      | "lw" -> A.Lw (rt, b, off)
      | "sb" -> A.Sb (rt, b, off)
      | "sh" -> A.Sh (rt, b, off)
      | _ -> A.Sw (rt, b, off));
    ]
  | ("lb" | "lbu" | "lh" | "lhu" | "lw" | "sb" | "sh" | "sw"), _ -> nops 2
  | ("lwc1" | "swc1" | "ldc1" | "sdc1"), [ a; m ] ->
    let ft = freg a in
    let b, off = mem m in
    [
      (match mn with
      | "lwc1" -> A.Lwc1 (ft, b, off)
      | "swc1" -> A.Swc1 (ft, b, off)
      | "ldc1" -> A.Ldc1 (ft, b, off)
      | _ -> A.Sdc1 (ft, b, off));
    ]
  | ("lwc1" | "swc1" | "ldc1" | "sdc1"), _ -> nops 2
  | "mtc1", [ a; b ] -> [ A.Mtc1 (reg a, freg b) ]
  | "mfc1", [ a; b ] -> [ A.Mfc1 (reg a, freg b) ]
  | ("mtc1" | "mfc1"), _ -> nops 2
  | "bc1t", [ t ] -> [ A.Bc1t (btarget ~pc t) ]
  | "bc1f", [ t ] -> [ A.Bc1f (btarget ~pc t) ]
  | ("bc1t" | "bc1f"), _ -> nops 1
  | "break", [ c ] ->
    let n = value c in
    if n < 0 || n > 0xFFFFF then err c.ocol "break code %d out of range (0..1048575)" n;
    [ A.Break n ]
  | "break", _ -> nops 1
  (* --- pseudo-instructions --- *)
  | "li", [ a; i ] -> (
    let rt = reg a in
    let n = value i in
    if n < -0x80000000 || n > 0xFFFFFFFF then
      err i.ocol "immediate %d does not fit in 32 bits" n;
    match n with
    | n when n >= -32768 && n <= 32767 -> [ A.Addiu (rt, A.zero, n) ]
    | n when n >= 0 && n <= 0xFFFF -> [ A.Ori (rt, A.zero, n) ]
    | n ->
      let u = n land 0xFFFFFFFF in
      [ A.Lui (rt, u lsr 16); A.Ori (rt, rt, u land 0xFFFF) ])
  | "li", _ -> nops 2
  | "la", [ a; t ] ->
    let rt = reg a in
    let u = value t land 0xFFFFFFFF in
    [ A.Lui (rt, u lsr 16); A.Ori (rt, rt, u land 0xFFFF) ]
  | "la", _ -> nops 2
  | "move", [ a; b ] -> [ A.Addu (reg a, reg b, A.zero) ]
  | "move", _ -> nops 2
  | "not", [ a; b ] -> [ A.Nor (reg a, reg b, A.zero) ]
  | "not", _ -> nops 2
  | "neg", [ a; b ] -> [ A.Subu (reg a, A.zero, reg b) ]
  | "neg", _ -> nops 2
  | "b", [ t ] -> [ A.Beq (A.zero, A.zero, btarget ~pc t) ]
  | "b", _ -> nops 1
  | "beqz", [ a; t ] -> [ A.Beq (reg a, A.zero, btarget ~pc t) ]
  | "bnez", [ a; t ] -> [ A.Bne (reg a, A.zero, btarget ~pc t) ]
  | ("beqz" | "bnez"), _ -> nops 2
  | ("blt" | "bge" | "bgt" | "ble"), [ a; b; t ] ->
    (* two words: slt into $at, then branch from pc + 4 *)
    let rs = reg a and rt = reg b in
    let off = btarget ~pc:(pc + 4) t in
    [
      (match mn with
      | "blt" -> A.Slt (A.at, rs, rt)
      | "bge" -> A.Slt (A.at, rs, rt)
      | "bgt" -> A.Slt (A.at, rt, rs)
      | _ -> A.Slt (A.at, rt, rs));
      (match mn with
      | "blt" | "bgt" -> A.Bne (A.at, A.zero, off)
      | _ -> A.Beq (A.at, A.zero, off));
    ]
  | ("blt" | "bge" | "bgt" | "ble"), _ -> nops 3
  (* --- float arithmetic (dotted mnemonics) --- *)
  | _, _ when String.contains mn '.' -> (
    let fmt = fmt_of_name ~line ~col:mcol in
    match (String.split_on_char '.' mn, ops) with
    | [ ("add" | "sub" | "mul" | "div") as op; f ], [ a; b; c ] ->
      let m = fmt f and fd = freg a and fs = freg b and ft = freg c in
      [
        (match op with
        | "add" -> A.Fadd (m, fd, fs, ft)
        | "sub" -> A.Fsub (m, fd, fs, ft)
        | "mul" -> A.Fmul (m, fd, fs, ft)
        | _ -> A.Fdiv (m, fd, fs, ft));
      ]
    | [ ("mov" | "neg" | "abs" | "sqrt") as op; f ], [ a; b ] ->
      let m = fmt f and fd = freg a and fs = freg b in
      [
        (match op with
        | "mov" -> A.Fmov (m, fd, fs)
        | "neg" -> A.Fneg (m, fd, fs)
        | "abs" -> A.Fabs (m, fd, fs)
        | _ -> A.Fsqrt (m, fd, fs));
      ]
    | [ "trunc"; "w"; f ], [ a; b ] -> [ A.Truncw (fmt f, freg a, freg b) ]
    | [ "cvt"; to_; from ], [ a; b ] -> [ A.Cvt (fmt to_, fmt from, freg a, freg b) ]
    | [ "c"; cmp; f ], [ a; b ] ->
      let c =
        match cmp with
        | "eq" -> A.CEq
        | "lt" -> A.CLt
        | "le" -> A.CLe
        | _ -> err mcol "unknown float compare c.%s (eq|lt|le)" cmp
      in
      [ A.Fcmp (c, fmt f, freg a, freg b) ]
    | [ ("add" | "sub" | "mul" | "div" | "mov" | "neg" | "abs" | "sqrt"); _ ], _ ->
      err mcol "wrong operand count for %s" mn
    | ([ "trunc"; "w"; _ ] | [ "cvt"; _; _ ] | [ "c"; _; _ ]), _ ->
      err mcol "wrong operand count for %s" mn
    | _ -> err mcol "unknown mnemonic %S" mn)
  | _ -> err mcol "unknown mnemonic %S" mn

(* mnemonic existence check for pass 1: run the expander with dummy
   operands suppressed — cheapest is to keep an explicit list of the
   undotted mnemonics and validate dotted ones structurally *)
let known_mnemonic mn =
  let undotted =
    [
      "nop"; "sll"; "srl"; "sra"; "sllv"; "srlv"; "srav"; "jr"; "jalr"; "mfhi"; "mflo";
      "mult"; "multu"; "div"; "divu"; "addu"; "subu"; "and"; "or"; "xor"; "nor"; "slt";
      "sltu"; "addiu"; "slti"; "sltiu"; "andi"; "ori"; "xori"; "lui"; "j"; "jal"; "beq";
      "bne"; "blez"; "bgtz"; "bltz"; "bgez"; "lb"; "lbu"; "lh"; "lhu"; "lw"; "sb"; "sh";
      "sw"; "lwc1"; "swc1"; "ldc1"; "sdc1"; "mtc1"; "mfc1"; "bc1t"; "bc1f"; "break";
    ]
  in
  List.mem mn undotted || List.mem mn known_pseudos
  ||
  match String.split_on_char '.' mn with
  | [ ("add" | "sub" | "mul" | "div" | "mov" | "neg" | "abs" | "sqrt"); ("s" | "d" | "w") ]
  | [ "trunc"; "w"; ("s" | "d" | "w") ]
  | [ "cvt"; ("s" | "d" | "w"); ("s" | "d" | "w") ]
  | [ "c"; ("eq" | "lt" | "le"); ("s" | "d" | "w") ] ->
    true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)

(* The most bytes an image may span: the largest simulated memory
   ([Vmachine.Mconfig.router]), so pass 2 never allocates a word array
   for a program no machine could load. *)
let max_span = 8 * 1024 * 1024

let assemble_exn ?(base = 0x10000) src =
  if base land 3 <> 0 then error ~line:0 ~col:0 "base address 0x%x is not word-aligned" base;
  let symbols : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let sym_order = ref [] in
  let stmts = ref [] in
  let loc = ref base in
  let limit = ref base in
  (* advance the location counter by [n >= 0] bytes; compared before
     adding, so a huge [n] cannot wrap the counter *)
  let bump ~line col n =
    if n > max_span - (!loc - base) then
      error ~line ~col "image would span more than 0x%x bytes from 0x%x (the largest machine memory)"
        max_span base;
    loc := !loc + n;
    if !loc > !limit then limit := !loc
  in
  (* ---- pass 1: lex, parse, size, collect labels ---- *)
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun idx text ->
      let line = idx + 1 in
      let err col fmt = error ~line ~col fmt in
      let toks = lex_line ~line text in
      (* leading labels *)
      let rec strip_labels = function
        | (Tid name, c) :: (Tcolon, _) :: rest ->
          if name.[0] = '.' then err c "label %S may not begin with '.'" name;
          if Hashtbl.mem symbols name then err c "duplicate label %S" name;
          Hashtbl.replace symbols name !loc;
          sym_order := (name, !loc) :: !sym_order;
          strip_labels rest
        | toks -> toks
      in
      let toks = strip_labels toks in
      match toks with
      | [] -> ()
      | (Tid mn, mcol) :: rest when mn.[0] = '.' -> (
        (* directive *)
        let str, rest =
          match rest with (Tstr s, c) :: rest' -> (Some (s, c), rest') | _ -> (None, rest)
        in
        let ops = parse_operands ~line rest in
        let nints () =
          List.map
            (fun o ->
              match o.v with
              | Oimm n -> n
              | _ -> err o.ocol "%s takes numeric operands" mn)
            ops
        in
        let record () = stmts := Dir { d = mn; ops; str; line; loc = !loc } :: !stmts in
        match mn with
        | ".org" -> (
          match nints () with
          | [ n ] ->
            if n land 3 <> 0 then err mcol ".org address 0x%x is not word-aligned" n;
            if n < !loc then err mcol ".org 0x%x moves the location counter backward (at 0x%x)" n !loc;
            bump ~line mcol (n - !loc)
          | _ -> err mcol ".org expects one address")
        | ".align" -> (
          match nints () with
          | [ k ] when k >= 0 && k <= 12 ->
            let a = 1 lsl k in
            let n = (!loc + a - 1) land lnot (a - 1) in
            bump ~line mcol (n - !loc)
          | _ -> err mcol ".align expects a power-of-two exponent (0..12)")
        | ".space" -> (
          match nints () with
          | [ n ] when n >= 0 -> bump ~line mcol n
          | _ -> err mcol ".space expects a non-negative byte count")
        | ".word" ->
          if ops = [] then err mcol ".word expects at least one value";
          if !loc land 3 <> 0 then err mcol ".word at unaligned address 0x%x (use .align 2)" !loc;
          record ();
          bump ~line mcol (4 * List.length ops)
        | ".half" ->
          if ops = [] then err mcol ".half expects at least one value";
          if !loc land 1 <> 0 then err mcol ".half at unaligned address 0x%x (use .align 1)" !loc;
          record ();
          bump ~line mcol (2 * List.length ops)
        | ".byte" ->
          if ops = [] then err mcol ".byte expects at least one value";
          record ();
          bump ~line mcol (List.length ops)
        | ".asciiz" -> (
          match (str, ops) with
          | Some (s, _), [] ->
            record ();
            bump ~line mcol (String.length s + 1)
          | _ -> err mcol ".asciiz expects one string literal")
        | _ -> err mcol "unknown directive %s" mn)
      | (Tid mn, mcol) :: rest ->
        if not (known_mnemonic mn) then err mcol "unknown mnemonic %S" mn;
        if !loc land 3 <> 0 then
          err mcol "instruction at unaligned address 0x%x (use .align 2)" !loc;
        let ops = parse_operands ~line rest in
        let words = insn_words ~line ~mcol mn ops in
        stmts := Insn { mn; mcol; ops; line; loc = !loc } :: !stmts;
        bump ~line mcol (4 * words)
      | (_, c) :: _ -> err c "expected label, mnemonic or directive")
    lines;
  let stmts = List.rev !stmts in
  (* ---- pass 2: resolve, range-check, encode ---- *)
  let nwords = (!limit - base + 3) / 4 in
  let words = Array.make nwords 0 in
  let put8 addr v =
    let off = addr - base in
    let i = off lsr 2 and sh = 8 * (off land 3) in
    words.(i) <- words.(i) land lnot (0xFF lsl sh) lor ((v land 0xFF) lsl sh)
  in
  let put16 addr v =
    put8 addr v;
    put8 (addr + 1) (v lsr 8)
  in
  let put32 addr v =
    put16 addr v;
    put16 (addr + 2) (v lsr 16)
  in
  (* [delay]: mnemonic of a branch/jump whose delay slot the next
     instruction occupies; directives clear it (data after a branch is
     the author's business, a *control transfer* in a delay slot never
     is) *)
  let delay = ref None in
  List.iter
    (fun stmt ->
      match stmt with
      | Insn { mn; mcol; ops; line; loc } ->
        let resolve s col =
          match Hashtbl.find_opt symbols s with
          | Some v -> v
          | None -> error ~line ~col "undefined label %S" s
        in
        let insns = expand ~line ~mcol ~resolve ~pc:loc mn ops in
        (match !delay with
        | Some b when ctl_transfer (List.hd insns) ->
          error ~line ~col:mcol "control transfer %s in the delay slot of %s" mn b
        | Some b when List.length insns > 1 ->
          error ~line ~col:mcol
            "multi-word pseudo-instruction %s in the delay slot of %s (its second word would \
             not execute)"
            mn b
        | _ -> ());
        delay := (if ctl_transfer (List.nth insns (List.length insns - 1)) then Some mn else None);
        List.iteri (fun i insn -> put32 (loc + (4 * i)) (A.encode insn)) insns
      | Dir { d; ops; str; line; loc; _ } ->
        delay := None;
        let resolve s col =
          match Hashtbl.find_opt symbols s with
          | Some v -> v
          | None -> error ~line ~col "undefined label %S" s
        in
        let item ~lo ~hi o =
          let n =
            match o.v with
            | Oimm n -> n
            | Osym s -> resolve s o.ocol
            | _ -> error ~line ~col:o.ocol "%s takes numeric or label values" d
          in
          if n < lo || n > hi then
            error ~line ~col:o.ocol "value %d out of range for %s" n d;
          n
        in
        (match d with
        | ".word" ->
          List.iteri
            (fun i o -> put32 (loc + (4 * i)) (item ~lo:(-0x80000000) ~hi:0xFFFFFFFF o))
            ops
        | ".half" ->
          List.iteri (fun i o -> put16 (loc + (2 * i)) (item ~lo:(-32768) ~hi:0xFFFF o)) ops
        | ".byte" -> List.iteri (fun i o -> put8 (loc + i) (item ~lo:(-128) ~hi:0xFF o)) ops
        | ".asciiz" -> (
          match str with
          | Some (s, _) ->
            String.iteri (fun i c -> put8 (loc + i) (Char.code c)) s;
            put8 (loc + String.length s) 0
          | None -> assert false)
        | _ -> ()))
    stmts;
  let entry = match Hashtbl.find_opt symbols "main" with Some a -> a | None -> base in
  { base; words; entry; symbols = List.rev !sym_order }

let assemble ?base src = try Ok (assemble_exn ?base src) with Error d -> Error d
