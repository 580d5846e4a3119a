(* One-pass MIPS-subset assembler.

   As in VCODE there is no intermediate representation: the scanner
   reads the source in place, a token at a time, and encodes each
   statement as soon as it is read, through Vmips.Mips_asm.encode (the
   tables the MIPS backend emits through, so an assembled word never
   differs from the backend's).  A label not yet defined leaves its
   field zero and a fixup (site, kind, label, line, col); the fixups
   are checked and patched at the end, as Gen resolves relocations.

   Diagnostics keep a two-pass order.  An error of reading or sizing
   (lexing, syntax, labels, alignment, span) is raised where it is
   found, once the rest of its line is lexed, since a line's lexical
   errors come first.  An error of encoding (operand counts and kinds,
   ranges, undefined labels, delay slots) is held as the last fixup and
   raised only if the scan ends without an error of the first kind.

   Grammar (one statement per line):

     line   := (label ':')* (insn | directive)? comment?
     insn   := mnemonic operand (',' operand)*
     opnd   := $reg | $fN | imm | label | imm? '(' $reg ')'
     direct := .org imm | .align imm | .space imm
             | .word item,*  | .half item,*  | .byte item,*
             | .asciiz "str"
     comment:= ('#' | ';') .*

   Branch and jump targets are labels or absolute addresses, so disasm
   output re-assembles.  The word after a branch or jump always runs,
   and a control transfer (or a multi-word pseudo) in a delay slot is
   rejected. *)

module A = Vmips.Mips_asm

type diag = { line : int; col : int; msg : string }

exception Error of diag

let diag_to_string d = Printf.sprintf "%d:%d: %s" d.line d.col d.msg
let error ~line ~col fmt = Printf.ksprintf (fun msg -> raise (Error { line; col; msg })) fmt

type image = { base : int; words : int array; entry : int; symbols : (string * int) list }

(* ------------------------------------------------------------------ *)
(* Fields and instruction shapes                                       *)

(* what an immediate or label fills: its range check and its place *)
type kind = Simm | Zimm | Shamt | Branch | Jump | Break | La | Word | Half | Byte

(* How an instruction reads its operands: one character per operand,
   'r' an integer register, 'f' a float register, 'm' off($base) and
   'i' an immediate or label filling a field of [kind].  They are
   checked left to right, but with [swap] the second is checked first.
   [build] takes their values in order, and a memory operand's base
   third. *)
type shape =
  | Unknown
  | Op of { ops : string; swap : bool; kind : kind; build : int -> int -> int -> A.t }
  | Jalr  (* [$rd,] $rs: $rs first *)
  | Li
  | La
  | Bcmp of (int -> int -> A.t) * (int -> A.t)  (* $a, $b, target: slt into $at, branch on $at *)

let op ?(swap = false) ?(kind = Simm) ops build = Op { ops; swap; kind; build }

(* op.fmt, trunc.w.fmt, cvt.fmt.fmt and c.cond.fmt *)
let float_shape mn =
  let fmt = function "s" -> A.FS | "d" -> A.FD | "w" -> A.FW | _ -> raise Exit in
  try
    match String.split_on_char '.' mn with
    | [ o; f ] -> (
      let m = fmt f in
      match o with
      | "add" -> op "fff" (fun d s t -> A.Fadd (m, d, s, t))
      | "sub" -> op "fff" (fun d s t -> A.Fsub (m, d, s, t))
      | "mul" -> op "fff" (fun d s t -> A.Fmul (m, d, s, t))
      | "div" -> op "fff" (fun d s t -> A.Fdiv (m, d, s, t))
      | "mov" -> op "ff" (fun d s _ -> A.Fmov (m, d, s))
      | "neg" -> op "ff" (fun d s _ -> A.Fneg (m, d, s))
      | "abs" -> op "ff" (fun d s _ -> A.Fabs (m, d, s))
      | "sqrt" -> op "ff" (fun d s _ -> A.Fsqrt (m, d, s))
      | _ -> Unknown)
    | [ "trunc"; "w"; f ] -> op ~swap:true "ff" (let m = fmt f in fun d s _ -> A.Truncw (m, d, s))
    | [ "cvt"; t; f ] ->
      let t = fmt t and f = fmt f in
      op ~swap:true "ff" (fun d s _ -> A.Cvt (t, f, d, s))
    | [ "c"; ("eq" | "lt" | "le" as c); f ] ->
      let c = match c with "eq" -> A.CEq | "lt" -> A.CLt | _ -> A.CLe and m = fmt f in
      op ~swap:true "ff" (fun s t _ -> A.Fcmp (c, m, s, t))
    | _ -> Unknown
  with Exit -> Unknown

let shape_of = function
  | "nop" -> op "" (fun _ _ _ -> A.Nop)
  | "sll" -> op ~kind:Shamt "rri" (fun d t s -> A.Sll (d, t, s))
  | "srl" -> op ~kind:Shamt "rri" (fun d t s -> A.Srl (d, t, s))
  | "sra" -> op ~kind:Shamt "rri" (fun d t s -> A.Sra (d, t, s))
  | "sllv" -> op "rrr" (fun d t s -> A.Sllv (d, t, s))
  | "srlv" -> op "rrr" (fun d t s -> A.Srlv (d, t, s))
  | "srav" -> op "rrr" (fun d t s -> A.Srav (d, t, s))
  | "jr" -> op ~kind:Jump "r" (fun s _ _ -> A.Jr s) (* [kind] marks a control transfer *)
  | "jalr" -> Jalr
  | "mfhi" -> op "r" (fun d _ _ -> A.Mfhi d)
  | "mflo" -> op "r" (fun d _ _ -> A.Mflo d)
  | "mult" -> op "rr" (fun s t _ -> A.Mult (s, t))
  | "multu" -> op "rr" (fun s t _ -> A.Multu (s, t))
  | "div" -> op "rr" (fun s t _ -> A.Div (s, t))
  | "divu" -> op "rr" (fun s t _ -> A.Divu (s, t))
  | "addu" -> op "rrr" (fun d s t -> A.Addu (d, s, t))
  | "subu" -> op "rrr" (fun d s t -> A.Subu (d, s, t))
  | "and" -> op "rrr" (fun d s t -> A.And (d, s, t))
  | "or" -> op "rrr" (fun d s t -> A.Or (d, s, t))
  | "xor" -> op "rrr" (fun d s t -> A.Xor (d, s, t))
  | "nor" -> op "rrr" (fun d s t -> A.Nor (d, s, t))
  | "slt" -> op "rrr" (fun d s t -> A.Slt (d, s, t))
  | "sltu" -> op "rrr" (fun d s t -> A.Sltu (d, s, t))
  | "addiu" -> op "rri" (fun t s i -> A.Addiu (t, s, i))
  | "slti" -> op "rri" (fun t s i -> A.Slti (t, s, i))
  | "sltiu" -> op "rri" (fun t s i -> A.Sltiu (t, s, i))
  | "andi" -> op ~kind:Zimm "rri" (fun t s i -> A.Andi (t, s, i))
  | "ori" -> op ~kind:Zimm "rri" (fun t s i -> A.Ori (t, s, i))
  | "xori" -> op ~kind:Zimm "rri" (fun t s i -> A.Xori (t, s, i))
  | "lui" -> op ~swap:true ~kind:Zimm "ri" (fun t i _ -> A.Lui (t, i))
  | "j" -> op ~kind:Jump "i" (fun t _ _ -> A.J t)
  | "jal" -> op ~kind:Jump "i" (fun t _ _ -> A.Jal t)
  | "beq" -> op ~kind:Branch "rri" (fun s t o -> A.Beq (s, t, o))
  | "bne" -> op ~kind:Branch "rri" (fun s t o -> A.Bne (s, t, o))
  | "blez" -> op ~kind:Branch "ri" (fun s o _ -> A.Blez (s, o))
  | "bgtz" -> op ~kind:Branch "ri" (fun s o _ -> A.Bgtz (s, o))
  | "bltz" -> op ~kind:Branch "ri" (fun s o _ -> A.Bltz (s, o))
  | "bgez" -> op ~kind:Branch "ri" (fun s o _ -> A.Bgez (s, o))
  | "lb" -> op "rm" (fun t o b -> A.Lb (t, b, o))
  | "lbu" -> op "rm" (fun t o b -> A.Lbu (t, b, o))
  | "lh" -> op "rm" (fun t o b -> A.Lh (t, b, o))
  | "lhu" -> op "rm" (fun t o b -> A.Lhu (t, b, o))
  | "lw" -> op "rm" (fun t o b -> A.Lw (t, b, o))
  | "sb" -> op "rm" (fun t o b -> A.Sb (t, b, o))
  | "sh" -> op "rm" (fun t o b -> A.Sh (t, b, o))
  | "sw" -> op "rm" (fun t o b -> A.Sw (t, b, o))
  | "lwc1" -> op "fm" (fun t o b -> A.Lwc1 (t, b, o))
  | "swc1" -> op "fm" (fun t o b -> A.Swc1 (t, b, o))
  | "ldc1" -> op "fm" (fun t o b -> A.Ldc1 (t, b, o))
  | "sdc1" -> op "fm" (fun t o b -> A.Sdc1 (t, b, o))
  | "mtc1" -> op ~swap:true "rf" (fun t f _ -> A.Mtc1 (t, f))
  | "mfc1" -> op ~swap:true "rf" (fun t f _ -> A.Mfc1 (t, f))
  | "bc1t" -> op ~kind:Branch "i" (fun o _ _ -> A.Bc1t o)
  | "bc1f" -> op ~kind:Branch "i" (fun o _ _ -> A.Bc1f o)
  | "break" -> op ~kind:Break "i" (fun c _ _ -> A.Break c)
  (* pseudo-instructions *)
  | "li" -> Li
  | "la" -> La
  | "move" -> op ~swap:true "rr" (fun d s _ -> A.Addu (d, s, A.zero))
  | "not" -> op ~swap:true "rr" (fun d s _ -> A.Nor (d, s, A.zero))
  | "neg" -> op ~swap:true "rr" (fun d s _ -> A.Subu (d, A.zero, s))
  | "b" -> op ~kind:Branch "i" (fun o _ _ -> A.Beq (A.zero, A.zero, o))
  | "beqz" -> op ~swap:true ~kind:Branch "ri" (fun s o _ -> A.Beq (s, A.zero, o))
  | "bnez" -> op ~swap:true ~kind:Branch "ri" (fun s o _ -> A.Bne (s, A.zero, o))
  | "blt" -> Bcmp ((fun s t -> A.Slt (A.at, s, t)), fun o -> A.Bne (A.at, A.zero, o))
  | "bge" -> Bcmp ((fun s t -> A.Slt (A.at, s, t)), fun o -> A.Beq (A.at, A.zero, o))
  | "bgt" -> Bcmp ((fun s t -> A.Slt (A.at, t, s)), fun o -> A.Bne (A.at, A.zero, o))
  | "ble" -> Bcmp ((fun s t -> A.Slt (A.at, t, s)), fun o -> A.Beq (A.at, A.zero, o))
  | mn -> float_shape mn

(* the shape's first word is a control transfer *)
let ctl_transfer = function Op { kind = Branch | Jump; _ } | Jalr -> true | _ -> false

type tok = Eol | Id | Reg | Freg | Int | Str | Comma | Colon | Lparen | Rparen
type okind = Oreg | Ofreg | Oimm | Osym | Omem

type fixup =
  | Fix of { site : int; kind : kind; label : string; line : int; col : int }
  | Held of diag  (* an encoding error, raised if every fixup before it resolves *)

type st = {
  src : string;
  base : int;
  (* the current token; [pos] is just past it *)
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the line's first character *)
  mutable tok : tok;
  mutable tcol : int;
  mutable tval : int;  (* Reg, Freg: the number; Int: the value; Str: unescaped length *)
  mutable tstart : int;  (* Id: first character; Str: opening quote *)
  mutable tlen : int;  (* Id: length *)
  (* the operands of the current statement *)
  mutable nops : int;
  mutable okind : okind array;
  mutable oval : int array;  (* register, immediate or offset; Osym: first character *)
  mutable oaux : int array;  (* Omem: base register; Osym: length *)
  mutable ocol : int array;
  (* the image *)
  mutable loc : int;
  mutable limit : int;
  mutable words : int array;
  labels : (string, int) Hashtbl.t;
  mutable order : (string * int) list;  (* labels, newest first *)
  mutable fixups : fixup list;  (* newest first *)
  mutable delay : string;  (* the branch whose delay slot is next, or "" *)
}

(* ------------------------------------------------------------------ *)
(* Lexing in place                                                     *)

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '.'
let is_digit c = c >= '0' && c <= '9'
let id_chars =
  String.init 256 (fun i -> if is_id_start (Char.chr i) || is_digit (Char.chr i) then 'y' else 'n')
let is_id_char c = String.unsafe_get id_chars (Char.code c) = 'y'

let rec id_end s i =
  if i < String.length s && is_id_char (String.unsafe_get s i) then id_end s (i + 1) else i

(* a character's value as a hex digit, 99 if it is none *)
let digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | ('a' .. 'f' | 'A' .. 'F') as c -> (Char.code c lor 0x20) - 87
  | _ -> 99

(* at most seven identifier characters, packed into an int key *)
let pack s i len =
  let k = ref 0 in
  for j = i + len - 1 downto i do
    k := (!k lsl 8) lor Char.code (String.unsafe_get s j)
  done;
  !k

(* the registers by packed name, in an open-addressed table that a
   lookup probes without hashing through C *)
let reg_keys = Array.make 128 (-1) and reg_nums = Array.make 128 0
let rec slot k h = if reg_keys.(h) < 0 || reg_keys.(h) = k then h else slot k ((h + 1) land 127)

let () =
  let add r name =
    let k = pack name 0 (String.length name) in
    let h = slot k (k land 127) in
    reg_keys.(h) <- k;
    reg_nums.(h) <- r
  in
  Array.iteri add A.reg_names;
  add 30 "fp"

(* the register named by s.[i..i+len-1], or -1 *)
let reg_index s i len =
  let k = if len > 7 then 0 else pack s i len (* 0 is no name's key *) in
  let h = slot k (k land 127) in
  if reg_keys.(h) = k then reg_nums.(h) else -1

(* s.[i..j-1] as a decimal up to 32, or -1 unless all digits and non-empty *)
let small_decimal s i j =
  let v = ref (if i < j then 0 else -1) in
  for k = i to j - 1 do
    let c = String.unsafe_get s k in
    if !v >= 0 then v := if is_digit c then Int.min 32 ((10 * !v) + Char.code c - 48) else -1
  done;
  !v

let lex_error st at fmt = error ~line:st.line ~col:(at - st.bol + 1) fmt
let text st i j = String.sub st.src i (j - i)

let register st start =
  let s = st.src in
  let stop = id_end s (start + 1) in
  st.pos <- stop;
  if stop = start + 1 then lex_error st start "bare '$' is not a register";
  (* a number too long for an int is as out of range as 32 *)
  let c = String.unsafe_get s (start + 1) in
  let r = if is_digit c then small_decimal s (start + 1) stop else -1 in
  let f = if c = 'f' then small_decimal s (start + 2) stop else -1 in
  if r > 31 then lex_error st start "register number %s out of range (0..31)" (text st (start + 1) stop);
  if f > 31 then
    lex_error st start "float register $f%s out of range ($f0..$f31)" (text st (start + 2) stop);
  let r = if r >= 0 || f >= 0 then r else reg_index s (start + 1) (stop - start - 1) in
  if r < 0 && f < 0 then lex_error st start "unknown register $%s" (text st (start + 1) stop);
  st.tok <- (if f >= 0 then Freg else Reg);
  st.tval <- (if f >= 0 then f else r)

(* a literal's magnitude must fit in an int; it is never wrapped *)
let number st start =
  let s = st.src in
  let n = String.length s in
  let neg = s.[start] = '-' in
  let i = ref (if neg then start + 1 else start) in
  let hex = !i + 1 < n && s.[!i] = '0' && (s.[!i + 1] = 'x' || s.[!i + 1] = 'X') in
  if hex then i := !i + 2;
  let first = !i and radix = if hex then 16 else 10 in
  let m = ref 0 and over = ref false in
  while !i < n && digit s.[!i] < radix do
    let d = digit s.[!i] in
    if !m > (if hex then (max_int - d) lsr 4 else (max_int - d) / 10) then over := true
    else m := (!m * radix) + d;
    incr i
  done;
  st.pos <- !i;
  if hex && !i = first then lex_error st start "malformed hex literal";
  if !over then lex_error st start "number %s does not fit in an int" (text st start !i);
  st.tok <- Int;
  st.tval <- (if neg then - !m else !m)

(* the string literal at [start], each unescaped byte passed to [put]
   with its index; the result is the position past the closing quote *)
let unescape st start put =
  let s = st.src in
  let i = ref (start + 1) and k = ref 0 in
  let at_eol () = !i >= String.length s || s.[!i] = '\n' in
  while (not (at_eol ())) && s.[!i] <> '"' do
    let c = s.[!i] in
    if c = '\\' then incr i;
    if c = '\\' && at_eol () then lex_error st start "unterminated escape in string";
    put !k
      (if c <> '\\' then c
       else
         match s.[!i] with
         | 'n' -> '\n'
         | 't' -> '\t'
         | '0' -> '\000'
         | ('\\' | '"') as c -> c
         | c -> lex_error st !i "unknown string escape '\\%c'" c);
    incr k;
    incr i
  done;
  if at_eol () then lex_error st start "unterminated string literal";
  !i + 1

(* scan the line's next token; a comment or the line's end is [Eol],
   and leaves [pos] on the newline *)
let advance st =
  let s = st.src in
  let n = String.length s in
  let i = ref st.pos in
  while !i < n && (match String.unsafe_get s !i with ' ' | '\t' | '\r' -> true | _ -> false) do
    incr i
  done;
  let start = !i in
  st.tcol <- start - st.bol + 1;
  match if start < n then String.unsafe_get s start else '\n' with
  | '\n' | '#' | ';' ->
    while !i < n && String.unsafe_get s !i <> '\n' do incr i done;
    st.tok <- Eol;
    st.pos <- !i
  | (',' | ':' | '(' | ')') as c ->
    st.tok <- (match c with ',' -> Comma | ':' -> Colon | '(' -> Lparen | _ -> Rparen);
    st.pos <- start + 1
  | '$' -> register st start
  | '"' ->
    st.tstart <- start;
    st.tval <- 0;
    st.pos <- unescape st start (fun k _ -> st.tval <- k + 1);
    st.tok <- Str
  | c when is_digit c || (c = '-' && start + 1 < n && is_digit s.[start + 1]) -> number st start
  | c when is_id_start c ->
    st.tok <- Id;
    st.tstart <- start;
    st.pos <- id_end s (start + 1);
    st.tlen <- st.pos - start
  | c -> lex_error st start "unexpected character '%c'" c

(* an error of reading: the rest of the line is lexed first, so that a
   lexical error anywhere on the line comes before it *)
let line_error st col fmt =
  Printf.ksprintf
    (fun msg ->
      while st.tok <> Eol do advance st done;
      raise (Error { line = st.line; col; msg }))
    fmt

let add_operand st k v aux col =
  let i = st.nops in
  if i = Array.length st.okind then begin
    let grow a x = Array.append a (Array.make i x) in
    st.okind <- grow st.okind Oreg;
    st.oval <- grow st.oval 0;
    st.oaux <- grow st.oaux 0;
    st.ocol <- grow st.ocol 0
  end;
  st.okind.(i) <- k;
  st.oval.(i) <- v;
  st.oaux.(i) <- aux;
  st.ocol.(i) <- col;
  st.nops <- i + 1

(* the current token is the '(' of a memory operand at [col] *)
let mem_operand st off col =
  advance st;
  match st.tok with
  | Reg -> (
    let b = st.tval in
    advance st;
    match st.tok with
    | Rparen -> add_operand st Omem off b col; advance st
    | Eol -> line_error st col "expected '(base-register)' in memory operand"
    | _ -> line_error st st.tcol "expected ')' after base register")
  | _ -> line_error st col "expected '(base-register)' in memory operand"

let operand st =
  let col = st.tcol in
  match st.tok with
  | Reg -> add_operand st Oreg st.tval 0 col; advance st
  | Freg -> add_operand st Ofreg st.tval 0 col; advance st
  | Id -> add_operand st Osym st.tstart st.tlen col; advance st
  | Int -> (
    let v = st.tval in
    advance st;
    match st.tok with Lparen -> mem_operand st v col | _ -> add_operand st Oimm v 0 col)
  | Lparen -> mem_operand st 0 col
  | Str -> line_error st col "string literal only valid after .asciiz"
  | Comma -> line_error st col "expected operand, got ','"
  | Colon -> line_error st col "expected operand, got ':'"
  | Rparen -> line_error st col "expected operand, got ')'"
  | Eol -> line_error st 1 "expected operand at end of line"

(* the operand list, from the current token to the end of the line *)
let operands st =
  st.nops <- 0;
  if st.tok <> Eol then begin
    operand st;
    while st.tok <> Eol do
      if st.tok <> Comma then line_error st st.tcol "junk after operand (expected ',' or end of line)";
      advance st;
      operand st
    done
  end

(* The most bytes an image may span: the largest simulated memory
   ([Vmachine.Mconfig.router]), so the image never grows past what a
   machine could load. *)
let max_span = 8 * 1024 * 1024

(* advance the location counter by [n >= 0] bytes; compared before
   adding, so a huge [n] cannot wrap the counter *)
let bump st col n =
  if n > max_span - (st.loc - st.base) then
    error ~line:st.line ~col "image would span more than 0x%x bytes from 0x%x (the largest machine memory)"
      max_span st.base;
  st.loc <- st.loc + n;
  if st.loc > st.limit then st.limit <- st.loc

let word_index st addr =
  let w = (addr - st.base) lsr 2 in
  let len = Array.length st.words in
  if w >= len then begin
    let a = Array.make (max (w + 1) (2 * len)) 0 in
    Array.blit st.words 0 a 0 len;
    st.words <- a
  end;
  w

let put8 st addr v =
  let w = word_index st addr and sh = 8 * ((addr - st.base) land 3) in
  st.words.(w) <- st.words.(w) land lnot (0xFF lsl sh) lor ((v land 0xFF) lsl sh)

(* every 32-bit store is word-aligned *)
let put32 st addr v = st.words.(word_index st addr) <- v land 0xFFFFFFFF
let emit st addr insn = put32 st addr (A.encode insn)
let or_word st addr v = put32 st addr (st.words.(word_index st addr) lor v)

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let data_name = function Word -> ".word" | Half -> ".half" | _ -> ".byte"

(* range-check [n] for a field of [kind] at [site]; the field's value *)
let check ~line ~col ~site kind n =
  match kind with
  | Simm when n < -32768 || n > 32767 ->
    error ~line ~col "immediate %d out of signed 16-bit range (-32768..32767)" n
  | Zimm when n < 0 || n > 0xFFFF -> error ~line ~col "immediate %d out of 16-bit range (0..65535)" n
  | Shamt when n < 0 || n > 31 -> error ~line ~col "shift amount %d out of range (0..31)" n
  | Break when n < 0 || n > 0xFFFFF -> error ~line ~col "break code %d out of range (0..1048575)" n
  | Simm | Zimm | Shamt | Break -> n
  | Branch ->
    (* a signed 16-bit word offset from the branch's pc + 4 *)
    if n land 3 <> 0 then error ~line ~col "branch target 0x%x is not word-aligned" n;
    let off = (n - (site + 4)) asr 2 in
    if off < -32768 || off > 32767 then
      error ~line ~col "branch target 0x%x out of range (%d words from pc)" n off;
    off
  | Jump ->
    if n land 3 <> 0 then error ~line ~col "jump target 0x%x is not word-aligned" n;
    if n < 0 || (site + 4) land 0xF0000000 <> n land 0xF0000000 then
      error ~line ~col "jump target 0x%x outside the current 256MB region" n;
    (n land 0x0FFFFFFF) lsr 2
  | La -> n land 0xFFFFFFFF
  | Word | Half | Byte ->
    let bits = match kind with Word -> 32 | Half -> 16 | _ -> 8 in
    if n < -(1 lsl (bits - 1)) || n >= 1 lsl bits then
      error ~line ~col "value %d out of range for %s" n (data_name kind);
    n

let store st kind addr v =
  match kind with
  | Word -> put32 st addr v
  | Half -> put8 st addr v; put8 st (addr + 1) (v lsr 8)
  | _ -> put8 st addr v

(* patch a resolved fixup's field over the zero it left *)
let patch st kind site v =
  match kind with
  | Simm | Zimm | Branch -> or_word st site (v land 0xFFFF)
  | Shamt | Break -> or_word st site (v lsl 6)
  | Jump -> or_word st site v
  | La ->
    or_word st site (v lsr 16);
    or_word st (site + 4) (v land 0xFFFF)
  | Word | Half | Byte -> store st kind site v

(* the checked value of operand [i] for a field of [kind] at [site]; a
   label not yet defined reads as 0 and leaves a fixup *)
let value st kind ~site i =
  let line = st.line and col = st.ocol.(i) in
  match st.okind.(i) with
  | Oimm -> check ~line ~col ~site kind st.oval.(i)
  | Osym -> (
    let label = String.sub st.src st.oval.(i) st.oaux.(i) in
    match Hashtbl.find st.labels label with
    | v -> check ~line ~col ~site kind v
    | exception Not_found ->
      st.fixups <- Fix { site; kind; label; line; col } :: st.fixups;
      0)
  | Oreg | Ofreg | Omem -> (
    match kind with
    | Word | Half | Byte -> error ~line ~col "%s takes numeric or label values" (data_name kind)
    | _ -> error ~line ~col "expected immediate or label")

(* operand [i] checked as kind [c] (see [shape]) *)
let get st c kind pc i =
  let line = st.line and col = st.ocol.(i) and v = st.oval.(i) in
  match (c, st.okind.(i)) with
  | 'r', Oreg | 'f', Ofreg -> v
  | 'r', _ -> error ~line ~col "expected integer register"
  | 'f', _ -> error ~line ~col "expected float register ($f0..$f31)"
  | 'm', Omem ->
    if v < -32768 || v > 32767 then error ~line ~col "memory offset %d out of signed 16-bit range" v;
    v
  | 'm', (Osym | Oimm) ->
    error ~line ~col "expected 'offset(base)' memory operand (load the address first)"
  | 'm', _ -> error ~line ~col "expected 'offset(base)' memory operand"
  | _ -> value st kind ~site:pc i

let reg st i = get st 'r' Simm 0 i

let count st mn mcol k =
  if st.nops <> k then
    if String.contains mn '.' then error ~line:st.line ~col:mcol "wrong operand count for %s" mn
    else error ~line:st.line ~col:mcol "%s expects %d operand%s" mn k (if k = 1 then "" else "s")

(* the two words that load a 32-bit constant *)
let lui_ori st pc rt u =
  emit st pc (A.Lui (rt, u lsr 16));
  emit st (pc + 4) (A.Ori (rt, rt, u land 0xFFFF))

(* encode the instruction whose operands were just read, at [pc] *)
let encode st shape mn mcol pc =
  match shape with
  | Unknown -> assert false
  | Op { ops; swap; kind; build } ->
    let n = String.length ops in
    count st mn mcol n;
    let second = if swap then get st ops.[1] kind pc 1 else 0 in
    let v0 = if n > 0 then get st ops.[0] kind pc 0 else 0 in
    let v1 = if n > 1 && not swap then get st ops.[1] kind pc 1 else second in
    emit st pc (build v0 v1 (if n > 2 then get st ops.[2] kind pc 2 else st.oaux.(1)))
  | Jalr ->
    if st.nops <> 1 then count st mn mcol 2;
    let s = reg st (st.nops - 1) in
    emit st pc (A.Jalr ((if st.nops = 1 then A.ra else reg st 0), s))
  | Bcmp (slt, br) ->
    count st mn mcol 3;
    let a = reg st 0 in
    let b = reg st 1 in
    let off = value st Branch ~site:(pc + 4) 2 in
    emit st pc (slt a b);
    emit st (pc + 4) (br off)
  | Li ->
    (* the reader has checked the operand count and the literal *)
    let rt = reg st 0 in
    let n = st.oval.(1) in
    if n < -0x80000000 || n > 0xFFFFFFFF then
      error ~line:st.line ~col:st.ocol.(1) "immediate %d does not fit in 32 bits" n;
    if n >= -32768 && n <= 32767 then emit st pc (A.Addiu (rt, A.zero, n))
    else if n >= 0 && n <= 0xFFFF then emit st pc (A.Ori (rt, A.zero, n))
    else lui_ori st pc rt (n land 0xFFFFFFFF)
  | La ->
    count st mn mcol 2;
    let rt = reg st 0 in
    lui_ori st pc rt (value st La ~site:pc 1)

(* hold an encoding error; once one is held, nothing more is encoded *)
let hold st d = st.fixups <- Held d :: st.fixups
let held st = match st.fixups with Held _ :: _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let instruction st start len mcol =
  let mn = String.sub st.src start len in
  let shape = shape_of mn in
  (match shape with Unknown -> line_error st mcol "unknown mnemonic %S" mn | _ -> ());
  if st.loc land 3 <> 0 then
    line_error st mcol "instruction at unaligned address 0x%x (use .align 2)" st.loc;
  operands st;
  let line = st.line in
  let words =
    match shape with
    | Li when st.nops = 2 && st.okind.(1) = Osym ->
      error ~line ~col:st.ocol.(1) "li takes a numeric immediate (use la for addresses)"
    | Li when st.nops <> 2 || st.okind.(1) <> Oimm -> error ~line ~col:mcol "li expects: li $rt, imm"
    | Li -> if st.oval.(1) >= -32768 && st.oval.(1) <= 65535 then 1 else 2
    | La | Bcmp _ -> 2
    | _ -> 1
  in
  let pc = st.loc in
  bump st mcol (4 * words);
  if not (held st) then
    try
      encode st shape mn mcol pc;
      if String.length st.delay > 0 then
        if ctl_transfer shape then
          error ~line ~col:mcol "control transfer %s in the delay slot of %s" mn st.delay
        else if words > 1 then
          error ~line ~col:mcol
            "multi-word pseudo-instruction %s in the delay slot of %s (its second word would not \
             execute)"
            mn st.delay;
      st.delay <- (match shape with Bcmp _ -> mn | s -> if ctl_transfer s then mn else "")
    with Error d -> hold st d

(* data is encoded as soon as it is sized, and clears a pending delay slot *)
let data st name kind size mcol =
  let line = st.line and loc = st.loc in
  if st.nops = 0 then error ~line ~col:mcol "%s expects at least one value" name;
  if loc land (size - 1) <> 0 then
    error ~line ~col:mcol "%s at unaligned address 0x%x (use .align %d)" name loc (size / 2);
  bump st mcol (size * st.nops);
  if not (held st) then
    try
      st.delay <- "";
      for i = 0 to st.nops - 1 do
        let site = loc + (size * i) in
        store st kind site (value st kind ~site i)
      done
    with Error d -> hold st d

let directive st start len mcol =
  let name = String.sub st.src start len in
  let str = if st.tok = Str then st.tstart else -1 and slen = st.tval in
  if str >= 0 then advance st;
  operands st;
  let line = st.line and loc = st.loc in
  (* .org, .align and .space take one literal *)
  let literal () =
    for i = 0 to st.nops - 1 do
      if st.okind.(i) <> Oimm then error ~line ~col:st.ocol.(i) "%s takes numeric operands" name
    done;
    if st.nops = 1 then st.oval.(0) else min_int
  in
  match name with
  | ".org" ->
    let n = literal () in
    if st.nops <> 1 then error ~line ~col:mcol ".org expects one address";
    if n land 3 <> 0 then error ~line ~col:mcol ".org address 0x%x is not word-aligned" n;
    if n < loc then
      error ~line ~col:mcol ".org 0x%x moves the location counter backward (at 0x%x)" n loc;
    bump st mcol (n - loc)
  | ".align" ->
    let k = literal () in
    if k < 0 || k > 12 then error ~line ~col:mcol ".align expects a power-of-two exponent (0..12)";
    let a = 1 lsl k in
    bump st mcol (((loc + a - 1) land lnot (a - 1)) - loc)
  | ".space" ->
    let n = literal () in
    if n < 0 then error ~line ~col:mcol ".space expects a non-negative byte count";
    bump st mcol n
  | ".word" -> data st name Word 4 mcol
  | ".half" -> data st name Half 2 mcol
  | ".byte" -> data st name Byte 1 mcol
  | ".asciiz" ->
    if str < 0 || st.nops <> 0 then error ~line ~col:mcol ".asciiz expects one string literal";
    bump st mcol (slen + 1);
    if not (held st) then begin
      st.delay <- "";
      ignore (unescape st str (fun k c -> put8 st (loc + k) (Char.code c)));
      put8 st (loc + slen) 0
    end
  | _ -> error ~line ~col:mcol "unknown directive %s" name

(* one line: labels, then an instruction or a directive *)
let rec statement st =
  match st.tok with
  | Eol -> ()
  | Id -> (
    let start = st.tstart and len = st.tlen and col = st.tcol in
    advance st;
    match st.tok with
    | Colon ->
      let name = String.sub st.src start len in
      if name.[0] = '.' then line_error st col "label %S may not begin with '.'" name;
      if Hashtbl.mem st.labels name then line_error st col "duplicate label %S" name;
      Hashtbl.add st.labels name st.loc;
      st.order <- (name, st.loc) :: st.order;
      advance st;
      statement st
    | _ -> if st.src.[start] = '.' then directive st start len col else instruction st start len col)
  | _ -> line_error st st.tcol "expected label, mnemonic or directive"

let assemble_exn ?(base = 0x10000) src =
  if base land 3 <> 0 then error ~line:0 ~col:0 "base address 0x%x is not word-aligned" base;
  let st =
    {
      src; base; pos = 0; line = 1; bol = 0; tok = Eol; tcol = 1; tval = 0; tstart = 0; tlen = 0;
      nops = 0; okind = Array.make 4 Oreg; oval = Array.make 4 0; oaux = Array.make 4 0;
      ocol = Array.make 4 0; loc = base; limit = base;
      words = Array.make ((String.length src / 32) + 8) 0;
      labels = Hashtbl.create 16; order = []; fixups = []; delay = "";
    }
  in
  advance st;
  statement st;
  while st.pos < String.length src do
    st.pos <- st.pos + 1;
    st.line <- st.line + 1;
    st.bol <- st.pos;
    advance st;
    statement st
  done;
  (* the fixups in statement order; a held error is the last *)
  List.iter
    (function
      | Held d -> raise (Error d)
      | Fix { site; kind; label; line; col } -> (
        match Hashtbl.find st.labels label with
        | v -> patch st kind site (check ~line ~col ~site kind v)
        | exception Not_found -> error ~line ~col "undefined label %S" label))
    (List.rev st.fixups);
  let nwords = (st.limit - base + 3) / 4 in
  let words = Array.make nwords 0 in
  Array.blit st.words 0 words 0 (min nwords (Array.length st.words));
  let entry = match Hashtbl.find st.labels "main" with a -> a | exception Not_found -> base in
  { base; words; entry; symbols = List.rev st.order }

let assemble ?base src = try Ok (assemble_exn ?base src) with Error d -> Error d

let assemble_file ?base path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src -> assemble ?base src
  | exception Sys_error m -> Result.Error { line = 0; col = 0; msg = m }
