(* Hand-written lexer for the tcc C subset: one pass over the source
   string, dispatching on the current character.

   Accepted forms:
   - identifiers [A-Za-z_][A-Za-z0-9_]*, of which the keywords below
     lex as KW;
   - integer literals: decimal [1-9][0-9]* or 0, at most max_int;
     octal 0[0-7]+ and hex 0[xX][0-9a-fA-F]+, below 2^63 (a value past
     max_int wraps to a negative int, as OCaml's own literals do).  A
     literal out of range, or a leading-zero one with an 8 or 9, is a
     [Lex_error];
   - character literals 'c' and '\c', where \n \t \r \0 \\ \' are the
     usual escapes and any other escaped character stands for itself;
   - comments /* ... */ and // to end of line; blanks are space, tab,
     CR and LF;
   - the punctuators listed in [punct], longest match first.

   Keyword and punctuator tokens carry shared, statically allocated
   strings, so lexing allocates only identifiers, integer tokens and
   list cells. *)

type token =
  | INT of int
  | IDENT of string
  | KW of string    (* int, unsigned, char, void, if, else, while, do, for,
                       return, break, continue, short, switch, case, default *)
  | PUNCT of string (* operators and delimiters *)
  | EOF

exception Lex_error of string * int (* message, offset *)

let word = function
  | "int" -> KW "int" | "unsigned" -> KW "unsigned" | "char" -> KW "char"
  | "void" -> KW "void" | "if" -> KW "if" | "else" -> KW "else"
  | "while" -> KW "while" | "do" -> KW "do" | "for" -> KW "for"
  | "return" -> KW "return" | "break" -> KW "break" | "continue" -> KW "continue"
  | "short" -> KW "short" | "switch" -> KW "switch" | "case" -> KW "case"
  | "default" -> KW "default"
  | s -> IDENT s

let is_ident_char = function 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true | _ -> false
let is_digit = function '0' .. '9' -> true | _ -> false

let digit_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> 16

(* the punctuator at [i] and its length; [c] is [src.[i]] and [d] the
   character after it ('\000' at the end) *)
let punct src i c d =
  let n = String.length src in
  match (c, d) with
  | '<', '<' -> if i + 2 < n && src.[i + 2] = '=' then (PUNCT "<<=", 3) else (PUNCT "<<", 2)
  | '>', '>' -> if i + 2 < n && src.[i + 2] = '=' then (PUNCT ">>=", 3) else (PUNCT ">>", 2)
  | '<', '=' -> (PUNCT "<=", 2) | '>', '=' -> (PUNCT ">=", 2)
  | '=', '=' -> (PUNCT "==", 2) | '!', '=' -> (PUNCT "!=", 2)
  | '&', '&' -> (PUNCT "&&", 2) | '|', '|' -> (PUNCT "||", 2)
  | '+', '=' -> (PUNCT "+=", 2) | '-', '=' -> (PUNCT "-=", 2)
  | '*', '=' -> (PUNCT "*=", 2) | '/', '=' -> (PUNCT "/=", 2)
  | '%', '=' -> (PUNCT "%=", 2) | '&', '=' -> (PUNCT "&=", 2)
  | '|', '=' -> (PUNCT "|=", 2) | '^', '=' -> (PUNCT "^=", 2)
  | '+', '+' -> (PUNCT "++", 2) | '-', '-' -> (PUNCT "--", 2)
  | '+', _ -> (PUNCT "+", 1) | '-', _ -> (PUNCT "-", 1) | '*', _ -> (PUNCT "*", 1)
  | '/', _ -> (PUNCT "/", 1) | '%', _ -> (PUNCT "%", 1) | '&', _ -> (PUNCT "&", 1)
  | '|', _ -> (PUNCT "|", 1) | '^', _ -> (PUNCT "^", 1) | '~', _ -> (PUNCT "~", 1)
  | '!', _ -> (PUNCT "!", 1) | '<', _ -> (PUNCT "<", 1) | '>', _ -> (PUNCT ">", 1)
  | '=', _ -> (PUNCT "=", 1) | '(', _ -> (PUNCT "(", 1) | ')', _ -> (PUNCT ")", 1)
  | '{', _ -> (PUNCT "{", 1) | '}', _ -> (PUNCT "}", 1) | '[', _ -> (PUNCT "[", 1)
  | ']', _ -> (PUNCT "]", 1) | ';', _ -> (PUNCT ";", 1) | ',', _ -> (PUNCT ",", 1)
  | '.', _ -> (PUNCT ".", 1) | ':', _ -> (PUNCT ":", 1)
  | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, i))

(* the largest accumulator a [base] digit [d] may still be appended to:
   decimal literals stop at max_int, octal and hex ones below 2^63.  An
   octal or hex accumulator of 2^62 or more has wrapped negative, and
   any digit appended to it overflows. *)
let limit base d = match base with 10 -> (max_int - d) / 10 | 8 -> max_int lsr 2 | _ -> max_int lsr 3

(* the value of [acc] followed by the digits [src.[k..j-1]] in [base] *)
let rec int_value src ~at base acc k j =
  if k = j then acc
  else
    let d = digit_value src.[k] in
    if acc < 0 || acc > limit base d then raise (Lex_error ("integer literal out of range", at));
    int_value src ~at base ((acc * base) + d) (k + 1) j

let tokenize (src : string) : token list =
  let n = String.length src in
  let at k = if k < n then src.[k] else '\000' in
  let rec scan i toks =
    if i >= n then List.rev (EOF :: toks)
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> scan (i + 1) toks
      | '/' when at (i + 1) = '*' ->
        let rec close j =
          if j + 1 >= n then raise (Lex_error ("unterminated comment", i))
          else if src.[j] = '*' && src.[j + 1] = '/' then j + 2
          else close (j + 1)
        in
        scan (close (i + 2)) toks
      | '/' when at (i + 1) = '/' ->
        let j = ref i in
        while !j < n && src.[!j] <> '\n' do incr j done;
        scan !j toks
      | '0' when at (i + 1) = 'x' || at (i + 1) = 'X' ->
        let j = ref (i + 2) in
        while !j < n && digit_value src.[!j] < 16 do incr j done;
        if !j = i + 2 then raise (Lex_error ("bad hex literal", i));
        scan !j (INT (int_value src ~at:i 16 0 (i + 2) !j) :: toks)
      | '0' .. '9' as c ->
        let octal = c = '0' and j = ref (i + 1) in
        while !j < n && is_digit src.[!j] do
          if octal && src.[!j] >= '8' then raise (Lex_error ("bad octal literal", i));
          incr j
        done;
        scan !j (INT (int_value src ~at:i (if octal then 8 else 10) 0 i !j) :: toks)
      | '\'' ->
        (* character literal, with the usual escapes *)
        if i + 2 >= n then raise (Lex_error ("bad char literal", i));
        if src.[i + 1] = '\\' then begin
          let v =
            match src.[i + 2] with
            | 'n' -> 10 | 't' -> 9 | 'r' -> 13 | '0' -> 0 | '\\' -> 92 | '\'' -> 39
            | c -> Char.code c
          in
          if i + 3 >= n || src.[i + 3] <> '\'' then raise (Lex_error ("bad char literal", i));
          scan (i + 4) (INT v :: toks)
        end
        else begin
          if src.[i + 2] <> '\'' then raise (Lex_error ("bad char literal", i));
          scan (i + 3) (INT (Char.code src.[i + 1]) :: toks)
        end
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let j = ref (i + 1) in
        while !j < n && is_ident_char src.[!j] do incr j done;
        scan !j (word (String.sub src i (!j - i)) :: toks)
      | c ->
        let t, len = punct src i c (at (i + 1)) in
        scan (i + len) (t :: toks)
  in
  scan 0 []
