(* The oracle of the differential lexer tests: the tcc tokenizer as it
   was before the char-dispatch scanner, a list-and-substring lexer kept
   here verbatim apart from [int_lit], which converts a literal's text
   and is given its offset.

   [agree src] checks that [Tcc.Lexer.tokenize] returns the same tokens
   as this oracle, or raises the same [Lex_error].  The oracle's literal
   conversion in [agree] is [fixed_lit]: the scanner rejects literals
   that do not fit (the old lexer let [int_of_string]'s [Failure] escape)
   and reads leading-zero literals as octal (the old lexer read [010] as
   ten).  Everything else must match the old lexer exactly. *)

open Tcc.Lexer

let keywords =
  [ "int"; "unsigned"; "char"; "void"; "if"; "else"; "while"; "do"; "for";
    "return"; "break"; "continue"; "short"; "switch"; "case"; "default" ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* multi-character punctuators, longest first *)
let puncts3 = [ "<<="; ">>=" ]
let puncts2 =
  [ "<<"; ">>"; "<="; ">="; "=="; "!="; "&&"; "||"; "+="; "-="; "*="; "/=";
    "%="; "&="; "|="; "^="; "++"; "--" ]

let tokenize ?(int_lit = fun s _ -> int_of_string s) (src : string) : token list =
  let n = String.length src in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref 0 in
  let starts_with at s =
    let l = String.length s in
    at + l <= n && String.sub src at l = s
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if starts_with !i "/*" then begin
      let j = ref (!i + 2) in
      while !j + 1 < n && not (src.[!j] = '*' && src.[!j + 1] = '/') do incr j done;
      if !j + 1 >= n then raise (Lex_error ("unterminated comment", !i));
      i := !j + 2
    end
    else if starts_with !i "//" then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if is_digit c then begin
      if starts_with !i "0x" || starts_with !i "0X" then begin
        let j = ref (!i + 2) in
        while !j < n && is_hex src.[!j] do incr j done;
        if !j = !i + 2 then raise (Lex_error ("bad hex literal", !i));
        push (INT (int_lit (String.sub src !i (!j - !i)) !i));
        i := !j
      end
      else begin
        let j = ref !i in
        while !j < n && is_digit src.[!j] do incr j done;
        push (INT (int_lit (String.sub src !i (!j - !i)) !i));
        i := !j
      end
    end
    else if c = '\'' then begin
      (* character literal, with the usual escapes *)
      if !i + 2 >= n then raise (Lex_error ("bad char literal", !i));
      if src.[!i + 1] = '\\' then begin
        let v =
          match src.[!i + 2] with
          | 'n' -> 10 | 't' -> 9 | 'r' -> 13 | '0' -> 0 | '\\' -> 92 | '\'' -> 39
          | c -> Char.code c
        in
        if !i + 3 >= n || src.[!i + 3] <> '\'' then
          raise (Lex_error ("bad char literal", !i));
        push (INT v);
        i := !i + 4
      end
      else begin
        if src.[!i + 2] <> '\'' then raise (Lex_error ("bad char literal", !i));
        push (INT (Char.code src.[!i + 1]));
        i := !i + 3
      end
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do incr j done;
      let s = String.sub src !i (!j - !i) in
      push (if List.mem s keywords then KW s else IDENT s);
      i := !j
    end
    else begin
      let p3 = List.find_opt (starts_with !i) puncts3 in
      let p2 = List.find_opt (starts_with !i) puncts2 in
      match (p3, p2) with
      | Some p, _ ->
        push (PUNCT p);
        i := !i + 3
      | None, Some p ->
        push (PUNCT p);
        i := !i + 2
      | None, None ->
        if String.contains "+-*/%&|^~!<>=(){}[];,.:" c then begin
          push (PUNCT (String.make 1 c));
          incr i
        end
        else raise (Lex_error (Printf.sprintf "unexpected character %C" c, !i))
    end
  done;
  List.rev (EOF :: !toks)

(* the two literal fixes, stated with OCaml's own conversions: a
   leading-zero literal is octal and may not hold an 8 or 9, and a
   literal [int_of_string] cannot represent is out of range *)
let fixed_lit s at =
  let convert s =
    match int_of_string s with
    | v -> v
    | exception Failure _ -> raise (Lex_error ("integer literal out of range", at))
  in
  if String.length s > 1 && s.[0] = '0' && s.[1] <> 'x' && s.[1] <> 'X' then begin
    if String.exists (fun c -> c = '8' || c = '9') s then raise (Lex_error ("bad octal literal", at));
    convert ("0o" ^ s)
  end
  else convert s

let result lex src = match lex src with toks -> Ok toks | exception Lex_error (m, at) -> Error (m, at)

let tok_to_string = function
  | INT v -> Printf.sprintf "INT %d" v
  | IDENT s -> "IDENT " ^ s
  | KW s -> "KW " ^ s
  | PUNCT s -> "PUNCT " ^ s
  | EOF -> "EOF"

(* the results from the first token on which they differ *)
let rec pp_diff got want =
  match (got, want) with
  | Ok (g :: gs), Ok (w :: ws) when g = w -> pp_diff (Ok gs) (Ok ws)
  | Ok (g :: _), Ok (w :: _) -> Printf.sprintf "scanner %s, oracle %s" (tok_to_string g) (tok_to_string w)
  | _ ->
    let pp = function
      | Error (m, at) -> Printf.sprintf "Lex_error (%S, %d)" m at
      | Ok toks -> Printf.sprintf "%d more tokens" (List.length toks)
    in
    Printf.sprintf "scanner %s, oracle %s" (pp got) (pp want)

let agree src =
  let want = result (tokenize ~int_lit:fixed_lit) src and got = result Tcc.Lexer.tokenize src in
  if got <> want then Alcotest.failf "lexers disagree on %S: %s" src (pp_diff got want)
