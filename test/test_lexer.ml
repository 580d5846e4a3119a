(* tcc front-end tests: the scanner against the old tokenizer kept in
   Lexer_oracle, on every C source of the repository and on seeded
   random input; the integer-literal forms and their errors; and a byte
   fuzz of the parser, which must end in a value, [Lex_error] or
   [Parse_error] and never in another exception. *)

open Tcc.Lexer

let check = Alcotest.check

let sources =
  [
    ("pathfinder", Dpf.Pathfinder.source);
    ("mpf", Dpf.Mpf.source);
    ("vmjit interpreter", Vmjit.interpreter_source);
  ]

let test_sources () = List.iter (fun (_, src) -> Lexer_oracle.agree src) sources

(* ------------------------------------------------------------------ *)
(* Seeded random input                                                  *)

let c_chars = "abcintxyz_0123456789 \n\t+-*/%&|^~!<>=(){}[];,.:'\\\"#@xX"

let vocabulary =
  [| "int"; "unsigned"; "char"; "short"; "void"; "if"; "else"; "while"; "do"; "for"; "return";
     "break"; "continue"; "switch"; "case"; "default"; "f"; "x"; "p"; "0"; "7"; "010"; "0x1F";
     "4611686018427387904"; "0x7FFFFFFFFFFFFFFF"; "0x40000000000000000";
     "0777777777777777777777"; "04000000000000000000000"; "'a'"; "'\\n'"; "("; ")"; "{"; "}";
     "["; "]"; ";"; ","; ":"; "="; "+="; "<<="; "*"; "&"; "-"; "!"; "~"; "++"; "--"; "<"; ">>";
     "=="; "&&"; "||"; "?"; "/*"; "*/"; "//"; "\n" |]

(* uniform bytes, C-ish characters, a soup of C tokens, or a repository
   source with a few bytes replaced, cut or inserted *)
let random_input st =
  let int = Random.State.int st in
  let len = int 120 in
  match int 4 with
  | 0 -> String.init len (fun _ -> Char.chr (int 256))
  | 1 -> String.init len (fun _ -> c_chars.[int (String.length c_chars)])
  | 2 ->
    String.concat (if int 2 = 0 then " " else "")
      (List.init len (fun _ -> vocabulary.(int (Array.length vocabulary))))
  | _ ->
    let src = Bytes.of_string (snd (List.nth sources (int (List.length sources)))) in
    for _ = 0 to int 4 do
      Bytes.set src (int (Bytes.length src)) c_chars.[int (String.length c_chars)]
    done;
    let src = Bytes.to_string src in
    let cut = int (String.length src + 1) in
    if int 2 = 0 then String.sub src 0 cut
    else String.sub src 0 cut ^ vocabulary.(int (Array.length vocabulary)) ^ String.sub src cut (String.length src - cut)

let test_random_input () =
  let st = Random.State.make [| 25 |] in
  for _ = 1 to 3000 do
    Lexer_oracle.agree (random_input st)
  done

let test_parser_fuzz () =
  let st = Random.State.make [| 26 |] in
  for _ = 1 to 3000 do
    let src = random_input st in
    match Tcc.Parser.parse_unit src with
    | _ -> ()
    | exception (Lex_error _ | Tcc.Parser.Parse_error _) -> ()
    | exception e -> Alcotest.failf "parse_unit %S raised %s" src (Printexc.to_string e)
  done

(* ------------------------------------------------------------------ *)
(* Integer literals                                                     *)

let token = Alcotest.testable (fun f t -> Format.pp_print_string f (Lexer_oracle.tok_to_string t)) ( = )

let lexes src want = check (Alcotest.list token) src (want @ [ EOF ]) (tokenize src)

let rejects src msg at =
  match tokenize src with
  | _ -> Alcotest.failf "%S lexed" src
  | exception Lex_error (m, a) -> check Alcotest.(pair string int) src (msg, at) (m, a)

let test_literals () =
  lexes "0 7 42 0x1f 0XFF 'a' '\\n'" [ INT 0; INT 7; INT 42; INT 31; INT 255; INT 97; INT 10 ];
  lexes "4611686018427387903" [ INT max_int ];
  (* hex and octal literals up to 2^63 - 1 wrap, like OCaml's own *)
  lexes "0x7FFFFFFFFFFFFFFF 0x0000000000000000001" [ INT (-1); INT 1 ];
  lexes "0777777777777777777777" [ INT (-1) ];
  lexes "0x1G 12ab" [ INT 1; IDENT "G"; INT 12; IDENT "ab" ];
  rejects "x = 4611686018427387904;" "integer literal out of range" 4;
  rejects "0x8000000000000000" "integer literal out of range" 0;
  rejects "01000000000000000000000" "integer literal out of range" 0;
  (* past 2^63 a wrapped accumulator must not pass for a small one *)
  rejects "0x40000000000000000" "integer literal out of range" 0;
  rejects "04000000000000000000000" "integer literal out of range" 0;
  rejects "0x;" "bad hex literal" 0

let test_octal () =
  lexes "010 00 0 0777 017;" [ INT 8; INT 0; INT 0; INT 511; INT 15; PUNCT ";" ];
  (* the old lexer read a leading-zero literal as decimal *)
  check (Alcotest.list token) "old lexer" [ INT 10; EOF ] (Lexer_oracle.tokenize "010");
  rejects "08" "bad octal literal" 0;
  rejects "x 09" "bad octal literal" 2;
  rejects "0779" "bad octal literal" 0

let test_out_of_range () =
  List.iter
    (fun lit ->
      let src = Printf.sprintf "int f() { return %s; }" lit in
      (match Tcc.Parser.parse_unit src with
      | _ -> Alcotest.failf "%S parsed" src
      | exception Lex_error (m, at) ->
        check Alcotest.(pair string int) src ("integer literal out of range", 17) (m, at));
      (* the old lexer let int_of_string's exception escape *)
      match Lexer_oracle.tokenize src with
      | _ -> Alcotest.failf "old lexer accepted %S" src
      | exception Failure _ -> ())
    [ "99999999999999999999"; "0xFFFFFFFFFFFFFFFFFF" ]

let () =
  Alcotest.run "lexer"
    [
      ( "differential",
        [
          Alcotest.test_case "repository sources" `Quick test_sources;
          Alcotest.test_case "seeded random input" `Quick test_random_input;
        ] );
      ( "literals",
        [
          Alcotest.test_case "forms" `Quick test_literals;
          Alcotest.test_case "octal" `Quick test_octal;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
        ] );
      ("parser", [ Alcotest.test_case "byte fuzz" `Quick test_parser_fuzz ]);
    ]
