(* Recursive-descent parser for the tcc C subset.  Binary operators
   are parsed by precedence climbing over the [binop] table; tokens are
   tested by pattern matching and [String.equal], never by polymorphic
   equality. *)

open Ast

exception Parse_error of string

type state = { mutable toks : Lexer.token list }

let peek st = match st.toks with [] -> Lexer.EOF | t :: _ -> t
let peek2 st = match st.toks with _ :: t :: _ -> t | _ -> Lexer.EOF

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let fail msg = raise (Parse_error msg)

let tok_to_string = function
  | Lexer.INT v -> string_of_int v
  | Lexer.IDENT s -> s
  | Lexer.KW s -> s
  | Lexer.PUNCT s -> s
  | Lexer.EOF -> "<eof>"

let at_punct st p = match peek st with Lexer.PUNCT q -> String.equal q p | _ -> false

let expect_punct st p =
  if at_punct st p then advance st
  else fail (Printf.sprintf "expected %s, found %s" p (tok_to_string (peek st)))

(* consume the punctuator [p] if it is next *)
let accept st p =
  if at_punct st p then begin
    advance st;
    true
  end
  else false

(* [item]s separated by commas, through the closing ")" *)
let rec comma_list st item =
  let x = item st in
  if accept st "," then x :: comma_list st item
  else begin
    expect_punct st ")";
    [ x ]
  end

let expect_ident st =
  match peek st with
  | Lexer.IDENT s ->
    advance st;
    s
  | t -> fail ("expected identifier, found " ^ tok_to_string t)

(* --- types ---------------------------------------------------------- *)

let starts_type st =
  match peek st with
  | Lexer.KW ("int" | "unsigned" | "char" | "void") -> true
  | _ -> false

let parse_base_type st : ty =
  match peek st with
  | Lexer.KW "int" ->
    advance st;
    Tint
  | Lexer.KW "char" ->
    advance st;
    Tchar
  | Lexer.KW "void" ->
    advance st;
    Tvoid
  | Lexer.KW "unsigned" ->
    advance st;
    (match peek st with
    | Lexer.KW "int" ->
      advance st;
      Tuint
    | Lexer.KW "char" ->
      advance st;
      Tuchar
    | Lexer.KW "short" ->
      advance st;
      Tushort
    | _ -> Tuint)
  | t -> fail ("expected type, found " ^ tok_to_string t)

let parse_type st : ty =
  let rec stars t =
    match peek st with
    | Lexer.PUNCT "*" ->
      advance st;
      stars (Tptr t)
    | _ -> t
  in
  stars (parse_base_type st)

(* --- expressions ----------------------------------------------------- *)

(* binary operators and their precedence, loosest first; all associate
   to the left *)
let binop = function
  | Lexer.PUNCT p -> (
    match p with
    | "||" -> Some (Blor, 1)
    | "&&" -> Some (Bland, 2)
    | "|" -> Some (Bor, 3)
    | "^" -> Some (Bxor, 4)
    | "&" -> Some (Band, 5)
    | "==" -> Some (Beq, 6) | "!=" -> Some (Bne, 6)
    | "<" -> Some (Blt, 7) | "<=" -> Some (Ble, 7) | ">" -> Some (Bgt, 7) | ">=" -> Some (Bge, 7)
    | "<<" -> Some (Bshl, 8) | ">>" -> Some (Bshr, 8)
    | "+" -> Some (Badd, 9) | "-" -> Some (Bsub, 9)
    | "*" -> Some (Bmul, 10) | "/" -> Some (Bdiv, 10) | "%" -> Some (Bmod, 10)
    | _ -> None)
  | _ -> None

let compound_op = function
  | "+=" -> Some Badd | "-=" -> Some Bsub | "*=" -> Some Bmul | "/=" -> Some Bdiv
  | "%=" -> Some Bmod | "&=" -> Some Band | "|=" -> Some Bor | "^=" -> Some Bxor
  | "<<=" -> Some Bshl | ">>=" -> Some Bshr
  | _ -> None

let rec parse_expr st : expr = parse_assign st

and parse_assign st : expr =
  let lhs = parse_binary st 1 in
  match peek st with
  | Lexer.PUNCT "=" ->
    advance st;
    Eassign (lhs, parse_assign st)
  | Lexer.PUNCT p -> (
    match compound_op p with
    | Some op ->
      advance st;
      Eassign (lhs, Ebin (op, lhs, parse_assign st))
    | None -> lhs)
  | _ -> lhs

(* a chain of binary operators binding at least as tight as [min] *)
and parse_binary st min = climb st min (parse_unary st)

and climb st min lhs =
  match binop (peek st) with
  | Some (op, prec) when prec >= min ->
    advance st;
    climb st min (Ebin (op, lhs, parse_binary st (prec + 1)))
  | _ -> lhs

and parse_unary st : expr =
  match peek st with
  | Lexer.PUNCT "&" -> (
    advance st;
    match parse_unary st with
    | Evar n -> Eaddr n
    | _ -> fail "& applies only to named variables")
  | Lexer.PUNCT "-" ->
    advance st;
    Eun (Uneg, parse_unary st)
  | Lexer.PUNCT "!" ->
    advance st;
    Eun (Unot, parse_unary st)
  | Lexer.PUNCT "~" ->
    advance st;
    Eun (Ucom, parse_unary st)
  | Lexer.PUNCT "*" ->
    advance st;
    Eun (Uderef, parse_unary st)
  | Lexer.PUNCT "++" ->
    advance st;
    let e = parse_unary st in
    Eassign (e, Ebin (Badd, e, Eint 1))
  | Lexer.PUNCT "--" ->
    advance st;
    let e = parse_unary st in
    Eassign (e, Ebin (Bsub, e, Eint 1))
  | Lexer.PUNCT "(" when (match peek2 st with Lexer.KW _ -> true | _ -> false) ->
    (* cast *)
    advance st;
    let t = parse_type st in
    expect_punct st ")";
    Ecast (t, parse_unary st)
  | _ -> postfix st (parse_primary st)

and postfix st e =
  match peek st with
  | Lexer.PUNCT "[" ->
    advance st;
    let idx = parse_expr st in
    expect_punct st "]";
    postfix st (Eindex (e, idx))
  | Lexer.PUNCT "++" ->
    (* NOTE: value semantics are "after increment" (see ast.ml) *)
    advance st;
    postfix st (Eassign (e, Ebin (Badd, e, Eint 1)))
  | Lexer.PUNCT "--" ->
    advance st;
    postfix st (Eassign (e, Ebin (Bsub, e, Eint 1)))
  | _ -> e

and parse_primary st : expr =
  match peek st with
  | Lexer.INT v ->
    advance st;
    Eint v
  | Lexer.IDENT name ->
    advance st;
    if accept st "(" then Ecall (name, if accept st ")" then [] else comma_list st parse_expr)
    else Evar name
  | Lexer.PUNCT "(" ->
    advance st;
    let e = parse_expr st in
    expect_punct st ")";
    e
  | t -> fail ("expected expression, found " ^ tok_to_string t)

let paren_expr st =
  expect_punct st "(";
  let e = parse_expr st in
  expect_punct st ")";
  e

(* an expression unless the punctuator [p] comes first *)
let opt_expr st p = if at_punct st p then None else Some (parse_expr st)

(* the "N];" that ends an array declarator *)
let array_size st what =
  match peek st with
  | Lexer.INT n when n > 0 ->
    advance st;
    expect_punct st "]";
    expect_punct st ";";
    n
  | _ -> fail (what ^ " size must be a positive integer literal")

(* --- statements ------------------------------------------------------ *)

let rec parse_stmt st : stmt =
  match peek st with
  | Lexer.PUNCT "{" ->
    advance st;
    Sblock (block st [])
  | Lexer.KW "if" -> (
    advance st;
    let c = paren_expr st in
    let then_ = parse_stmt st in
    match peek st with
    | Lexer.KW "else" ->
      advance st;
      Sif (c, then_, Some (parse_stmt st))
    | _ -> Sif (c, then_, None))
  | Lexer.KW "while" ->
    advance st;
    let c = paren_expr st in
    Swhile (c, parse_stmt st)
  | Lexer.KW "do" ->
    advance st;
    let body = parse_stmt st in
    (match peek st with
    | Lexer.KW "while" -> advance st
    | t -> fail ("expected while, found " ^ tok_to_string t));
    let c = paren_expr st in
    expect_punct st ";";
    Sdo (body, c)
  | Lexer.KW "for" ->
    advance st;
    expect_punct st "(";
    let init = opt_expr st ";" in
    expect_punct st ";";
    let cond = opt_expr st ";" in
    expect_punct st ";";
    let update = opt_expr st ")" in
    expect_punct st ")";
    Sfor (init, cond, update, parse_stmt st)
  | Lexer.KW "switch" ->
    advance st;
    let e = paren_expr st in
    expect_punct st "{";
    Sswitch (e, arms st [])
  | Lexer.KW "return" ->
    advance st;
    if accept st ";" then Sreturn None
    else begin
      let e = parse_expr st in
      expect_punct st ";";
      Sreturn (Some e)
    end
  | Lexer.KW "break" ->
    advance st;
    expect_punct st ";";
    Sbreak
  | Lexer.KW "continue" ->
    advance st;
    expect_punct st ";";
    Scontinue
  | Lexer.KW _ when starts_type st ->
    let t = parse_type st in
    let name = expect_ident st in
    if accept st "[" then Sdecl_arr (t, name, array_size st "array")
    else begin
      let init = if accept st "=" then Some (parse_expr st) else None in
      expect_punct st ";";
      Sdecl (t, name, init)
    end
  | _ ->
    let e = parse_expr st in
    expect_punct st ";";
    Sexpr e

(* statements through the closing "}" *)
and block st acc = if accept st "}" then List.rev acc else block st (parse_stmt st :: acc)

(* switch arms through the closing "}": each is its case labels and the
   statements up to the next label *)
and arms st acc =
  if accept st "}" then List.rev acc
  else
    match labels st [] with
    | [] -> fail "expected case or default label"
    | labs -> arms st ((labs, arm_body st []) :: acc)

and labels st acc =
  match peek st with
  | Lexer.KW "case" -> (
    advance st;
    let neg = accept st "-" in
    match peek st with
    | Lexer.INT v ->
      advance st;
      expect_punct st ":";
      labels st (Cint (if neg then -v else v) :: acc)
    | _ -> fail "case expects an integer literal")
  | Lexer.KW "default" ->
    advance st;
    expect_punct st ":";
    labels st (Cdefault :: acc)
  | _ -> List.rev acc

and arm_body st acc =
  match peek st with
  | Lexer.PUNCT "}" | Lexer.KW ("case" | "default") -> List.rev acc
  | _ -> arm_body st (parse_stmt st :: acc)

(* --- functions and translation units --------------------------------- *)

let parse_param st =
  let t = parse_type st in
  let n = expect_ident st in
  (t, n)

let parse_func st fret fname : func =
  expect_punct st "(";
  let fparams =
    match (peek st, peek2 st) with
    | Lexer.PUNCT ")", _ ->
      advance st;
      []
    | Lexer.KW "void", Lexer.PUNCT ")" ->
      advance st;
      advance st;
      []
    | _ -> comma_list st parse_param
  in
  expect_punct st "{";
  { fname; fret; fparams; fbody = block st [] }

let parse_item st : item =
  let t = parse_type st in
  let name = expect_ident st in
  match peek st with
  | Lexer.PUNCT "(" -> Ifunc (parse_func st t name)
  | Lexer.PUNCT "[" ->
    advance st;
    Iglobal (t, name, Some (array_size st "global array"))
  | Lexer.PUNCT ";" ->
    advance st;
    Iglobal (t, name, None)
  | tk -> fail ("unexpected token after declarator: " ^ tok_to_string tk)

let parse_unit (src : string) : unit_ =
  let st = { toks = Lexer.tokenize src } in
  let rec items acc =
    match peek st with Lexer.EOF -> List.rev acc | _ -> items (parse_item st :: acc)
  in
  items []
