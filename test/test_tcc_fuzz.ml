(* tcc compiler fuzzing: random (terminating) C programs are generated
   as ASTs, evaluated by a reference interpreter written directly over
   the AST, and compiled + executed on all four ports.  Every result
   must agree — a miniature Csmith for the tcc -> VCODE -> simulator
   pipeline. *)

open Tcc.Ast

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Reference interpreter over the AST (32-bit wrapping semantics)      *)

exception Unsupported_by_ref

let sext32 v =
  let v = v land 0xFFFFFFFF in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v


exception Return_value of int
exception Break_switch

exception Out_of_fuel

let eval_func ?(fuel = 200_000) (f : func) (args : int list) : int =
  let steps = ref 0 in
  let tick () =
    incr steps;
    if !steps > fuel then raise Out_of_fuel
  in
  let env : (string, int ref) Hashtbl.t = Hashtbl.create 17 in
  List.iter2 (fun (_, name) v -> Hashtbl.replace env name (ref (sext32 v))) f.fparams args;
  let lookup name =
    match Hashtbl.find_opt env name with
    | Some r -> r
    | None -> raise Unsupported_by_ref
  in
  let rec eval (e : expr) : int =
    match e with
    | Eint v -> sext32 v
    | Evar n -> !(lookup n)
    | Eun (Uneg, e) -> sext32 (-eval e)
    | Eun (Ucom, e) -> sext32 (lnot (eval e))
    | Eun (Unot, e) -> if eval e = 0 then 1 else 0
    | Eun (Uderef, _) | Eaddr _ | Eindex _ | Ecall _ | Ecast _ -> raise Unsupported_by_ref
    | Eassign (Evar n, rhs) ->
      let v = eval rhs in
      lookup n := v;
      v
    | Eassign _ -> raise Unsupported_by_ref
    | Ebin (op, a, b) -> (
      match op with
      | Bland -> if eval a <> 0 && eval b <> 0 then 1 else 0
      | Blor -> if eval a <> 0 || eval b <> 0 then 1 else 0
      | _ ->
        let x = eval a in
        let y = eval b in
        (match op with
        | Badd -> sext32 (x + y)
        | Bsub -> sext32 (x - y)
        | Bmul -> sext32 (x * y)
        | Bdiv -> if y = 0 then 0 else sext32 (Int.div x y)
        | Bmod -> if y = 0 then 0 else sext32 (Int.rem x y)
        | Band -> x land y
        | Bor -> x lor y
        | Bxor -> x lxor y
        | Bshl -> sext32 (x lsl (y land 31))
        | Bshr -> sext32 (x asr (y land 31))
        | Blt -> if x < y then 1 else 0
        | Ble -> if x <= y then 1 else 0
        | Bgt -> if x > y then 1 else 0
        | Bge -> if x >= y then 1 else 0
        | Beq -> if x = y then 1 else 0
        | Bne -> if x <> y then 1 else 0
        | Bland | Blor -> assert false))
  in
  let rec exec (s : stmt) : unit =
    tick ();
    match s with
    | Sdecl (_, n, init) ->
      Hashtbl.replace env n (ref (match init with Some e -> eval e | None -> 0))
    | Sexpr e -> ignore (eval e)
    | Sif (c, a, b) ->
      if eval c <> 0 then exec a else Option.iter exec b
    | Swhile (c, body) ->
      while eval c <> 0 do
        exec body
      done
    | Sdo (body, c) ->
      exec body;
      while eval c <> 0 do
        exec body
      done
    | Sfor (i, c, u, body) ->
      Option.iter (fun e -> ignore (eval e)) i;
      while (match c with Some c -> eval c <> 0 | None -> true) do
        exec body;
        Option.iter (fun e -> ignore (eval e)) u
      done
    | Sreturn (Some e) -> raise (Return_value (eval e))
    | Sreturn None -> raise (Return_value 0)
    | Sblock ss -> List.iter exec ss
    | Sswitch (e, arms) -> (
      let v = eval e in
      (* find the matching arm (or default), then fall through *)
      let rec find = function
        | [] -> []
        | (labels, _) :: _ as rest
          when List.exists (function Cint c -> sext32 c = v | Cdefault -> false) labels ->
          rest
        | _ :: rest -> find rest
      in
      let rec find_default = function
        | [] -> []
        | (labels, _) :: _ as rest when List.mem Cdefault labels -> rest
        | _ :: rest -> find_default rest
      in
      let arms' = match find arms with [] -> find_default arms | a -> a in
      try List.iter (fun (_, ss) -> List.iter exec ss) arms'
      with Break_switch -> ())
    | Sdecl_arr _ -> raise Unsupported_by_ref
    | Sbreak -> raise Break_switch
    | Scontinue -> raise Unsupported_by_ref
  in
  try
    List.iter exec f.fbody;
    0
  with Return_value v -> v

(* ------------------------------------------------------------------ *)
(* Random program generator                                            *)

(* variables: two parameters plus a local are read/write; the loop
   counters c1/c2 (one per nesting depth) are read-only for generated
   code so loops always terminate *)
let rw_names = [ "p0"; "p1"; "v0" ]
let var_names = [ "p0"; "p1"; "v0"; "c1"; "c2" ]

let gen_expr ~depth st : expr =
  let open QCheck.Gen in
  let rec go depth st =
    if depth = 0 then
      (oneof
         [
           map (fun v -> Eint (v - 500)) (int_bound 1000);
           map (fun i -> Evar (List.nth var_names i)) (int_bound 4);
         ])
        st
    else
      (frequency
         [
           (2, map (fun v -> Eint (v - 500)) (int_bound 1000));
           (3, map (fun i -> Evar (List.nth var_names i)) (int_bound 4));
           ( 6,
             let* op =
               oneofl
                 [ Badd; Bsub; Bmul; Band; Bor; Bxor; Blt; Ble; Bgt; Bge; Beq; Bne;
                   Bland; Blor ]
             in
             let* a = go (depth - 1) in
             let* b = go (depth - 1) in
             return (Ebin (op, a, b)) );
           ( 2,
             (* shifts and divides with safe literal right-hand sides *)
             let* op = oneofl [ Bshl; Bshr ] in
             let* a = go (depth - 1) in
             let* sh = int_bound 31 in
             return (Ebin (op, a, Eint sh)) );
           ( 2,
             let* op = oneofl [ Bdiv; Bmod ] in
             let* a = go (depth - 1) in
             let* d = oneofl [ 1; 2; 3; 7; 16; 100 ] in
             return (Ebin (op, a, Eint d)) );
           ( 2,
             let* op = oneofl [ Uneg; Ucom; Unot ] in
             let* a = go (depth - 1) in
             return (Eun (op, a)) );
         ])
        st
  in
  go depth st

let gen_stmt ~depth st : stmt =
  let open QCheck.Gen in
  let rec go depth st =
    let assign =
      let* i = int_bound 2 in
      let* e = gen_expr ~depth:2 in
      return (Sexpr (Eassign (Evar (List.nth rw_names i), e)))
    in
    if depth = 0 then assign st
    else
      (frequency
         [
           (4, assign);
           ( 2,
             let* c = gen_expr ~depth:2 in
             let* a = go (depth - 1) in
             let* b = option (go (depth - 1)) in
             return (Sif (c, a, b)) );
           ( 1,
             (* a bounded counted loop on this depth's dedicated counter *)
             let cname = "c" ^ string_of_int depth in
             let* iters = int_bound 8 in
             let* body = go (depth - 1) in
             return
               (Sblock
                  [
                    Sexpr (Eassign (Evar cname, Eint 0));
                    Swhile
                      ( Ebin (Blt, Evar cname, Eint iters),
                        Sblock
                          [ body; Sexpr (Eassign (Evar cname, Ebin (Badd, Evar cname, Eint 1))) ]
                      );
                  ]) );
           ( 1,
             let* e = gen_expr ~depth:2 in
             let* arms_n = int_range 1 3 in
             let* arms =
               list_repeat arms_n
                 (let* c = int_bound 6 in
                  let* body = go 0 in
                  return ([ Cint c ], [ body; Sbreak ]))
             in
             let* dflt = go 0 in
             return (Sswitch (e, arms @ [ ([ Cdefault ], [ dflt ]) ])) );
         ])
        st
  in
  go depth st

let gen_func st : func =
  let open QCheck.Gen in
  let nstmts = 1 + int_bound 5 st in
  let body = List.init nstmts (fun _ -> gen_stmt ~depth:2 st) in
  {
    fname = "fuzz";
    fret = Tint;
    fparams = [ (Tint, "p0"); (Tint, "p1") ];
    fbody =
      [
        Sdecl (Tint, "v0", Some (Eint 1));
        Sdecl (Tint, "c1", Some (Eint 0));
        Sdecl (Tint, "c2", Some (Eint 0));
      ]
      @ body
      @ [ Sreturn (Some (Ebin (Badd, Evar "v0", Evar "c1"))) ];
  }

(* pretty-print back to C for counterexample readability *)
let rec expr_to_c = function
  | Eint v -> string_of_int v
  | Evar n -> n
  | Eun (Uneg, e) -> Printf.sprintf "(- %s)" (expr_to_c e)
  | Eun (Ucom, e) -> Printf.sprintf "(~%s)" (expr_to_c e)
  | Eun (Unot, e) -> Printf.sprintf "(!%s)" (expr_to_c e)
  | Eun (Uderef, e) -> Printf.sprintf "(*%s)" (expr_to_c e)
  | Eaddr n -> Printf.sprintf "(&%s)" n
  | Eassign (a, b) -> Printf.sprintf "(%s = %s)" (expr_to_c a) (expr_to_c b)
  | Eindex (a, b) -> Printf.sprintf "%s[%s]" (expr_to_c a) (expr_to_c b)
  | Ecall (f, args) -> Printf.sprintf "%s(%s)" f (String.concat ", " (List.map expr_to_c args))
  | Ecast (_, e) -> Printf.sprintf "(cast)%s" (expr_to_c e)
  | Ebin (op, a, b) ->
    let o =
      match op with
      | Badd -> "+" | Bsub -> "-" | Bmul -> "*" | Bdiv -> "/" | Bmod -> "%"
      | Band -> "&" | Bor -> "|" | Bxor -> "^" | Bshl -> "<<" | Bshr -> ">>"
      | Blt -> "<" | Ble -> "<=" | Bgt -> ">" | Bge -> ">=" | Beq -> "==" | Bne -> "!="
      | Bland -> "&&" | Blor -> "||"
    in
    Printf.sprintf "(%s %s %s)" (expr_to_c a) o (expr_to_c b)

let rec stmt_to_c ind s =
  let pad = String.make ind ' ' in
  match s with
  | Sexpr e -> pad ^ expr_to_c e ^ ";"
  | Sdecl (_, n, Some e) -> Printf.sprintf "%sint %s = %s;" pad n (expr_to_c e)
  | Sdecl (_, n, None) -> Printf.sprintf "%sint %s;" pad n
  | Sif (c, a, None) -> Printf.sprintf "%sif (%s)\n%s" pad (expr_to_c c) (stmt_to_c (ind + 2) a)
  | Sif (c, a, Some b) ->
    (* brace the then-arm: without it, a then-arm ending in an else-less
       [if] captures our [else] when the printed source is re-parsed
       (dangling else), and the compiled program diverges from the AST *)
    Printf.sprintf "%sif (%s) {\n%s\n%s} else\n%s" pad (expr_to_c c) (stmt_to_c (ind + 2) a) pad
      (stmt_to_c (ind + 2) b)
  | Swhile (c, b) -> Printf.sprintf "%swhile (%s)\n%s" pad (expr_to_c c) (stmt_to_c (ind + 2) b)
  | Sblock ss -> pad ^ "{\n" ^ String.concat "\n" (List.map (stmt_to_c (ind + 2)) ss) ^ "\n" ^ pad ^ "}"
  | Sreturn (Some e) -> pad ^ "return " ^ expr_to_c e ^ ";"
  | Sreturn None -> pad ^ "return;"
  | Sbreak -> pad ^ "break;"
  | Scontinue -> pad ^ "continue;"
  | Sswitch (e, arms) ->
    pad ^ "switch (" ^ expr_to_c e ^ ") {\n"
    ^ String.concat "\n"
        (List.map
           (fun (labs, ss) ->
             String.concat "\n"
               (List.map
                  (function
                    | Cint v -> pad ^ "case " ^ string_of_int v ^ ":"
                    | Cdefault -> pad ^ "default:")
                  labs)
             ^ "\n"
             ^ String.concat "\n" (List.map (stmt_to_c (ind + 2)) ss))
           arms)
    ^ "\n" ^ pad ^ "}"
  | Sdo _ | Sfor _ | Sdecl_arr _ -> pad ^ "..."

let func_to_c (f : func) =
  Printf.sprintf "int %s(%s) {\n%s\n}" f.fname
    (String.concat ", " (List.map (fun (_, n) -> "int " ^ n) f.fparams))
    (String.concat "\n" (List.map (stmt_to_c 2) f.fbody))

(* ------------------------------------------------------------------ *)
(* Differential execution on all four ports.  The generated AST is
   rendered back to C source, which additionally exercises the lexer
   and parser on machine-generated programs.                           *)

let compile_and_run_all (f : func) a b : (string * int) list =
  let src = func_to_c f in
  let mips =
    let module C = Tcc.Tcc_compile.Make (Vmips.Mips_backend) in
    let module S = Vmips.Mips_sim in
    let prog = C.compile ~base:0x10000 src in
    let m = S.create Vmachine.Mconfig.test_config in
    List.iter
      (fun (_, code) ->
        Vmachine.Mem.install_code m.S.mem ~addr:code.Vcode.base code.Vcode.gen.Vcodebase.Gen.buf)
      prog.C.funcs;
    S.call m ~entry:(C.entry prog "fuzz") [ S.Int a; S.Int b ];
    S.ret_int m
  in
  let sparc =
    let module C = Tcc.Tcc_compile.Make (Vsparc.Sparc_backend) in
    let module S = Vsparc.Sparc_sim in
    let prog = C.compile ~base:0x10000 src in
    let m = S.create Vmachine.Mconfig.test_config in
    List.iter
      (fun (_, code) ->
        Vmachine.Mem.install_code m.S.mem ~addr:code.Vcode.base code.Vcode.gen.Vcodebase.Gen.buf)
      prog.C.funcs;
    S.call m ~entry:(C.entry prog "fuzz") [ S.Int a; S.Int b ];
    S.ret_int m
  in
  let alpha =
    let module C = Tcc.Tcc_compile.Make (Valpha.Alpha_backend) in
    let module S = Valpha.Alpha_sim in
    let prog = C.compile ~base:0x10000 src in
    let m = S.create Vmachine.Mconfig.test_config in
    List.iter
      (fun (_, code) ->
        Vmachine.Mem.install_code m.S.mem ~addr:code.Vcode.base code.Vcode.gen.Vcodebase.Gen.buf)
      prog.C.funcs;
    S.call m ~entry:(C.entry prog "fuzz") [ S.Int a; S.Int b ];
    S.ret_int m
  in
  let ppc =
    let module C = Tcc.Tcc_compile.Make (Vppc.Ppc_backend) in
    let module S = Vppc.Ppc_sim in
    let prog = C.compile ~base:0x10000 src in
    let m = S.create Vmachine.Mconfig.test_config in
    List.iter
      (fun (_, code) ->
        Vmachine.Mem.install_code m.S.mem ~addr:code.Vcode.base code.Vcode.gen.Vcodebase.Gen.buf)
      prog.C.funcs;
    S.call m ~entry:(C.entry prog "fuzz") [ S.Int a; S.Int b ];
    S.ret_int m
  in
  [ ("mips", mips); ("sparc", sparc); ("alpha", alpha); ("ppc", ppc) ]

let prop_random_c_programs =
  QCheck.Test.make ~name:"random C programs: 4 ports == AST interpreter" ~count:60
    (QCheck.make
       ~print:(fun (f, a, b) -> Printf.sprintf "a=%d b=%d\n%s" a b (func_to_c f))
       QCheck.Gen.(
         let* f = gen_func in
         let* a = int_bound 2000 in
         let* b = int_bound 2000 in
         return (f, a - 1000, b - 1000)))
    (fun (f, a, b) ->
      match eval_func f [ a; b ] with
      | expect -> List.for_all (fun (_, v) -> v = expect) (compile_and_run_all f a b)
      | exception Out_of_fuel -> QCheck.assume_fail ())

(* the scanner and the old tokenizer (Lexer_oracle) agree on generated
   programs *)
let prop_lexers_agree =
  QCheck.Test.make ~name:"random C programs: scanner == old tokenizer" ~count:500
    (QCheck.make ~print:func_to_c gen_func)
    (fun f ->
      Lexer_oracle.agree (func_to_c f);
      true)

let () =
  Alcotest.run "tcc-fuzz"
    [ ("differential", [ qtest prop_random_c_programs; qtest prop_lexers_agree ]) ]
