(* tcc tests: compile C-subset programs to VCODE, run them on the MIPS
   simulator, and compare against expected (OCaml-computed) results.
   A sample of programs also runs on SPARC, Alpha and PowerPC to check
   the machine-independence claim of section 4.1. *)

(* every program compiled here is also lexed by the old tokenizer in
   Lexer_oracle, which must agree with the scanner *)
module C = struct
  module M = Tcc.Tcc_compile.Make (Vmips.Mips_backend)
  include M

  let compile ?base ?data_base ?externs src =
    Lexer_oracle.agree src;
    M.compile ?base ?data_base ?externs src
end
module Sim = Vmips.Mips_sim

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let run_prog ?(mem_init = fun _ -> ()) src fn args =
  let prog = C.compile ~base:0x1000 src in
  let m = Sim.create Vmachine.Mconfig.test_config in
  List.iter
    (fun (_, code) ->
      Vmachine.Mem.install_code m.Sim.mem ~addr:code.Vcode.base code.Vcode.gen.Vcodebase.Gen.buf)
    prog.C.funcs;
  mem_init m;
  Sim.call m ~entry:(C.entry prog fn) (List.map (fun v -> Sim.Int v) args);
  (Sim.ret_int m, m)

let run src fn args = fst (run_prog src fn args)

(* ------------------------------------------------------------------ *)

let test_arith () =
  let src = "int f(int a, int b) { return (a + b) * 3 - a / 2 + a % 5; }" in
  let f a b = ((a + b) * 3) - (a / 2) + (a mod 5) in
  check Alcotest.int "f(10,4)" (f 10 4) (run src "f" [ 10; 4 ]);
  check Alcotest.int "f(7,0)" (f 7 0) (run src "f" [ 7; 0 ]);
  check Alcotest.int "f(123,456)" (f 123 456) (run src "f" [ 123; 456 ])

let test_precedence () =
  let src = "int f(int a) { return a + 2 * 3 << 1 | 1; }" in
  check Alcotest.int "prec" (((5 + 6) lsl 1) lor 1) (run src "f" [ 5 ])

let test_locals_and_loops () =
  let src =
    {|
      int sum_squares(int n) {
        int acc = 0;
        int i;
        for (i = 1; i <= n; i = i + 1)
          acc += i * i;
        return acc;
      }
    |}
  in
  check Alcotest.int "sum of squares" 385 (run src "sum_squares" [ 10 ]);
  check Alcotest.int "empty" 0 (run src "sum_squares" [ 0 ])

let test_while_break_continue () =
  let src =
    {|
      int f(int n) {
        int acc = 0;
        int i = 0;
        while (1) {
          i = i + 1;
          if (i > n) break;
          if (i % 2 == 0) continue;
          acc = acc + i;
        }
        return acc;
      }
    |}
  in
  (* sum of odd numbers 1..10 = 25 *)
  check Alcotest.int "break/continue" 25 (run src "f" [ 10 ])

let test_do_while () =
  let src =
    {|
      int f(int n) {
        int acc = 0;
        do { acc = acc + n; n = n - 1; } while (n > 0);
        return acc;
      }
    |}
  in
  check Alcotest.int "do-while" 15 (run src "f" [ 5 ]);
  check Alcotest.int "do-while executes once" (-3) (run src "f" [ -3 ])

let test_short_circuit () =
  let src =
    {|
      int f(int a, int b) {
        /* the (1/b) must not execute when b == 0 */
        if (b != 0 && a / b > 2) return 1;
        if (b == 0 || a / b == 0) return 2;
        return 3;
      }
    |}
  in
  check Alcotest.int "b=0 shortcircuits" 2 (run src "f" [ 10; 0 ]);
  check Alcotest.int "10/3>2" 1 (run src "f" [ 10; 3 ]);
  check Alcotest.int "3/10==0" 2 (run src "f" [ 3; 10 ]);
  check Alcotest.int "else" 3 (run src "f" [ 10; 5 ])

let test_recursion () =
  let src =
    {|
      int fib(int n) {
        if (n < 2) return n;
        return fib(n - 1) + fib(n - 2);
      }
    |}
  in
  check Alcotest.int "fib 10" 55 (run src "fib" [ 10 ]);
  check Alcotest.int "fib 15" 610 (run src "fib" [ 15 ])

let test_mutual_functions () =
  let src =
    {|
      int dbl(int x) { return x + x; }
      int quad(int x) { return dbl(dbl(x)); }
      int f(int x) { return quad(x) + dbl(x) + 1; }
    |}
  in
  check Alcotest.int "call chain" (4 * 7 + 2 * 7 + 1) (run src "f" [ 7 ])

let test_pointers () =
  let src =
    {|
      int sum(int *p, int n) {
        int acc = 0;
        int i;
        for (i = 0; i < n; i = i + 1)
          acc = acc + p[i];
        return acc;
      }
      int via_deref(int *p) { return *p + *(p + 1); }
    |}
  in
  let prog = C.compile ~base:0x1000 src in
  let m = Sim.create Vmachine.Mconfig.test_config in
  List.iter
    (fun (_, code) ->
      Vmachine.Mem.install_code m.Sim.mem ~addr:code.Vcode.base code.Vcode.gen.Vcodebase.Gen.buf)
    prog.C.funcs;
  let buf = 0x40000 in
  List.iteri (fun i v -> Vmachine.Mem.write_u32 m.Sim.mem (buf + (4 * i)) v) [ 3; 5; 7; 11; 13 ];
  Sim.call m ~entry:(C.entry prog "sum") [ Sim.Int buf; Sim.Int 5 ];
  check Alcotest.int "array sum" 39 (Sim.ret_int m);
  Sim.call m ~entry:(C.entry prog "via_deref") [ Sim.Int buf ];
  check Alcotest.int "deref arith" 8 (Sim.ret_int m)

let test_char_pointers () =
  let src =
    {|
      int count_zeros(unsigned char *p, int n) {
        int acc = 0;
        int i;
        for (i = 0; i < n; i = i + 1)
          if (p[i] == 0) acc = acc + 1;
        return acc;
      }
      void fill(unsigned char *p, int n, int v) {
        int i;
        for (i = 0; i < n; i = i + 1)
          p[i] = (unsigned char)(v + i);
      }
    |}
  in
  let prog = C.compile ~base:0x1000 src in
  let m = Sim.create Vmachine.Mconfig.test_config in
  List.iter
    (fun (_, code) ->
      Vmachine.Mem.install_code m.Sim.mem ~addr:code.Vcode.base code.Vcode.gen.Vcodebase.Gen.buf)
    prog.C.funcs;
  let buf = 0x40000 in
  Sim.call m ~entry:(C.entry prog "fill") [ Sim.Int buf; Sim.Int 300; Sim.Int 0 ];
  (* fill wrote bytes 0..255,0..43: zeros at offsets 0 and 256 *)
  Sim.call m ~entry:(C.entry prog "count_zeros") [ Sim.Int buf; Sim.Int 300 ];
  check Alcotest.int "byte wraparound" 2 (Sim.ret_int m);
  check Alcotest.int "byte written" 7 (Vmachine.Mem.read_u8 m.Sim.mem (buf + 7))

let test_local_arrays () =
  let src =
    {|
      int sieve(int limit) {
        char flags[1000];
        int i;
        int count = 0;
        for (i = 0; i < limit; i = i + 1) flags[i] = 1;
        for (i = 2; i < limit; i = i + 1) {
          if (flags[i]) {
            int j;
            count = count + 1;
            for (j = i + i; j < limit; j = j + i) flags[j] = 0;
          }
        }
        return count;
      }
    |}
  in
  check Alcotest.int "primes below 1000" 168 (run src "sieve" [ 1000 ]);
  check Alcotest.int "primes below 100" 25 (run src "sieve" [ 100 ]);
  check Alcotest.int "primes below 10" 4 (run src "sieve" [ 10 ])

let test_array_memoization () =
  let src =
    {|
      int fib(int n) {
        int memo[50];
        int i;
        memo[0] = 0;
        memo[1] = 1;
        for (i = 2; i <= n; i = i + 1)
          memo[i] = memo[i - 1] + memo[i - 2];
        return memo[n];
      }
    |}
  in
  check Alcotest.int "fib 40 via array" 102334155 (run src "fib" [ 40 ])

let test_multiple_arrays () =
  let src =
    {|
      int convolve(int n) {
        int a[16];
        int b[16];
        int i;
        int acc = 0;
        for (i = 0; i < n; i = i + 1) { a[i] = i; b[i] = n - i; }
        for (i = 0; i < n; i = i + 1) acc = acc + a[i] * b[i];
        return acc;
      }
    |}
  in
  let reference n =
    let acc = ref 0 in
    for i = 0 to n - 1 do acc := !acc + (i * (n - i)) done;
    !acc
  in
  check Alcotest.int "two arrays" (reference 16) (run src "convolve" [ 16 ]);
  check Alcotest.int "two arrays small" (reference 3) (run src "convolve" [ 3 ])

let test_address_of () =
  let src =
    {|
      void divmod(int a, int b, int *q, int *r) {
        *q = a / b;
        *r = a % b;
      }
      int f(int a, int b) {
        int q;
        int r;
        divmod(a, b, &q, &r);
        return q * 1000 + r;
      }
      int swap_test(int x, int y) {
        /* address of parameters */
        int t = *(&x);
        *(&x) = y;
        return x * 100 + t;
      }
    |}
  in
  check Alcotest.int "out-params" (14 * 1000 + 2) (run src "f" [ 100; 7 ]);
  check Alcotest.int "addressed params" (9 * 100 + 4) (run src "swap_test" [ 4; 9 ])

let test_switch () =
  let src =
    {|
      int classify(int x) {
        switch (x) {
          case 0: return 100;
          case 1:
          case 2: return 200;
          case 7: return 700;
          case -3: return 300;
          default: return -1;
        }
      }
      int fallthrough(int x) {
        int acc = 0;
        switch (x) {
          case 1: acc = acc + 1;
          case 2: acc = acc + 2;
          case 3: acc = acc + 4; break;
          case 4: acc = acc + 8; break;
          default: acc = 1000;
        }
        return acc;
      }
    |}
  in
  check Alcotest.int "case 0" 100 (run src "classify" [ 0 ]);
  check Alcotest.int "case 1" 200 (run src "classify" [ 1 ]);
  check Alcotest.int "case 2" 200 (run src "classify" [ 2 ]);
  check Alcotest.int "case 7" 700 (run src "classify" [ 7 ]);
  check Alcotest.int "case -3" 300 (run src "classify" [ -3 ]);
  check Alcotest.int "default" (-1) (run src "classify" [ 42 ]);
  (* fallthrough semantics *)
  check Alcotest.int "falls 1->2->3" 7 (run src "fallthrough" [ 1 ]);
  check Alcotest.int "falls 2->3" 6 (run src "fallthrough" [ 2 ]);
  check Alcotest.int "case 3 breaks" 4 (run src "fallthrough" [ 3 ]);
  check Alcotest.int "case 4" 8 (run src "fallthrough" [ 4 ]);
  check Alcotest.int "default arm" 1000 (run src "fallthrough" [ 9 ])

let test_wide_switch_bsearch () =
  (* many sparse cases force the binary-search dispatch *)
  let cases = List.init 20 (fun i -> (1 + (i * 37), 5000 + i)) in
  let body =
    String.concat "\n"
      (List.map (fun (v, r) -> Printf.sprintf "case %d: return %d;" v r) cases)
  in
  let src = Printf.sprintf "int f(int x) { switch (x) { %s default: return -1; } }" body in
  List.iter
    (fun (v, r) -> check Alcotest.int (string_of_int v) r (run src "f" [ v ]))
    cases;
  check Alcotest.int "miss" (-1) (run src "f" [ 2 ])

let test_globals () =
  let src =
    {|
      int counter;
      unsigned char table[256];
      int bump(int by) { counter = counter + by; return counter; }
      int fill_table(int n) {
        int i;
        for (i = 0; i < n; i = i + 1) table[i] = (unsigned char)(i * 3);
        return table[10];
      }
      int use_both(int n) {
        bump(n);
        bump(n);
        return counter + fill_table(64);
      }
    |}
  in
  let prog = C.compile ~base:0x1000 src in
  let m = Sim.create Vmachine.Mconfig.test_config in
  List.iter
    (fun (_, code) ->
      Vmachine.Mem.install_code m.Sim.mem ~addr:code.Vcode.base code.Vcode.gen.Vcodebase.Gen.buf)
    prog.C.funcs;
  (* globals persist across calls on the same machine *)
  Sim.call m ~entry:(C.entry prog "bump") [ Sim.Int 5 ];
  check Alcotest.int "counter = 5" 5 (Sim.ret_int m);
  Sim.call m ~entry:(C.entry prog "bump") [ Sim.Int 7 ];
  check Alcotest.int "counter = 12" 12 (Sim.ret_int m);
  Sim.call m ~entry:(C.entry prog "use_both") [ Sim.Int 4 ];
  check Alcotest.int "global array + scalar" (12 + 8 + 30) (Sim.ret_int m)

let test_signed_char () =
  let src = "int f(char c) { return (char)(c + 100); }" in
  (* 100 + 100 = 200 -> as signed char = -56 *)
  check Alcotest.int "char wraps signed" (-56) (run src "f" [ 100 ])

let test_unsigned_semantics () =
  let src = "int f(unsigned a, unsigned b) { return a / b; }" in
  (* 0xFFFFFFFE / 2 = 0x7FFFFFFF *)
  check Alcotest.int "unsigned div" 0x7FFFFFFF (run src "f" [ -2; 2 ]);
  let src2 = "int f(unsigned a, int b) { if (a > b) return 1; return 0; }" in
  (* unsigned comparison: 0xFFFFFFFF > 1 *)
  check Alcotest.int "unsigned compare" 1 (run src2 "f" [ -1; 1 ])

let test_shifts_and_masks () =
  let src =
    {|
      int f(unsigned x) {
        return ((x >> 16) & 0xff) | ((x & 0xff) << 8);
      }
    |}
  in
  let reference x = (((x lsr 16) land 0xff) lor ((x land 0xff) lsl 8)) land 0xffffffff in
  check Alcotest.int "bit surgery" (reference 0x12345678) (run src "f" [ 0x12345678 ])

let test_compound_assign_and_incr () =
  let src =
    {|
      int f(int x) {
        int acc = 0;
        acc += x;
        acc *= 2;
        acc -= 3;
        acc ^= 1;
        x++;
        --x;
        return acc + x;
      }
    |}
  in
  let reference x = ((((0 + x) * 2) - 3) lxor 1) + x in
  check Alcotest.int "compound ops" (reference 21) (run src "f" [ 21 ])

let prop_expression_compile =
  QCheck.Test.make ~name:"complex expression matches OCaml evaluation" ~count:60
    QCheck.(pair small_signed_int small_signed_int)
    (fun (a, b) ->
      (* a fixed complex expression evaluated at random points *)
      let src =
        "int f(int a, int b) { return ((a*3 - b) ^ (a & b)) + ((a | 5) - (b << 2 & 31)) * 2; }"
      in
      let sext32 v =
        let v = v land 0xFFFFFFFF in
        if v land 0x80000000 <> 0 then v - 0x100000000 else v
      in
      let expect =
        sext32
          ((((a * 3) - b) lxor (a land b)) + (((a lor 5) - ((b lsl 2) land 31)) * 2))
      in
      run src "f" [ a; b ] = expect)

let test_errors () =
  let bad src =
    match C.compile src with
    | _ -> Alcotest.failf "expected failure: %s" src
    | exception (Tcc.Tcc_compile.Compile_error _ | Tcc.Parser.Parse_error _) -> ()
  in
  bad "int f(int a) { return g(a); }" (* undefined function *);
  bad "int f(int a) { return x; }" (* undefined variable *);
  bad "int f(int a) { return *a; }" (* deref non-pointer *);
  bad "int f(int a) { break; }" (* break outside loop *);
  bad "int f(int a) { return a +; }" (* syntax *)

(* [src]'s function [fn] compiled and run on every port *)
let on_ports src fn args =
  let install mem funcs =
    List.iter
      (fun (_, code) ->
        Vmachine.Mem.install_code mem ~addr:code.Vcode.base code.Vcode.gen.Vcodebase.Gen.buf)
      funcs
  in
  let cfg = Vmachine.Mconfig.test_config in
  let sparc =
    let module CS = Tcc.Tcc_compile.Make (Vsparc.Sparc_backend) in
    let module S = Vsparc.Sparc_sim in
    let prog = CS.compile ~base:0x10000 src in
    let m = S.create cfg in
    install m.S.mem prog.CS.funcs;
    S.call m ~entry:(CS.entry prog fn) (List.map (fun v -> S.Int v) args);
    S.ret_int m
  in
  let alpha =
    let module CA = Tcc.Tcc_compile.Make (Valpha.Alpha_backend) in
    let module S = Valpha.Alpha_sim in
    let prog = CA.compile ~base:0x10000 src in
    let m = S.create cfg in
    install m.S.mem prog.CA.funcs;
    S.call m ~entry:(CA.entry prog fn) (List.map (fun v -> S.Int v) args);
    S.ret_int m
  in
  let ppc =
    let module CP = Tcc.Tcc_compile.Make (Vppc.Ppc_backend) in
    let module S = Vppc.Ppc_sim in
    let prog = CP.compile ~base:0x10000 src in
    let m = S.create cfg in
    install m.S.mem prog.CP.funcs;
    S.call m ~entry:(CP.entry prog fn) (List.map (fun v -> S.Int v) args);
    S.ret_int m
  in
  [ ("mips", run src fn args); ("sparc", sparc); ("alpha", alpha); ("ppc", ppc) ]

(* the same source compiled for every target gives the same result *)
let test_cross_target () =
  let src =
    {|
      int gcd(int a, int b) {
        while (b != 0) {
          int t = a % b;
          a = b;
          b = t;
        }
        return a;
      }
      int f(int a, int b) { return gcd(a, b) + gcd(b, a); }
    |}
  in
  List.iter (fun (port, r) -> check Alcotest.int ("gcd on " ^ port) 42 r) (on_ports src "f" [ 1071; 462 ])

let test_many_args_and_deep_calls () =
  let src =
    {|
      int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
        return a + b + c + d + e + f + g + h;
      }
      int f(int x) {
        return sum8(x, x+1, x+2, x+3, x+4, x+5, x+6, x+7);
      }
    |}
  in
  check Alcotest.int "8-arg call" (8 * 10 + 28) (run src "f" [ 10 ])

(* one call-arity limit on every port: twelve evaluated arguments
   outgrow every temp pool, and the rest go to var registers *)
let test_twelve_args_every_port () =
  let src =
    {|
      int sum12(int a, int b, int c, int d, int e, int f, int g, int h,
                int i, int j, int k, int l) {
        return a + 2*b + 3*c + 4*d + 5*e + 6*f + 7*g + 8*h + 9*i + 10*j + 11*k + 12*l;
      }
      int f(int x) {
        return sum12(x, x+1, x+2, x+3, x+4, x+5, x+6, x+7, x+8, x+9, x+10, x+11);
      }
    |}
  in
  let expect = List.fold_left ( + ) 0 (List.init 12 (fun k -> (k + 1) * (10 + k))) in
  List.iter (fun (port, r) -> check Alcotest.int ("12-arg call on " ^ port) expect r) (on_ports src "f" [ 10 ])

let () =
  Random.self_init ();
  Alcotest.run "tcc"
    [
      ( "expressions",
        [
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "shifts/masks" `Quick test_shifts_and_masks;
          Alcotest.test_case "compound assign" `Quick test_compound_assign_and_incr;
          qtest prop_expression_compile;
        ] );
      ( "control",
        [
          Alcotest.test_case "loops" `Quick test_locals_and_loops;
          Alcotest.test_case "break/continue" `Quick test_while_break_continue;
          Alcotest.test_case "do-while" `Quick test_do_while;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "switch" `Quick test_switch;
          Alcotest.test_case "wide switch (bsearch)" `Quick test_wide_switch_bsearch;
        ] );
      ( "functions",
        [
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "mutual" `Quick test_mutual_functions;
          Alcotest.test_case "8 args" `Quick test_many_args_and_deep_calls;
          Alcotest.test_case "12 args, every port" `Quick test_twelve_args_every_port;
        ] );
      ( "memory",
        [
          Alcotest.test_case "pointers" `Quick test_pointers;
          Alcotest.test_case "char pointers" `Quick test_char_pointers;
          Alcotest.test_case "local arrays (sieve)" `Quick test_local_arrays;
          Alcotest.test_case "array memoization" `Quick test_array_memoization;
          Alcotest.test_case "multiple arrays" `Quick test_multiple_arrays;
          Alcotest.test_case "globals" `Quick test_globals;
          Alcotest.test_case "address-of" `Quick test_address_of;
          Alcotest.test_case "signed char" `Quick test_signed_char;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "unsigned" `Quick test_unsigned_semantics;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "cross-target" `Quick test_cross_target;
        ] );
    ]
