(* tcc code generation: C subset -> VCODE.

   One pass over the AST per function, emitting VCODE directly (the
   compiler front-end is "a small compiler front-end" in the paper's
   phrase; VCODE is the whole back-end).  Machine independence falls out
   of the VCODE interface: this module is a functor over {!Target.S} and
   compiles identically for MIPS, SPARC and Alpha — the property the
   paper reports for the real tcc ("the same VCODE generation backend on
   the two architectures it supports").

   Conventions:
   - chars/shorts are promoted to int in registers; memory accesses use
     their true width;
   - locals live in registers (VAR class) while the allocator has them,
     then fall back to stack slots — exactly the paper's division of
     labour between VCODE's allocator and its clients;
   - multiplications/divisions by constants go through the VCODE
     strength-reduction layer (section 5.4);
   - leafness is inferred from the AST so leaf functions keep arguments
     in their incoming registers. *)

open Vcodebase
open Ast

exception Compile_error of string

let cfail fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

(* a callable symbol: address + signature *)
type sym = { sym_addr : int; sym_ret : ty; sym_params : ty list }

module Make (T : Target.S) = struct
  module V = Vcode.Make (T)

  let word_bytes = Machdesc.word_bytes T.desc

  (* value type: how an expression result lives in a register *)
  let value_vt : ty -> Vtype.t = function
    | Tint | Tchar -> Vtype.I
    | Tuint | Tuchar | Tushort -> Vtype.U
    | Tptr _ -> Vtype.P
    | Tvoid -> Vtype.V

  (* memory type: the width used by loads/stores of this type *)
  let mem_vt : ty -> Vtype.t = function
    | Tint -> Vtype.I
    | Tuint -> Vtype.U
    | Tchar -> Vtype.C
    | Tuchar -> Vtype.UC
    | Tushort -> Vtype.US
    | Tptr _ -> Vtype.P
    | Tvoid -> cfail "void has no size"

  (* register class (int vs float file); this subset is integer-only *)
  let is_word_reg r = not (Reg.is_float r)
  let _ = is_word_reg

  type var = Vreg of Reg.t * ty | Vstk of V.local * ty

  (* a global variable: absolute address; arrays evaluate to their
     address, scalars to their loaded value *)
  type gvar = { g_addr : int; g_ty : ty; g_array : bool }

  type fctx = {
    g : V.gen;
    syms : (string, sym) Hashtbl.t;
    globals : (string, gvar) Hashtbl.t;
    mutable vars : (string * var) list; (* innermost first *)
    addressed : string list; (* names that must live on the stack *)
    ret_ty : ty;
    mutable break_labs : int list;
    mutable cont_labs : int list;
  }

  let rec assoc_var name = function
    | [] -> None
    | (n, v) :: rest -> if String.equal n name then Some v else assoc_var name rest

  let lookup_var ctx name = assoc_var name ctx.vars

  let lookup_global ctx name = Hashtbl.find_opt ctx.globals name

  let var_ty = function Vreg (_, t) -> t | Vstk (_, t) -> t

  (* usual-arithmetic-conversion result type, simplified *)
  let arith_ty a b =
    match (a, b) with
    | Tptr _, _ -> a
    | _, Tptr _ -> b
    | (Tuint | Tuchar | Tushort), _ | _, (Tuint | Tuchar | Tushort) -> Tuint
    | _ -> Tint

  (* a temp, else a var: a call's evaluated arguments all stay live
     until the call, so a long argument list outgrows the temp pool *)
  let temp ctx (t : ty) =
    match V.getreg ctx.g ~cls:`Temp (value_vt t) with
    | Some r -> r
    | None -> (
      match V.getreg ctx.g ~cls:`Var (value_vt t) with
      | Some r -> r
      | None -> cfail "out of registers (expression too deep)")

  let free ctx r ~owned = if owned then V.putreg ctx.g r

  (* Temporaries are caller-saved: a value that must survive the
     evaluation of an expression containing a call is parked in a
     callee-saved register (or a stack slot when none is free) and
     reloaded afterwards.  This is exactly the register discipline the
     paper assigns to VCODE clients. *)
  type parked = Preg of Reg.t | Pstk of V.local

  let park ctx (r, (t : ty), owned) : parked =
    match V.getreg ctx.g ~cls:`Var (value_vt t) with
    | Some s ->
      V.unary ctx.g Op.Mov (value_vt t) s r;
      free ctx r ~owned;
      Preg s
    | None ->
      let l = V.local ctx.g (value_vt t) in
      V.st_local ctx.g l r;
      free ctx r ~owned;
      Pstk l

  let unpark ctx (t : ty) = function
    | Preg s -> (s, true)
    | Pstk l ->
      let r = temp ctx t in
      V.ld_local ctx.g l r;
      (r, true)

  (* evaluate [b] while keeping [a]'s result alive across any calls
     inside [b]; returns the (possibly reloaded) register for [a] *)
  let eval_protected ctx (ra, ta, oa) (b : expr) (evalb : unit -> 'r) :
      (Reg.t * bool) * 'r =
    if expr_has_call b then begin
      let p = park ctx (ra, ta, oa) in
      let rb = evalb () in
      let ra, oa = unpark ctx ta p in
      ((ra, oa), rb)
    end
    else
      let rb = evalb () in
      ((ra, oa), rb)

  (* materialize an rvalue; returns (register, type, owned) *)
  let rec gen_expr ctx (e : expr) : Reg.t * ty * bool =
    match e with
    | Eint v ->
      let r = temp ctx Tint in
      V.set ctx.g Vtype.I r (Int64.of_int v);
      (r, Tint, true)
    | Evar name -> (
      match lookup_var ctx name with
      | Some (Vreg (r, t)) -> (r, t, false)
      | Some (Vstk (l, t)) ->
        let r = temp ctx t in
        V.ld_local ctx.g l r;
        (r, t, true)
      | None -> (
        match lookup_global ctx name with
        | Some gv when gv.g_array ->
          (* a global array evaluates to its address *)
          let r = temp ctx (Tptr gv.g_ty) in
          V.set ctx.g Vtype.P r (Int64.of_int gv.g_addr);
          (r, Tptr gv.g_ty, true)
        | Some gv ->
          let a = temp ctx (Tptr gv.g_ty) in
          V.set ctx.g Vtype.P a (Int64.of_int gv.g_addr);
          let r = temp ctx gv.g_ty in
          V.load_imm ctx.g (mem_vt gv.g_ty) r a 0;
          free ctx a ~owned:true;
          (r, gv.g_ty, true)
        | None -> cfail "undefined variable %s" name))
    | Eaddr name -> (
      match lookup_var ctx name with
      | Some (Vstk (l, t)) ->
        let r = temp ctx (Tptr t) in
        V.local_addr ctx.g l r;
        (r, Tptr t, true)
      | Some (Vreg _) -> cfail "&%s: variable unexpectedly in a register" name
      | None -> (
        match lookup_global ctx name with
        | Some gv ->
          let r = temp ctx (Tptr gv.g_ty) in
          V.set ctx.g Vtype.P r (Int64.of_int gv.g_addr);
          (r, Tptr gv.g_ty, true)
        | None -> cfail "undefined variable %s" name))
    | Ecast (t, e) ->
      let r, _, owned = gen_expr ctx e in
      let vt = value_vt t in
      (* the source subset is integer/pointer-only so casts only narrow *)
      let rd = if owned then r else temp ctx t in
      (match t with
      | Tuchar -> V.arith_imm ctx.g Op.And (value_vt Tuint) rd r 0xFF
      | Tushort -> V.arith_imm ctx.g Op.And (value_vt Tuint) rd r 0xFFFF
      | Tchar ->
        let w = T.desc.Machdesc.word_bits in
        V.arith_imm ctx.g Op.Lsh Vtype.I rd r (w - 8);
        V.arith_imm ctx.g Op.Rsh Vtype.I rd rd (w - 8)
      | _ ->
        ignore vt;
        if not (Reg.equal rd r) then V.unary ctx.g Op.Mov (value_vt t) rd r);
      (rd, t, true)
    | Eun (Uneg, e) ->
      let r, t, owned = gen_expr ctx e in
      let rd = if owned then r else temp ctx t in
      V.unary ctx.g Op.Neg (value_vt (arith_ty t Tint)) rd r;
      (rd, arith_ty t Tint, true)
    | Eun (Ucom, e) ->
      let r, t, owned = gen_expr ctx e in
      let rd = if owned then r else temp ctx t in
      V.unary ctx.g Op.Com (value_vt (arith_ty t Tint)) rd r;
      (rd, arith_ty t Tint, true)
    | Eun (Unot, e) ->
      let r, t, owned = gen_expr ctx e in
      let rd = if owned then r else temp ctx Tint in
      V.unary ctx.g Op.Not (value_vt (arith_ty t Tint)) rd r;
      (rd, Tint, true)
    | Eun (Uderef, e) ->
      let r, t, owned = gen_expr ctx e in
      let pointee = match t with Tptr p -> p | _ -> cfail "dereference of non-pointer" in
      let rd = if owned then r else temp ctx pointee in
      V.load_imm ctx.g (mem_vt pointee) rd r 0;
      (rd, pointee, true)
    | Eindex (base, idx) ->
      let addr, pointee, owned = gen_addr_index ctx base idx in
      let rd = if owned then addr else temp ctx pointee in
      V.load_imm ctx.g (mem_vt pointee) rd addr 0;
      (rd, pointee, true)
    | Ebin ((Blt | Ble | Bgt | Bge | Beq | Bne | Bland | Blor), _, _) ->
      (* boolean in value position: materialize 0/1 *)
      let rd = temp ctx Tint in
      let ltrue = V.genlabel ctx.g in
      V.set ctx.g Vtype.I rd 1L;
      gen_cond ctx e ~target:ltrue ~jump_if:true;
      V.set ctx.g Vtype.I rd 0L;
      V.label ctx.g ltrue;
      (rd, Tint, true)
    | Ebin (op, a, b) -> gen_arith ctx op a b
    | Eassign (lhs, rhs) -> gen_assign ctx lhs rhs
    | Ecall (name, args) -> (
      match gen_call ctx name args with
      | Some (r, t) -> (r, t, true)
      | None -> cfail "void value of %s used" name)

  (* address of base[idx], with C element scaling *)
  and gen_addr_index ctx base idx : Reg.t * ty * bool =
    let rb, tb, ob = gen_expr ctx base in
    let pointee = match tb with Tptr p -> p | _ -> cfail "indexing non-pointer" in
    let size = ty_size ~word_bytes pointee in
    let addr =
      match idx with
      | Eint k ->
        let rd = if ob then rb else temp ctx tb in
        V.arith_imm ctx.g Op.Add Vtype.P rd rb (k * size);
        rd
      | _ ->
        let ri, _, oi = gen_expr ctx idx in
        let scaled = if oi then ri else temp ctx Tint in
        V.Strength.mul ctx.g Vtype.I scaled ri size;
        let rd = if ob then rb else temp ctx tb in
        (* reinterpret the scaled index as a pointer-width offset *)
        V.arith ctx.g Op.Add Vtype.P rd rb
          (match scaled with Reg.R n -> Reg.R n | Reg.F n -> Reg.F n);
        if not (Reg.equal scaled rd) then free ctx scaled ~owned:true;
        rd
    in
    (addr, pointee, true)

  and gen_arith ctx op a b : Reg.t * ty * bool =
    let vop =
      match op with
      | Badd -> Op.Add | Bsub -> Op.Sub | Bmul -> Op.Mul | Bdiv -> Op.Div
      | Bmod -> Op.Mod | Band -> Op.And | Bor -> Op.Or | Bxor -> Op.Xor
      | Bshl -> Op.Lsh | Bshr -> Op.Rsh
      | Blt | Ble | Bgt | Bge | Beq | Bne | Bland | Blor -> assert false
    in
    let ra, ta, oa = gen_expr ctx a in
    (* pointer +- integer: scale the integer side *)
    match (op, ta) with
    | (Badd | Bsub), Tptr pointee -> (
      let size = ty_size ~word_bytes pointee in
      match b with
      | Eint k ->
        let rd = if oa then ra else temp ctx ta in
        V.arith_imm ctx.g vop Vtype.P rd ra (k * size);
        (rd, ta, true)
      | _ ->
        let (ra, oa), (rb, tb, ob) =
          eval_protected ctx (ra, ta, oa) b (fun () -> gen_expr ctx b)
        in
        (match tb with
        | Tptr _ when op = Bsub ->
          (* pointer difference: (a - b) / size *)
          let rd = if oa then ra else temp ctx Tint in
          V.arith ctx.g Op.Sub Vtype.P rd ra rb;
          free ctx rb ~owned:ob;
          V.Strength.div ctx.g Vtype.I rd rd size;
          (rd, Tint, true)
        | _ ->
          let scaled = if ob then rb else temp ctx Tint in
          V.Strength.mul ctx.g Vtype.I scaled rb size;
          let rd = if oa then ra else temp ctx ta in
          V.arith ctx.g vop Vtype.P rd ra scaled;
          if not (Reg.equal scaled rd) then free ctx scaled ~owned:true;
          (rd, ta, true)))
    | _ -> (
      let rt = arith_ty ta (Tint) in
      match b with
      | Eint k when op = Bmul ->
        let rd = if oa then ra else temp ctx rt in
        V.Strength.mul ctx.g (value_vt rt) rd ra k;
        (rd, rt, true)
      | Eint k when (op = Bdiv || op = Bmod) && k <> 0 ->
        let rd = if oa then ra else temp ctx rt in
        let t' = arith_ty ta Tint in
        if op = Bdiv then V.Strength.div ctx.g (value_vt t') rd ra k
        else V.Strength.rem ctx.g (value_vt t') rd ra k;
        (rd, t', true)
      | Eint k ->
        let rd = if oa then ra else temp ctx rt in
        V.arith_imm ctx.g vop (value_vt rt) rd ra k;
        (rd, rt, true)
      | _ ->
        let (ra, oa), (rb, tb, ob) =
          eval_protected ctx (ra, ta, oa) b (fun () -> gen_expr ctx b)
        in
        let rt = arith_ty ta tb in
        let rd = if oa then ra else temp ctx rt in
        V.arith ctx.g vop (value_vt rt) rd ra rb;
        free ctx rb ~owned:ob;
        (rd, rt, true))

  and gen_assign ctx lhs rhs : Reg.t * ty * bool =
    match lhs with
    | Evar name -> (
      match lookup_var ctx name with
      | Some (Vreg (r, t)) ->
        let rv, _, ov = gen_expr ctx rhs in
        if not (Reg.equal rv r) then V.unary ctx.g Op.Mov (value_vt t) r rv;
        free ctx rv ~owned:ov;
        (r, t, false)
      | Some (Vstk (l, t)) ->
        let rv, _, ov = gen_expr ctx rhs in
        V.st_local ctx.g l rv;
        (rv, t, ov)
      | None -> (
        match lookup_global ctx name with
        | Some gv when not gv.g_array ->
          let rv, _, ov = gen_expr ctx rhs in
          let a = temp ctx (Tptr gv.g_ty) in
          V.set ctx.g Vtype.P a (Int64.of_int gv.g_addr);
          V.store_imm ctx.g (mem_vt gv.g_ty) rv a 0;
          free ctx a ~owned:true;
          (rv, gv.g_ty, ov)
        | Some _ -> cfail "cannot assign to array %s" name
        | None -> cfail "undefined variable %s" name))
    | Eun (Uderef, p) ->
      let rp, tp, op_ = gen_expr ctx p in
      let pointee = match tp with Tptr t -> t | _ -> cfail "store through non-pointer" in
      let (rp, op_), (rv, _, ov) =
        eval_protected ctx (rp, tp, op_) rhs (fun () -> gen_expr ctx rhs)
      in
      V.store_imm ctx.g (mem_vt pointee) rv rp 0;
      free ctx rp ~owned:op_;
      (rv, pointee, ov)
    | Eindex (base, idx) ->
      let addr, pointee, oa = gen_addr_index ctx base idx in
      let (addr, oa), (rv, _, ov) =
        eval_protected ctx (addr, Tptr pointee, oa) rhs (fun () -> gen_expr ctx rhs)
      in
      V.store_imm ctx.g (mem_vt pointee) rv addr 0;
      free ctx addr ~owned:oa;
      (rv, pointee, ov)
    | _ -> cfail "invalid assignment target"

  and gen_call ctx name args : (Reg.t * ty) option =
    let sym =
      match Hashtbl.find_opt ctx.syms name with
      | Some s -> s
      | None -> cfail "undefined function %s" name
    in
    if List.length args <> List.length sym.sym_params then
      cfail "%s: expected %d arguments, got %d" name (List.length sym.sym_params)
        (List.length args);
    (* evaluate arguments left to right, parking any temporary that
       must survive a call inside a later argument *)
    let rec eval_args = function
      | [] -> []
      | (e, pt) :: rest ->
        let r, _, owned = gen_expr ctx e in
        let later_call = List.exists (fun (e2, _) -> expr_has_call e2) rest in
        if later_call && owned then begin
          let p = park ctx (r, pt, owned) in
          let rest' = eval_args rest in
          let r, owned = unpark ctx pt p in
          (value_vt pt, r, owned) :: rest'
        end
        else (value_vt pt, r, owned) :: eval_args rest
    in
    let evaluated = eval_args (List.combine args sym.sym_params) in
    let vargs = List.map (fun (vt, r, _) -> (vt, r)) evaluated in
    let ret =
      if sym.sym_ret = Tvoid then None
      else
        let rr = temp ctx sym.sym_ret in
        Some (value_vt sym.sym_ret, rr)
    in
    V.ccall ctx.g (Gen.Jaddr sym.sym_addr) ~args:vargs ~ret;
    List.iter (fun (_, r, owned) -> free ctx r ~owned) evaluated;
    match ret with Some (_, rr) -> Some (rr, sym.sym_ret) | None -> None

  (* compile a boolean expression as control flow: branch to [target]
     when the expression's truth equals [jump_if] *)
  and gen_cond ctx (e : expr) ~target ~jump_if =
    match e with
    | Eun (Unot, e) -> gen_cond ctx e ~target ~jump_if:(not jump_if)
    | Ebin (Bland, a, b) ->
      if not jump_if then begin
        gen_cond ctx a ~target ~jump_if:false;
        gen_cond ctx b ~target ~jump_if:false
      end
      else begin
        let skip = V.genlabel ctx.g in
        gen_cond ctx a ~target:skip ~jump_if:false;
        gen_cond ctx b ~target ~jump_if:true;
        V.label ctx.g skip
      end
    | Ebin (Blor, a, b) ->
      if jump_if then begin
        gen_cond ctx a ~target ~jump_if:true;
        gen_cond ctx b ~target ~jump_if:true
      end
      else begin
        let skip = V.genlabel ctx.g in
        gen_cond ctx a ~target:skip ~jump_if:true;
        gen_cond ctx b ~target ~jump_if:false;
        V.label ctx.g skip
      end
    | Ebin ((Blt | Ble | Bgt | Bge | Beq | Bne) as op, a, b) -> (
      let cond =
        match op with
        | Blt -> Op.Lt | Ble -> Op.Le | Bgt -> Op.Gt | Bge -> Op.Ge
        | Beq -> Op.Eq | Bne -> Op.Ne
        | _ -> assert false
      in
      let cond = if jump_if then cond else
        match cond with
        | Op.Lt -> Op.Ge | Op.Le -> Op.Gt | Op.Gt -> Op.Le | Op.Ge -> Op.Lt
        | Op.Eq -> Op.Ne | Op.Ne -> Op.Eq
      in
      let ra, ta, oa = gen_expr ctx a in
      match b with
      | Eint k ->
        let t = arith_ty ta Tint in
        V.branch_imm ctx.g cond (value_vt t) ra k target;
        free ctx ra ~owned:oa
      | _ ->
        let (ra, oa), (rb, tb, ob) =
          eval_protected ctx (ra, ta, oa) b (fun () -> gen_expr ctx b)
        in
        let t = arith_ty ta tb in
        V.branch ctx.g cond (value_vt t) ra rb target;
        free ctx ra ~owned:oa;
        free ctx rb ~owned:ob)
    | _ ->
      let r, t, owned = gen_expr ctx e in
      let c = if jump_if then Op.Ne else Op.Eq in
      V.branch_imm ctx.g c (value_vt (arith_ty t Tint)) r 0 target;
      free ctx r ~owned

  (* ---------------------------------------------------------------- *)
  (* Statements                                                        *)

  let rec gen_stmt ctx (s : stmt) =
    match s with
    | Sblock ss ->
      let saved = ctx.vars in
      List.iter (gen_stmt ctx) ss;
      (* free registers of block-scoped variables *)
      let rec release l =
        if l != saved then
          match l with
          | (_, Vreg (r, _)) :: rest ->
            V.putreg ctx.g r;
            release rest
          | _ :: rest -> release rest
          | [] -> ()
      in
      release ctx.vars;
      ctx.vars <- saved
    | Sdecl (t, name, init) ->
      let v =
        if List.mem name ctx.addressed then Vstk (V.local ctx.g (value_vt t), t)
        else
          match V.getreg ctx.g ~cls:`Var (value_vt t) with
          | Some r -> Vreg (r, t)
          | None -> Vstk (V.local ctx.g (value_vt t), t)
      in
      ctx.vars <- (name, v) :: ctx.vars;
      (match init with
      | None -> ()
      | Some e -> ignore (gen_assign ctx (Evar name) e))
    | Sdecl_arr (t, name, n) ->
      let size = ty_size ~word_bytes t in
      let blk = V.local_block ctx.g ~bytes:(n * size) ~align:word_bytes in
      let pty = Tptr t in
      let v =
        match V.getreg ctx.g ~cls:`Var (value_vt pty) with
        | Some r ->
          V.local_addr ctx.g blk r;
          Vreg (r, pty)
        | None ->
          let slot = V.local ctx.g Vtype.P in
          let tmp = temp ctx pty in
          V.local_addr ctx.g blk tmp;
          V.st_local ctx.g slot tmp;
          free ctx tmp ~owned:true;
          Vstk (slot, pty)
      in
      ctx.vars <- (name, v) :: ctx.vars
    | Sexpr (Ecall (name, args)) -> (
      (* a call in statement position may return void *)
      match gen_call ctx name args with
      | Some (r, _) -> free ctx r ~owned:true
      | None -> ())
    | Sexpr e ->
      let r, _, owned = gen_expr ctx e in
      free ctx r ~owned
    | Sif (c, then_, else_) -> (
      match else_ with
      | None ->
        let lend = V.genlabel ctx.g in
        gen_cond ctx c ~target:lend ~jump_if:false;
        gen_stmt ctx then_;
        V.label ctx.g lend
      | Some else_ ->
        let lelse = V.genlabel ctx.g and lend = V.genlabel ctx.g in
        gen_cond ctx c ~target:lelse ~jump_if:false;
        gen_stmt ctx then_;
        V.jump ctx.g (Gen.Jlabel lend);
        V.label ctx.g lelse;
        gen_stmt ctx else_;
        V.label ctx.g lend)
    | Swhile (c, body) ->
      let ltop = V.genlabel ctx.g and lend = V.genlabel ctx.g in
      V.label ctx.g ltop;
      gen_cond ctx c ~target:lend ~jump_if:false;
      ctx.break_labs <- lend :: ctx.break_labs;
      ctx.cont_labs <- ltop :: ctx.cont_labs;
      gen_stmt ctx body;
      ctx.break_labs <- List.tl ctx.break_labs;
      ctx.cont_labs <- List.tl ctx.cont_labs;
      V.jump ctx.g (Gen.Jlabel ltop);
      V.label ctx.g lend
    | Sdo (body, c) ->
      let ltop = V.genlabel ctx.g and lend = V.genlabel ctx.g in
      let lcont = V.genlabel ctx.g in
      V.label ctx.g ltop;
      ctx.break_labs <- lend :: ctx.break_labs;
      ctx.cont_labs <- lcont :: ctx.cont_labs;
      gen_stmt ctx body;
      ctx.break_labs <- List.tl ctx.break_labs;
      ctx.cont_labs <- List.tl ctx.cont_labs;
      V.label ctx.g lcont;
      gen_cond ctx c ~target:ltop ~jump_if:true;
      V.label ctx.g lend
    | Sfor (init, cond, update, body) ->
      (match init with
      | None -> ()
      | Some e ->
        let r, _, owned = gen_expr ctx e in
        free ctx r ~owned);
      let ltop = V.genlabel ctx.g and lend = V.genlabel ctx.g in
      let lcont = V.genlabel ctx.g in
      V.label ctx.g ltop;
      (match cond with
      | None -> ()
      | Some c -> gen_cond ctx c ~target:lend ~jump_if:false);
      ctx.break_labs <- lend :: ctx.break_labs;
      ctx.cont_labs <- lcont :: ctx.cont_labs;
      gen_stmt ctx body;
      ctx.break_labs <- List.tl ctx.break_labs;
      ctx.cont_labs <- List.tl ctx.cont_labs;
      V.label ctx.g lcont;
      (match update with
      | None -> ()
      | Some e ->
        let r, _, owned = gen_expr ctx e in
        free ctx r ~owned);
      V.jump ctx.g (Gen.Jlabel ltop);
      V.label ctx.g lend
    | Sswitch (e, arms) ->
      (* dispatch like DPF: a compare chain for few cases, binary search
         for many (the paper's C-switch analogy, section 4.2) *)
      let lend = V.genlabel ctx.g in
      let arm_labs = List.map (fun _ -> V.genlabel ctx.g) arms in
      let cases =
        List.concat
          (List.map2
             (fun (labels, _) al ->
               List.filter_map
                 (function Cint v -> Some (v, al) | Cdefault -> None)
                 labels)
             arms arm_labs)
      in
      let default_lab =
        let rec find arms labs =
          match (arms, labs) with
          | ((labels, _) :: ra, al :: rl) ->
            if List.mem Cdefault labels then al else find ra rl
          | _ -> lend
        in
        find arms arm_labs
      in
      let rv, _, ov = gen_expr ctx e in
      let sorted = List.sort (fun (a, _) (b, _) -> compare a b) cases in
      let arr = Array.of_list sorted in
      let rec dispatch lo hi =
        if hi - lo + 1 <= 4 then begin
          for i = lo to hi do
            let v, al = arr.(i) in
            V.branch_imm ctx.g Op.Eq Vtype.I rv v al
          done;
          V.jump ctx.g (Vcodebase.Gen.Jlabel default_lab)
        end
        else begin
          let mid = (lo + hi) / 2 in
          let vm, alm = arr.(mid) in
          V.branch_imm ctx.g Op.Eq Vtype.I rv vm alm;
          let llo = V.genlabel ctx.g in
          V.branch_imm ctx.g Op.Lt Vtype.I rv vm llo;
          dispatch (mid + 1) hi;
          V.label ctx.g llo;
          dispatch lo (mid - 1)
        end
      in
      if Array.length arr = 0 then V.jump ctx.g (Vcodebase.Gen.Jlabel default_lab)
      else dispatch 0 (Array.length arr - 1);
      free ctx rv ~owned:ov;
      (* bodies in order; fallthrough is sequential; break exits *)
      ctx.break_labs <- lend :: ctx.break_labs;
      List.iter2
        (fun (_, body) al ->
          V.label ctx.g al;
          let saved = ctx.vars in
          List.iter (gen_stmt ctx) body;
          ctx.vars <- saved)
        arms arm_labs;
      ctx.break_labs <- List.tl ctx.break_labs;
      V.label ctx.g lend
    | Sreturn None -> V.ret ctx.g Vtype.V None
    | Sreturn (Some e) ->
      let r, _, owned = gen_expr ctx e in
      V.ret ctx.g (value_vt ctx.ret_ty) (Some r);
      free ctx r ~owned
    | Sbreak -> (
      match ctx.break_labs with
      | l :: _ -> V.jump ctx.g (Gen.Jlabel l)
      | [] -> cfail "break outside loop")
    | Scontinue -> (
      match ctx.cont_labs with
      | l :: _ -> V.jump ctx.g (Gen.Jlabel l)
      | [] -> cfail "continue outside loop")

  (* ---------------------------------------------------------------- *)
  (* Functions and translation units                                   *)

  let compile_func ~base ~(syms : (string, sym) Hashtbl.t)
      ~(globals : (string, gvar) Hashtbl.t) (f : func) : Vcode.code =
    let leaf = func_is_leaf f in
    let addressed = func_addressed f in
    let sig_ =
      String.concat "" (List.map (fun (t, _) -> "%" ^ Vtype.to_string (value_vt t)) f.fparams)
    in
    (* size hint: compiled C functions run a few words per statement *)
    let g, arg_regs = V.lambda ~base ~leaf ~capacity:256 sig_ in
    let ctx =
      {
        g; syms; globals; vars = []; addressed; ret_ty = f.fret;
        break_labs = []; cont_labs = [];
      }
    in
    (* bind parameters: leaves keep them in place; otherwise copy into
       call-preserved registers *)
    List.iteri
      (fun i (t, name) ->
        let incoming = arg_regs.(i) in
        let v =
          if List.mem name addressed then begin
            (* &param: spill the incoming value to a stack home *)
            let l = V.local g (value_vt t) in
            V.st_local g l incoming;
            Vstk (l, t)
          end
          else if leaf then Vreg (incoming, t)
          else
            match V.getreg g ~cls:`Var (value_vt t) with
            | Some r ->
              V.unary g Op.Mov (value_vt t) r incoming;
              Vreg (r, t)
            | None ->
              let l = V.local g (value_vt t) in
              V.st_local g l incoming;
              Vstk (l, t)
        in
        ctx.vars <- (name, v) :: ctx.vars)
      f.fparams;
    List.iter (gen_stmt ctx) f.fbody;
    (* implicit return for control falling off the end *)
    V.ret g Vtype.V None;
    V.end_gen g

  type program = {
    funcs : (string * Vcode.code) list;
    symbols : (string, sym) Hashtbl.t;
    global_vars : (string * int * int) list; (* name, address, bytes *)
    first_base : int;
    next_base : int;  (* first free address after the compiled image *)
  }

  (* Compile a translation unit, placing functions consecutively from
     [base].  [externs] declares host-provided functions (name, entry
     address, return type, parameter types); C functions must be defined
     before use, as in pre-prototype C. *)
  (* Compile a translation unit.  [data_base] is where global variables
     live (the simulated memory is zero-initialized, matching C's .bss
     semantics). *)
  let compile ?(base = 0x1000) ?(data_base = 0x60000) ?(externs = []) (src : string) :
      program =
    let syms = Hashtbl.create 17 in
    List.iter
      (fun (name, addr, ret, params) ->
        Hashtbl.replace syms name { sym_addr = addr; sym_ret = ret; sym_params = params })
      externs;
    let items = Parser.parse_unit src in
    let globals = Hashtbl.create 17 in
    let gcur = ref ((data_base + 7) land lnot 7) in
    let gout = ref [] in
    List.iter
      (function
        | Iglobal (t, name, arr) ->
          let elem = ty_size ~word_bytes t in
          let bytes = match arr with Some n -> n * elem | None -> elem in
          let addr = (!gcur + 7) land lnot 7 in
          Hashtbl.replace globals name { g_addr = addr; g_ty = t; g_array = arr <> None };
          gout := (name, addr, bytes) :: !gout;
          gcur := addr + bytes
        | Ifunc _ -> ())
      items;
    let cur = ref ((base + 7) land lnot 7) in
    let out = ref [] in
    List.iter
      (function
        | Iglobal _ -> ()
        | Ifunc (f : func) ->
          (* provisional symbol for self-recursion: entering at the base
             runs through the nop-filled reserved area and falls into the
             backpatched prologue, so the address is valid before the
             final entry point is known *)
          Hashtbl.replace syms f.fname
            { sym_addr = !cur; sym_ret = f.fret; sym_params = List.map fst f.fparams };
          let code = compile_func ~base:!cur ~syms ~globals f in
          Hashtbl.replace syms f.fname
            {
              sym_addr = code.Vcode.entry_addr;
              sym_ret = f.fret;
              sym_params = List.map fst f.fparams;
            };
          out := (f.fname, code) :: !out;
          cur := (!cur + code.Vcode.code_bytes + 7) land lnot 7)
      items;
    {
      funcs = List.rev !out;
      symbols = syms;
      global_vars = List.rev !gout;
      first_base = base;
      next_base = !cur;
    }

  let entry (p : program) name =
    match Hashtbl.find_opt p.symbols name with
    | Some s -> s.sym_addr
    | None -> cfail "no such function %s" name
end
