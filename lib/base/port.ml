(* Plumbing every target port shares.

   Whatever differs between ports only by {!Machdesc} data lives here
   once: immediate-range tests, the %hi/%lo split, frame sizing, the
   parameter binding of [lambda], the argument placement of [do_call]
   and the return-value moves (all three read the port's
   {!Callconv.t}), and the prologue placement at the end of [finish].
   Backends [open] this module and pass in their own encoders as
   [move]/[store] callbacks; what stays in a backend is its
   instruction mapping and frame layout. *)

let rnum = Reg.idx
let[@inline] emit g w = ignore (Codebuf.emit g.Gen.buf w)
let fits16s v = v >= -32768 && v <= 32767
let fits16u v = v >= 0 && v <= 65535
let fits32 v = v >= -0x80000000 && v <= 0xFFFFFFFF
let signed_ty = Vtype.is_signed

let unsigned_cmp (t : Vtype.t) =
  match t with Vtype.U | Vtype.UL | Vtype.P | Vtype.UC | Vtype.US -> true | _ -> false

(* %hi/%lo split of an address into a high-half load and a signed
   16-bit displacement: hi absorbs the carry of lo's sign extension *)
let hi_lo addr =
  let lo = addr land 0xFFFF in
  let lo_s = if lo >= 0x8000 then lo - 0x10000 else lo in
  (((addr - lo_s) asr 16) land 0xFFFF, lo)

(* Place the FP immediates (section 5.2) of a port whose constant load
   is a high-half load of the address, [hi_word hi], then a load with a
   16-bit displacement. *)
let place_fimms_hi_lo g ~hi_word =
  Gen.place_fimms g ~big_endian:g.Gen.desc.Machdesc.big_endian ~patch:(fun ~site ~addr ->
      let hi, lo = hi_lo addr in
      Codebuf.set g.Gen.buf site (hi_word hi);
      Codebuf.set g.Gen.buf (site + 1) ((Codebuf.get g.Gen.buf (site + 1) land 0xFFFF0000) lor lo))

(* The fixed locals base plus the locals, rounded up to two words. *)
let frame_bytes g =
  let a = 2 * Machdesc.word_bytes g.Gen.desc in
  (g.Gen.desc.Machdesc.locals_base + g.Gen.locals_bytes + a - 1) land lnot (a - 1)

(* ... or none at all for a function that makes no call, has no locals
   and writes no callee-saved register. *)
let frame_size g =
  if
    g.Gen.made_call || g.Gen.locals_bytes > 0 || g.Gen.used_callee <> 0
    || g.Gen.used_fcallee <> 0
  then frame_bytes g
  else 0

(* [lambda]: reserve [reserve] words of prologue, then bind each
   parameter to its incoming register, or to a fresh register that the
   prologue [finish] writes reloads from the parameter's stack slot
   (section 5.2). *)
let bind_params g ~reserve ~fill (tys : Vtype.t array) =
  g.Gen.prologue_at <- Codebuf.reserve g.Gen.buf ~n:reserve ~fill;
  g.Gen.prologue_words <- reserve;
  g.Gen.epilogue_lab <- Gen.genlabel g;
  let c = g.Gen.desc.Machdesc.conv in
  let st = ref Callconv.start in
  Array.map
    (fun t ->
      st := Callconv.next c !st t;
      let l = Callconv.loc !st in
      if Callconv.on_stack l then begin
        let float = Vtype.is_float t in
        let r =
          match Gen.getreg g ~cls:`Var ~float with
          | Some r -> r
          | None -> (
            match Gen.getreg g ~cls:`Temp ~float with
            | Some r -> r
            | None -> Verror.fail (Verror.Registers_exhausted "incoming arguments"))
        in
        Gen.note_write g r;
        Gen.add_arg_load g ~off:(Callconv.stack_offset l) r t;
        r
      end
      else begin
        let r = Callconv.callee_reg c l in
        Gen.mark_in_use g r;
        r
      end)
    tys

(* [do_call] up to the call itself: stack arguments are stored first
   ([store g ty src off], [off] from sp), then register arguments moved
   ([move g ty dst src]).  Where the temp pool overlaps the integer
   argument registers (PowerPC, SPARC), a source may be another
   argument's destination: the integer moves then follow the FP ones as
   one parallel move, its cycles broken through the scratch register. *)
let place_call_args g ~store ~move =
  let d = g.Gen.desc in
  let c = d.Machdesc.conv in
  let args = Array.fold_left (fun m n -> m lor (1 lsl n)) 0 c.Callconv.int_regs in
  let parallel = Array.exists (fun r -> args land (1 lsl Reg.idx r) <> 0) d.Machdesc.temps in
  let n = Gen.call_arg_count g in
  let st = ref Callconv.start in
  for i = 0 to n - 1 do
    let t = Gen.call_arg_ty g i in
    st := Callconv.next c !st t;
    let l = Callconv.loc !st in
    if Callconv.on_stack l then begin
      if Callconv.overflows c l t then
        Verror.fail (Verror.Unsupported "outgoing arguments overflow their stack area");
      store g t (Gen.call_arg_reg g i) (Callconv.stack_offset l)
    end
  done;
  let imoves = ref [] in
  st := Callconv.start;
  for i = 0 to n - 1 do
    let t = Gen.call_arg_ty g i and src = Gen.call_arg_reg g i in
    st := Callconv.next c !st t;
    let l = Callconv.loc !st in
    if Callconv.on_stack l then ()
    else if parallel && not (Vtype.is_float t) then imoves := (l lsr 1, rnum src) :: !imoves
    else if l <> Reg.to_int src then move g t (Callconv.reg l) src
  done;
  if parallel then
    Gen.parallel_moves ~scratch:(rnum d.Machdesc.scratch)
      ~emit_mov:(fun dst s -> move g Vtype.I (Reg.R dst) (Reg.R s))
      (List.rev !imoves);
  Gen.clear_call_args g

(* [ret]: move the value into the return register; false when there is
   nothing to move. *)
let move_ret g ~move (t : Vtype.t) (r : Reg.t option) =
  match (t, r) with
  | Vtype.V, _ | _, None -> false
  | _, Some r ->
    let d = Callconv.ret_loc g.Gen.desc.Machdesc.conv ~callee:true t in
    d <> Reg.to_int r && (move g t (Reg.of_int d) r; true)

(* [retval]: fetch the last call's result into [r]. *)
let move_retval g ~move (t : Vtype.t) r =
  match t with
  | Vtype.V -> ()
  | _ ->
    Gen.note_write g r;
    let s = Callconv.ret_loc g.Gen.desc.Machdesc.conv ~callee:false t in
    if s <> Reg.to_int r then move g t r (Reg.of_int s)

(* The tail of [finish]: [rev] is the real prologue, encoded, last word
   first.  It goes at the end of the reserved area, and the function's
   entry is its first word (section 5.2). *)
let place_prologue g rev =
  let k = List.length rev in
  if k > g.Gen.prologue_words then Verror.fail (Verror.Unsupported "prologue overflow");
  let start = g.Gen.prologue_at + g.Gen.prologue_words - k in
  List.iteri (fun i w -> Codebuf.set g.Gen.buf (start + k - 1 - i) w) rev;
  g.Gen.entry_index <- start

(* The peephole interposition hooks of a port that emits straight into
   the buffer: labels bind directly, no window needs a barrier. *)
module Raw_hooks = struct
  let bind_label = Gen.bind_label
  let sync (_ : Gen.t) = ()
  let push_arg = Gen.push_call_arg
end
