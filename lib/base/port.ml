(* Plumbing every target port shares.

   Whatever differs between ports only by {!Machdesc} data lives here
   once: immediate-range tests, the %hi/%lo split, frame sizing, the
   parameter binding of [lambda], the argument placement of [do_call]
   and the return-value moves (all three read the port's
   {!Callconv.t}), and the whole of [finish]: epilogue, FP-immediate
   pool, backpatched prologue (section 5.2) and the frameless-return
   rewrite.  A backend hands in its encoders, as [move] callbacks and
   one {!frame} record; what stays in a backend is its instruction
   mapping and frame layout. *)

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

(* A port's frame protocol as word encoders; [finish] builds every
   epilogue and prologue from these alone.  Register arguments are
   numbers in the file of the [Vtype.t] given with them. *)
type frame = {
  load : Vtype.t -> int -> int -> int;
      (* [load t r off]: [r] from sp+[off]; on a window port (used only
         for incoming arguments) from the caller's sp, the frame pointer *)
  store : Vtype.t -> int -> int -> int;  (* [store t r off]: [r] to sp+[off] *)
  adjust : int -> int;  (* sp += n; on a window port, the [save] of a window *)
  ra_save : int list;   (* the return address into its slot *)
  ra_restore : int list;
  ret : int list;       (* the return; its first word ends a frameless function *)
  saves_at : int;       (* sp offset of the register save area *)
  fimms : Gen.t -> unit;  (* place the FP-immediate pool *)
  window : bool;
      (* register windows (SPARC): every function opens a window, [ret]
         closes it, and no register needs a save slot *)
}

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

(* [do_call] up to the call itself: stack arguments are stored (the
   frame's [store], [off] from sp), then the register arguments moved
   ([move g ty dst src]), FP first, each register file as one parallel
   move.  A source may be another argument's destination (a caller's
   own parameter, or a temp that is also an argument register), so a
   cycle goes through the file's scratch register.  Returns the target
   to call: a target register that a move overwrites is copied first
   into [via], which no move reads or writes.  Allocates nothing but
   the returned target. *)
let place_call_args g (f : frame) ~move ~via (target : Gen.jtarget) =
  let d = g.Gen.desc in
  let c = d.Machdesc.conv in
  let st = ref Callconv.start in
  for i = 0 to Gen.call_arg_count g - 1 do
    let t = Gen.call_arg_ty g i and src = Gen.call_arg_reg g i in
    st := Callconv.next c !st t;
    let l = Callconv.loc !st in
    if Callconv.on_stack l then begin
      if Callconv.overflows c l t then
        Verror.fail (Verror.Unsupported "outgoing arguments overflow their stack area");
      emit g (f.store t (rnum src) (Callconv.stack_offset l))
    end
    else Gen.push_move g t ~dst:(if Vtype.is_float t then Reg.f (l lsr 1) else Reg.r (l lsr 1)) ~src
  done;
  let target =
    match target with
    | Gen.Jreg (Reg.R _ as r) when Gen.move_writes g r ->
      move g Vtype.P (Reg.r via) r;
      Gen.Jreg (Reg.r via)
    | t -> t
  in
  Gen.parallel_moves g ~move ~scratch:d.Machdesc.fscratch;
  Gen.parallel_moves g ~move ~scratch:d.Machdesc.scratch;
  Gen.clear_call_args g;
  target

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

(* The relocation kind of [ret]'s jump to the epilogue; ports number
   their own kinds below it. *)
let k_retj = 3

(* The register save area from [first_off]: each written callee-saved
   integer register at word strides, then each FP one as a double at
   the next 8-aligned offset, as [(ty, reg, off)].  Covers registers a
   client forced callee-saved, not just the architectural set. *)
let save_layout g ~first_off =
  let slots = ref [] and off = ref first_off in
  let take ty mask size =
    for n = 0 to 31 do
      if mask land (1 lsl n) <> 0 then begin
        slots := (ty, n, !off) :: !slots;
        off := !off + size
      end
    done
  in
  take Vtype.L g.Gen.used_callee (Machdesc.word_bytes g.Gen.desc);
  off := (!off + 7) land lnot 7;
  take Vtype.D g.Gen.used_fcallee 8;
  if !off > g.Gen.desc.Machdesc.locals_base then
    Verror.fail (Verror.Unsupported "register save area overflow");
  List.rev !slots

(* [finish]: the epilogue (restore ra and the saves, pop the frame,
   return), the FP-immediate pool, then the prologue as its mirror
   (push the frame, save ra and the saves, reload the incoming stack
   arguments), written at the end of the area [lambda] reserved; the
   function's entry is its first word (section 5.2).  A function with
   no frame returns straight from each [ret]: its epilogue jump becomes
   the return word.  Every other relocation, and a framed [k_retj], goes
   to the port's [apply]. *)
let finish g (f : frame) ~apply =
  let frame = if f.window then frame_bytes g else frame_size g in
  let saves = if f.window then [] else save_layout g ~first_off:f.saves_at in
  Gen.bind_label g g.Gen.epilogue_lab;
  if g.Gen.made_call then List.iter (emit g) f.ra_restore;
  List.iter (fun (t, n, off) -> emit g (f.load t n off)) saves;
  if frame <> 0 && not f.window then emit g (f.adjust frame);
  List.iter (emit g) f.ret;
  f.fimms g;
  (* the prologue, last word first *)
  let words = ref [] in
  let add w = words := w :: !words in
  if frame <> 0 then add (f.adjust (-frame));
  if g.Gen.made_call then List.iter add f.ra_save;
  List.iter (fun (t, n, off) -> add (f.store t n off)) saves;
  let args_at = if f.window then 0 else frame in
  Gen.iter_arg_loads g (fun ~off r t -> add (f.load t (rnum r) (args_at + off)));
  let k = List.length !words in
  if k > g.Gen.prologue_words then Verror.fail (Verror.Unsupported "prologue overflow");
  let start = g.Gen.prologue_at + g.Gen.prologue_words - k in
  List.iteri (fun i w -> Codebuf.set g.Gen.buf (start + k - 1 - i) w) !words;
  g.Gen.entry_index <- start;
  let rewrite = if frame = 0 then Some (k_retj, List.hd f.ret) else None in
  Gen.resolve_relocs ?rewrite g ~apply

(* The peephole interposition hooks of a port that emits straight into
   the buffer: labels bind directly, no window needs a barrier. *)
module Raw_hooks = struct
  let bind_label = Gen.bind_label
  let sync (_ : Gen.t) = ()
  let push_arg = Gen.push_call_arg
end
