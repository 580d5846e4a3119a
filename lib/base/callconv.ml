(* A port's argument and return convention, stated once as data.

   The backend's [lambda] and [do_call] and the simulator's harness
   [call] all walk an argument list through [next], so generated code
   and the harness that calls it cannot disagree.

   The walk's cursor is one int, so it allocates nothing: bits 0-15
   hold the next free stack slot, 16-23 the integer arguments so far,
   24-31 the FP arguments so far, and the bits above the location of
   the argument just passed (offset by [loc_bias] to stay positive).
   A location is a register ([Reg.to_int], caller's view) when >= 0,
   else the stack at byte offset [-loc - 1] from the caller's sp. *)

type counting = Shared_slots | Positional | Per_class

type t = {
  counting : counting;
  int_regs : int array;
  fp_regs : int array;
  slot_bytes : int;
  stack_base : int;
  single_slots : int;
  stack_limit : int;
  int_ret : int;
  fp_ret : int;
  window : int;
}

type arg = Int of int | Int64 of int64 | Single of float | Double of float

let start = 0
let loc_bias = 1 lsl 20
let[@inline] is_fp (t : Vtype.t) = match t with Vtype.F | Vtype.D -> true | _ -> false

let slots c (t : Vtype.t) =
  match t with Vtype.D -> if c.slot_bytes = 8 then 1 else 2 | Vtype.F -> c.single_slots | _ -> 1

let next c st t =
  let fp = is_fp t and n = slots c t in
  let free = st land 0xFFFF and counts = (st lsr 16) land 0xFFFF in
  (* an argument taking more than a slot starts at an 8-aligned offset *)
  let s = if n > 1 && (c.stack_base + (c.slot_bytes * free)) land 7 <> 0 then free + 1 else free in
  let pick regs k = if k < Array.length regs then Array.unsafe_get regs k else -1 in
  let r =
    match c.counting with
    | Per_class -> if fp then pick c.fp_regs (counts lsr 8) else pick c.int_regs (counts land 0xFF)
    | Shared_slots | Positional when s >= Array.length c.int_regs -> -1
    | Shared_slots -> if fp then pick c.fp_regs (counts lsr 8) else Array.unsafe_get c.int_regs s
    | Positional -> if fp then pick c.fp_regs s else Array.unsafe_get c.int_regs s
  in
  let loc = if r >= 0 then (r lsl 1) lor Bool.to_int fp else -(c.stack_base + (c.slot_bytes * s)) - 1 in
  let free = match c.counting with Per_class when r >= 0 -> free | _ -> s + n in
  ((loc + loc_bias) lsl 32) lor ((counts + if fp then 0x100 else 1) lsl 16) lor free

let[@inline] loc st = (st lsr 32) - loc_bias
let[@inline] on_stack loc = loc < 0
let[@inline] stack_offset loc = -loc - 1

let callee_reg c loc =
  match Reg.of_int loc with Reg.R n -> Reg.R (n + c.window) | r -> r

let overflows c loc t = stack_offset loc + (c.slot_bytes * slots c t) > c.stack_limit

let ret_loc c ~callee (t : Vtype.t) =
  if is_fp t then (c.fp_ret lsl 1) lor 1 else (if callee then c.int_ret + c.window else c.int_ret) lsl 1

let arg_type = function
  | Int _ -> Vtype.I
  | Int64 _ -> Vtype.L
  | Single _ -> Vtype.F
  | Double _ -> Vtype.D

let rec place_from c set_reg r write32 write64 m sp st = function
  | [] -> ()
  | a :: rest ->
    let st = next c st (arg_type a) in
    let l = loc st in
    (if l >= 0 then set_reg r (l lsr 1) a
     else
       let addr = sp + stack_offset l in
       match a with
       | Int v when c.slot_bytes = 8 -> write64 m addr (Int64.of_int v)
       | Int v -> write32 m addr (v land 0xFFFFFFFF)
       | Int64 v when c.slot_bytes = 8 -> write64 m addr v
       | Int64 v -> write32 m addr (Int64.to_int v land 0xFFFFFFFF)
       | Single v -> write32 m addr (Int32.to_int (Int32.bits_of_float v) land 0xFFFFFFFF)
       | Double v -> write64 m addr (Int64.bits_of_float v));
    place_from c set_reg r write32 write64 m sp st rest

let place c ~set_reg r ~write32 ~write64 m ~sp args =
  place_from c set_reg r write32 write64 m sp start args
