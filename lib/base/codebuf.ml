(* The code buffer: a growable array of 32-bit instruction words.

   This is the "in-place" part of VCODE: every emit call appends one
   encoded machine instruction directly; there is no per-instruction
   structure anywhere else in the system.  All three supported targets
   (MIPS-I, SPARC-V8, Alpha) have fixed 32-bit instruction words, so the
   buffer is word-oriented.  Words are stored as OCaml ints in
   [0, 2^32).

   [emit] is the hottest function in the generator: every backend
   encoder funnels through it once per machine instruction.  It is kept
   to a straight-line store — one capacity test, an unsafe write (the
   capacity test just established the index is in range), a length
   bump — and marked [@inline] so the optimizer can flatten it into the
   backend emit helpers. *)

type t = {
  mutable words : int array;
  mutable len : int;
  mutable growths : int;  (* doubling copies taken; a capacity-hint gauge *)
}

let create ?(capacity = 256) () =
  { words = Array.make (max 16 capacity) 0; len = 0; growths = 0 }

let length t = t.len
let growths t = t.growths

(* Forget the contents but keep the backing array: the word array is
   not shrunk or zeroed (every slot below [len] is overwritten before
   it can be read again, because [emit]/[reserve] are the only ways to
   extend [len]).  [growths] restarts from 0 so the capacity-hint gauge
   reflects the buffer's current tenant, not its whole history — the
   server's slab arena resets a scratch buffer once per compiled
   filter, and a batch that never grows should report 0. *)
let reset t =
  t.len <- 0;
  t.growths <- 0

let grow t =
  let w = Array.make (2 * Array.length t.words) 0 in
  Array.blit t.words 0 w 0 t.len;
  t.words <- w;
  t.growths <- t.growths + 1

(* Append one instruction word; returns its index. *)
let[@inline] emit t w =
  let i = t.len in
  if i = Array.length t.words then grow t;
  Array.unsafe_set t.words i (w land 0xFFFFFFFF);
  t.len <- i + 1;
  i

(* Reserve [n] words (filled with [fill], typically a nop encoding) and
   return the index of the first.  Used for prologue reservation. *)
let reserve t ~n ~fill =
  let first = t.len in
  for _ = 1 to n do ignore (emit t fill) done;
  first

let get t i =
  if i < 0 || i >= t.len then
    Verror.fail (Verror.Bad_operand (Printf.sprintf "Codebuf.get: index %d outside [0,%d)" i t.len));
  Array.unsafe_get t.words i

(* Backpatch a previously emitted word. *)
let set t i w =
  if i < 0 || i >= t.len then
    Verror.fail (Verror.Bad_operand (Printf.sprintf "Codebuf.set: index %d outside [0,%d)" i t.len));
  Array.unsafe_set t.words i (w land 0xFFFFFFFF)

(* Drop words emitted after index [len]; used by the delay-slot scheduler
   to lift an instruction into a branch's slot. *)
let truncate t len =
  if len < 0 || len > t.len then
    Verror.fail (Verror.Bad_operand (Printf.sprintf "Codebuf.truncate: length %d outside [0,%d]" len t.len));
  t.len <- len

let to_array t = Array.sub t.words 0 t.len

(* Serialize into bytes with the target's endianness, e.g. for loading
   into simulated memory.  [dst] must have at least [4 * length t] bytes
   available at [pos]. *)
let blit_to_bytes t ~big_endian dst pos =
  for i = 0 to t.len - 1 do
    let w = Int32.of_int t.words.(i) in
    if big_endian then Bytes.set_int32_be dst (pos + (4 * i)) w
    else Bytes.set_int32_le dst (pos + (4 * i)) w
  done

(* Approximate live heap words consumed by the buffer itself; used by the
   space experiment (section 5 of the paper: in-place generation needs
   only the emitted code plus labels/relocations). *)
let heap_words t = Array.length t.words + 3
