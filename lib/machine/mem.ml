(* Byte-addressable simulated memory.

   One flat region starting at address 0; both endiannesses supported so
   the same substrate serves the little-endian DECstation MIPS and Alpha
   simulators and the big-endian SPARC simulator.  All multi-byte
   accessors take naturally aligned addresses; misalignment raises
   [Fault], which the simulators surface as a machine check — the same
   discipline the paper's targets enforce in hardware. *)

exception Fault of string

type watcher = int

type t = {
  data : Bytes.t;
  size : int;
  big_endian : bool;
  swap : bool; (* the guest's byte order is not the host's *)
  mutable on_write : int -> int -> unit;
      (* called as [f addr len] after every mutation of [data]; always
         the composition of the live [watchers], rebuilt on every
         registration change so the store path never grows a closure
         chain proportional to *historical* registrations *)
  mutable watchers : (watcher * (int -> int -> unit)) list;
      (* live watchers, registration order, source of truth for
         [rebuild]; install/evict churn adds and removes here *)
  mutable next_watcher : watcher;
}

let ignore_write _ _ = ()

let create ?(big_endian = false) ~size () =
  {
    data = Bytes.make size '\000';
    size;
    big_endian;
    swap = big_endian <> Sys.big_endian;
    on_write = ignore_write;
    watchers = [];
    next_watcher = 0;
  }

let size t = t.size
let big_endian t = t.big_endian

(* Rebuild the store-path dispatcher from the live watcher list.  Zero
   watchers dispatch to the shared no-op, exactly one dispatches to the
   bare function (no wrapper closure on the single-watcher fast path),
   and k > 1 pay one array-iterating wrapper — O(live watchers) per
   store, never O(registrations ever made). *)
let rebuild t =
  match t.watchers with
  | [] -> t.on_write <- ignore_write
  | [ (_, f) ] -> t.on_write <- f
  | ws ->
    let fs = Array.of_list (List.map snd ws) in
    let n = Array.length fs in
    t.on_write <-
      (fun addr len ->
        for i = 0 to n - 1 do
          (Array.unsafe_get fs i) addr len
        done)

let fresh_handle t =
  let h = t.next_watcher in
  t.next_watcher <- h + 1;
  h

let set_write_watcher t f =
  t.watchers <- [ (fresh_handle t, f) ];
  t.on_write <- f

let add_write_watcher t f =
  let h = fresh_handle t in
  t.watchers <- t.watchers @ [ (h, f) ];
  rebuild t;
  h

let remove_write_watcher t h =
  let before = t.watchers in
  t.watchers <- List.filter (fun (h', _) -> h' <> h) before;
  if List.length t.watchers <> List.length before then rebuild t

let watcher_count t = List.length t.watchers

(* Fault construction lives out of line so the bounds checks inlined
   into the simulators' load/store path stay a couple of compares. *)
let[@inline never] bounds_fail t addr len what =
  raise
    (Fault
       (Printf.sprintf "%s of %d bytes at 0x%x out of bounds (mem size 0x%x)" what len addr
          t.size))

let[@inline never] misalign_fail addr what =
  raise (Fault (Printf.sprintf "misaligned %s at 0x%x" what addr))

(* bounds check for bulk operations; a zero-length operation is a no-op
   permitted anywhere in [0, size].  The comparison is [addr > size -
   len], never [addr + len > size], which wraps for [addr] near
   [max_int]. *)
let check_bounds t addr len what =
  if len < 0 then
    raise (Fault (Printf.sprintf "%s at 0x%x with negative length %d" what addr len));
  if addr < 0 || addr > t.size - len then bounds_fail t addr len what

(* scalar accesses additionally require natural alignment; [len] is a
   compile-time constant at every call site *)
let[@inline] check t addr len what =
  if addr < 0 || addr > t.size - len then bounds_fail t addr len what;
  if len > 1 && addr land (len - 1) <> 0 then misalign_fail addr what

let[@inline] read_u8 t addr =
  check t addr 1 "load8";
  Char.code (Bytes.unsafe_get t.data addr)

let write_u8 t addr v =
  check t addr 1 "store8";
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xff));
  t.on_write addr 1

let[@inline] read_u16 t addr =
  check t addr 2 "load16";
  let b0 = Char.code (Bytes.unsafe_get t.data addr) in
  let b1 = Char.code (Bytes.unsafe_get t.data (addr + 1)) in
  if t.big_endian then (b0 lsl 8) lor b1 else (b1 lsl 8) lor b0

let write_u16 t addr v =
  check t addr 2 "store16";
  let lo = v land 0xff and hi = (v lsr 8) land 0xff in
  if t.big_endian then begin
    Bytes.unsafe_set t.data addr (Char.unsafe_chr hi);
    Bytes.unsafe_set t.data (addr + 1) (Char.unsafe_chr lo)
  end
  else begin
    Bytes.unsafe_set t.data addr (Char.unsafe_chr lo);
    Bytes.unsafe_set t.data (addr + 1) (Char.unsafe_chr hi)
  end;
  t.on_write addr 2

(* A word is one unchecked 32-bit host access (the bounds are [check]'s),
   byte-swapped when the guest's order is not the host's.  Each branch
   converts on its own so the int32 never leaves a register. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] read_u32 t addr =
  check t addr 4 "load32";
  if t.swap then Int32.to_int (bswap32 (get32u t.data addr)) land 0xFFFF_FFFF
  else Int32.to_int (get32u t.data addr) land 0xFFFF_FFFF

let write_u32 t addr v =
  check t addr 4 "store32";
  if t.swap then set32u t.data addr (bswap32 (Int32.of_int v))
  else set32u t.data addr (Int32.of_int v);
  t.on_write addr 4

let read_u64 t addr : int64 =
  check t addr 8 "load64";
  let lo, hi =
    if t.big_endian then (read_u32 t (addr + 4), read_u32 t addr)
    else (read_u32 t addr, read_u32 t (addr + 4))
  in
  Int64.logor (Int64.of_int lo |> Int64.logand 0xFFFFFFFFL)
    (Int64.shift_left (Int64.of_int hi) 32)

let write_u64 t addr (v : int64) =
  check t addr 8 "store64";
  let lo = Int64.to_int (Int64.logand v 0xFFFFFFFFL) in
  let hi = Int64.to_int (Int64.logand (Int64.shift_right_logical v 32) 0xFFFFFFFFL) in
  if t.big_endian then begin
    write_u32 t addr hi;
    write_u32 t (addr + 4) lo
  end
  else begin
    write_u32 t addr lo;
    write_u32 t (addr + 4) hi
  end

(* Bulk helpers used by workload setup.  All are bounds-checked against
   the true operation length; zero-length operations are no-ops. *)
let blit_string t ~addr s =
  let len = String.length s in
  check_bounds t addr len "blit_string";
  if len > 0 then begin
    Bytes.blit_string s 0 t.data addr len;
    t.on_write addr len
  end

let blit_bytes t ~addr b =
  let len = Bytes.length b in
  check_bounds t addr len "blit_bytes";
  if len > 0 then begin
    Bytes.blit b 0 t.data addr len;
    t.on_write addr len
  end

let read_string t ~addr ~len =
  check_bounds t addr len "read_string";
  Bytes.sub_string t.data addr len

let fill t ~addr ~len c =
  check_bounds t addr len "fill";
  if len > 0 then begin
    Bytes.fill t.data addr len c;
    t.on_write addr len
  end

(* Load a code buffer at [addr], honoring this memory's endianness. *)
let install_code t ~addr (buf : Vcodebase.Codebuf.t) =
  let len = 4 * Vcodebase.Codebuf.length buf in
  check_bounds t addr len "install_code";
  if addr land 3 <> 0 then raise (Fault (Printf.sprintf "misaligned install_code at 0x%x" addr));
  if len > 0 then begin
    Vcodebase.Codebuf.blit_to_bytes buf ~big_endian:t.big_endian t.data addr;
    t.on_write addr len
  end
