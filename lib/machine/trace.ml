(* Execution tracing for the four CPU simulators.

   {!Telemetry} answers "how many" — aggregate counters and
   distributions; this module answers "what, exactly, in what order":
   a per-simulator stream of retired-instruction and marker records
   captured into a preallocated int-array ring.  The intended use is
   the cross-mode differ (bin/vtrace.ml): run the same workload under
   two engine modes, extract the two retired-pc streams and report the
   first ordinal where they disagree — turning the bit-identity test
   suites' pass/fail into a bisection tool for translation-cache bugs.

   Hot-path discipline (the same as Telemetry's):

   - a record is ONE int: the kind tag in bits 48+, the payload (a
     simulated address — far below 2^48 on every port) in the low 48.
     Retired-instruction records are the overwhelming majority and
     carry kind 0, so [retire] skips even the tag arithmetic: one
     unsafe store plus a counter increment;

   - the {!disabled} sink is a shared 1-slot scratch ring with mask 0,
     so every record any site can emit lands in scratch — the sites
     stay branch-free stores with no allocation, and a simulator
     created without a trace behaves bit-identically (pinned by
     test/test_trace.ml in the style of test_telemetry_overhead.ml);

   - once the ring is full new records overwrite the oldest; [seen]
     keeps the true total, so [dropped] is exact.

   Tracing never touches the simulated clock or the timing {!Cache}
   statistics: a traced and an untraced run retire the same
   instructions in the same cycles. *)

type kind =
  | Retire       (* one instruction issued at [payload] (pc) *)
  | Block_enter  (* compiled-block dispatch at [payload] (entry) *)
  | Fault        (* Machine_error / Mem.Fault escaped at [payload] (pc) *)
  | Smc_abort    (* dirty/Retired block abort; [payload] = aborting insn *)
  | Inval        (* predecode/translation state dropped at [payload] *)
  | Mark         (* tool-defined checkpoint; payload is caller's *)

let kind_to_int = function
  | Retire -> 0
  | Block_enter -> 1
  | Fault -> 2
  | Smc_abort -> 3
  | Inval -> 4
  | Mark -> 5

let kind_of_int = function
  | 0 -> Retire
  | 1 -> Block_enter
  | 2 -> Fault
  | 3 -> Smc_abort
  | 4 -> Inval
  | _ -> Mark

let kind_name = function
  | Retire -> "retire"
  | Block_enter -> "block_enter"
  | Fault -> "fault"
  | Smc_abort -> "smc_abort"
  | Inval -> "inval"
  | Mark -> "mark"

(* record packing: kind in bits 48.., payload in the low 48 *)
let payload_bits = 48
let payload_mask = (1 lsl payload_bits) - 1

type t = {
  on : bool;
  ring : int array;
  mask : int; (* capacity - 1 (power of two); 0 on the disabled sink *)
  mutable seen : int;
}

(* capacity bounds: 2^8 keeps unit tests cheap, 2^24 (128MB of ints)
   is already far past any workload this repo simulates in one call *)
let min_capacity_pow2 = 8
let max_capacity_pow2 = 24
let default_capacity_pow2 = 16

let create ?(capacity_pow2 = default_capacity_pow2) () =
  let p = min max_capacity_pow2 (max min_capacity_pow2 capacity_pow2) in
  { on = true; ring = Array.make (1 lsl p) 0; mask = (1 lsl p) - 1; seen = 0 }

(* the shared no-op sink: mask 0 folds every store into one scratch
   slot, so instrumentation sites need no enabled test *)
let disabled = { on = false; ring = Array.make 1 0; mask = 0; seen = 0 }

let is_enabled t = t.on

(* one instruction issued at [pc] — the hot record.  Emitted *before*
   the instruction executes (issue order), so a faulting instruction is
   the last record of its stream in every engine mode. *)
let[@inline] retire t pc =
  Array.unsafe_set t.ring (t.seen land t.mask) pc;
  t.seen <- t.seen + 1

(* a marker record; also branch-free on the disabled sink *)
let[@inline] mark t k payload =
  Array.unsafe_set t.ring (t.seen land t.mask)
    ((kind_to_int k lsl payload_bits) lor (payload land payload_mask));
  t.seen <- t.seen + 1

(* ------------------------------------------------------------------ *)
(* Reading the ring (cold)                                             *)

let capacity t = t.mask + 1
let seen t = t.seen
let retained t = if t.on then min t.seen (t.mask + 1) else 0
let dropped t = if t.on then max 0 (t.seen - (t.mask + 1)) else 0
let reset t = if t.on then t.seen <- 0

let[@inline] decode w = (kind_of_int (w lsr payload_bits), w land payload_mask)

(* retained records, oldest first *)
let records t =
  let n = retained t in
  let first = t.seen - n in
  Array.init n (fun j -> decode t.ring.((first + j) land t.mask))

(* just the retired-instruction pcs, oldest retained first — the
   differ's input *)
let retired_pcs t =
  let n = retained t in
  let first = t.seen - n in
  let acc = Array.make n 0 in
  let k = ref 0 in
  for j = 0 to n - 1 do
    let w = t.ring.((first + j) land t.mask) in
    if w lsr payload_bits = 0 then begin
      acc.(!k) <- w land payload_mask;
      incr k
    end
  done;
  Array.sub acc 0 !k

(* ------------------------------------------------------------------ *)
(* The differ                                                          *)

type divergence = {
  ordinal : int;  (* 0-based retired-instruction index of the mismatch *)
  a_pc : int;     (* -1: stream [a] ended before [ordinal] *)
  b_pc : int;     (* -1: stream [b] ended before [ordinal] *)
}

(* First position where two retired-pc streams disagree, [None] when
   one is a prefix of the other and lengths match... streams of equal
   content and length are identical; a short stream that is a strict
   prefix of the other diverges at its end (the longer stream kept
   retiring). *)
let first_divergence a b =
  let na = Array.length a and nb = Array.length b in
  let n = min na nb in
  let rec go i =
    if i < n then
      if a.(i) <> b.(i) then Some { ordinal = i; a_pc = a.(i); b_pc = b.(i) } else go (i + 1)
    else if na = nb then None
    else
      Some
        {
          ordinal = n;
          a_pc = (if na > n then a.(n) else -1);
          b_pc = (if nb > n then b.(n) else -1);
        }
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

(* JSON schema version of the Chrome trace_event export; bumped on any
   incompatible change and asserted by bench/json_check.exe
   --require-schema in runtest and CI. *)
let json_schema_version = 1
