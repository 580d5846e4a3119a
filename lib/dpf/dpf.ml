(* DPF: dynamic packet filters (paper section 4.2).

   Compiles a set of filters to machine code through VCODE.  Runtime
   knowledge is exploited exactly as the paper describes:

   - filters are merged into a trie so shared prefixes are checked once;
   - every comparison constant is encoded directly in the instruction
     stream (no interpretation, no operand fetch);
   - at switch points the dispatch strategy is chosen from the *actual*
     values installed: a short linear chain of compares for few values,
     binary search over immediates for sparse sets, and — when all
     outcomes are accepting states — a hash lookup whose hash function
     is selected at code-generation time to be collision-free, which
     lets DPF omit collision chains entirely ("since DPF knows at
     code-generation time whether keys have collided, it can eliminate
     collision checks");
   - bounds checks are emitted per extent, not per load.

   The generated function has C type [int classify(uchar *pkt, int len)]
   returning the filter id or -1. *)

open Vcodebase

(* re-exports: this module is the library root *)
module Filter = Filter
module Trie = Trie
module Packet = Packet
module Mpf = Mpf
module Pathfinder = Pathfinder

(* dispatch-strategy selection: [Auto] is DPF's runtime-informed choice;
   the forced modes exist for the ablation bench *)
type dispatch = Auto | Force_linear | Force_bsearch | Force_hash

type compiled = {
  code : Vcode.code;
  tables : (int * int array) list; (* address, 32-bit words *)
  entry : int;
  max_linear : int; (* dispatch-strategy stats, for tests/benches *)
  used_hash : bool;
  used_bsearch : bool;
}

(* hash-parameter search: h = ((v * mult) >>> shift) & (size-1) must be
   collision-free over [values].  Sizes 16..256, then multipliers, then
   shifts 0..24 are tried in that order and the first fit is returned.
   The products are computed once per multiplier and a try marks the
   slots it fills with its own stamp in one reused array, so trying
   allocates nothing. *)
let hash_mults = [| 0x9E3779B1; 0x85EBCA6B; 0xC2B2AE35; 0x27220A95 |]
let hash_prod mult v = (v land 0xFFFFFFFF) * mult land 0xFFFFFFFF
let hash_slot ~size ~mult ~shift v = hash_prod mult v lsr shift land (size - 1)

let find_perfect_hash (values : int list) : (int * int * int) option =
  let keys = Array.of_list values in
  let n = Array.length keys in
  let prods = Array.map (fun m -> Array.map (hash_prod m) keys) hash_mults in
  let stamps = Array.make 256 0 and stamp = ref 0 in
  let rec fits p size shift i =
    i = n
    ||
    let h = p.(i) lsr shift land (size - 1) in
    stamps.(h) <> !stamp && (stamps.(h) <- !stamp; fits p size shift (i + 1))
  in
  let rec search size m shift =
    if size > 256 then None
    else if size < n || m = Array.length hash_mults then search (2 * size) 0 0
    else if shift > 24 then search size (m + 1) 0
    else if (incr stamp; fits prods.(m) size shift 0) then Some (size, hash_mults.(m), shift)
    else search size m (shift + 1)
  in
  search 16 0 0

module Make (T : Target.S) = struct
  module V = Vcode.Make (T)
  open V.Names

  let sext32 v =
    let v = v land 0xFFFFFFFF in
    if v land 0x80000000 <> 0 then v - 0x100000000 else v

  let u32 v = v land 0xFFFFFFFF

  (* [buf] recycles a slab code buffer across compiles (the server's
     batched install queue passes one scratch buffer for thousands of
     small per-filter compiles); see {!Gen.create}. *)
  let compile ?(base = 0x1000) ?(table_base = 0x200000) ?(dispatch = Auto)
      ?(merge = true) ?buf (filters : Filter.t list) : compiled =
    let big_endian = T.desc.Machdesc.big_endian in
    let native = List.map (Filter.to_native ~big_endian) filters in
    (* [merge = false] is the ablation: each filter compiled as its own
       conjunction chain, no prefix sharing *)
    let trie =
      if merge then Trie.of_filters native
      else
        List.fold_right
          (fun (f : Filter.t) acc -> Trie.Alt (Trie.of_filters [ f ], acc))
          native Trie.Fail
    in
    (* demultiplexors are small: ~100 words covers typical merged tries *)
    let g, args = V.lambda ~base ~leaf:true ~capacity:128 ?buf "%p%i" in
    let pkt = args.(0) and len = args.(1) in
    let rbase = V.getreg_exn g ~cls:`Temp Vtype.P in
    let rv = V.getreg_exn g ~cls:`Temp Vtype.U in
    let rret = V.getreg_exn g ~cls:`Temp Vtype.I in
    movp g rbase pkt;
    let ldone = V.genlabel g and lfail = V.genlabel g in
    let tables = ref [] in
    let next_table = ref table_base in
    let used_hash = ref false and used_bsearch = ref false and max_linear = ref 0 in
    (* bounds-check state: [checked] is the statically validated extent;
       after a Shift the base is dynamic and checks become dynamic *)
    let checked = ref 0 in
    let shifted = ref false in
    let check_bounds ~off ~size ~fail =
      let extent = off + size in
      if not !shifted then begin
        if extent > !checked then begin
          bltii g len extent fail;
          checked := extent
        end
      end
      else begin
        (* dynamic: (base - pkt) + extent <= len *)
        let t = V.getreg_exn g ~cls:`Temp Vtype.I in
        V.arith g Op.Sub Vtype.P t rbase pkt;
        addii g t t extent;
        bgti g t len fail;
        V.putreg g t
      end
    in
    let vt_of_size = function 1 -> Vtype.UC | 2 -> Vtype.US | _ -> Vtype.U in
    let full_mask = function 1 -> 0xFF | 2 -> 0xFFFF | _ -> 0xFFFFFFFF in
    let load_field ~off ~size ~mask ~fail =
      check_bounds ~off ~size ~fail;
      V.load_imm g (vt_of_size size) rv rbase off;
      if mask land full_mask size <> full_mask size then andui g rv rv mask
    in
    (* wire-order load of a Shift field on a little-endian host needs a
       byte swap (the field is arithmetic, not a raw comparison) *)
    let swap_for_shift ~size =
      if (not big_endian) && size = 2 then begin
        let t = V.getreg_exn g ~cls:`Temp Vtype.U in
        rshui g t rv 8;
        lshui g rv rv 8;
        andui g rv rv 0xFF00;
        oru g rv rv t;
        V.putreg g t
      end
      else if (not big_endian) && size = 4 then
        Verror.fail (Verror.Unsupported "4-byte shift fields on little-endian hosts")
    in
    let alloc_table (words : int array) : int =
      let addr = !next_table in
      tables := (addr, words) :: !tables;
      next_table := addr + (4 * Array.length words) + 8;
      addr
    in
    let is_leaf = function Trie.Leaf _ -> true | _ -> false in
    let leaf_fid = function Trie.Leaf f -> f | _ -> assert false in
    let rec emit_node (t : Trie.t) ~fail =
      match t with
      | Trie.Fail -> jv g fail
      | Trie.Leaf fid ->
        seti g rret fid;
        jv g ldone
      | Trie.Alt (l, r) ->
        let lr = V.genlabel g in
        let c0 = !checked and s0 = !shifted in
        emit_node l ~fail:lr;
        V.label g lr;
        checked := c0;
        shifted := s0;
        emit_node r ~fail
      | Trie.Seq (Filter.Cmp a, child) ->
        load_field ~off:a.offset ~size:a.size ~mask:a.mask ~fail;
        (* the runtime constant, burned into the instruction stream *)
        bneui g rv (sext32 a.value) fail;
        emit_node child ~fail
      | Trie.Seq (Filter.Shift a, child) ->
        load_field ~off:a.offset ~size:a.size ~mask:a.mask ~fail;
        swap_for_shift ~size:a.size;
        if a.shift <> 0 then lshui g rv rv a.shift;
        (* advance the header base by the (pointer-width) field value *)
        V.arith g Op.Add Vtype.P rbase rbase rv;
        shifted := true;
        emit_node child ~fail
      | Trie.Switch (f, edges) ->
        load_field ~off:f.Trie.f_offset ~size:f.Trie.f_size ~mask:f.Trie.f_mask ~fail;
        let c0 = !checked and s0 = !shifted in
        let emit_child c ~fail =
          checked := c0;
          shifted := s0;
          emit_node c ~fail
        in
        emit_dispatch edges ~emit_child ~fail
    and emit_dispatch edges ~emit_child ~fail =
      let n = List.length edges in
      let all_leaves = List.for_all (fun (_, c) -> is_leaf c) edges in
      let want_hash =
        match dispatch with
        | Auto -> all_leaves && n > 8
        | Force_hash -> all_leaves
        | Force_linear | Force_bsearch -> false
      in
      let hash = if want_hash then find_perfect_hash (List.map fst edges) else None in
      match hash with
      | Some (size, mult, shift) ->
        used_hash := true;
        (* (key, fid) table; empty slots hold fid -1 so a stray hit on
           them classifies as "no match" *)
        let words = Array.make (2 * size) 0 in
        for i = 0 to size - 1 do
          words.((2 * i) + 1) <- 0xFFFFFFFF
        done;
        List.iter
          (fun (v, child) ->
            let h = hash_slot ~size ~mult ~shift v in
            words.(2 * h) <- u32 v;
            words.((2 * h) + 1) <- u32 (leaf_fid child))
          edges;
        let taddr = alloc_table words in
        let h = V.getreg_exn g ~cls:`Temp Vtype.U in
        let addr = V.getreg_exn g ~cls:`Temp Vtype.P in
        (* h = ((v * mult) >>> shift) & (size-1); entries are 8 bytes *)
        mului g h rv mult;
        if shift <> 0 then rshui g h h shift;
        andui g h h (size - 1);
        lshui g h h 3;
        setp g addr taddr;
        V.arith g Op.Add Vtype.P addr addr h;
        (* key check (the hash is collision-free over installed keys, so
           a mismatch means "not installed", never "probe further") *)
        ldui g h addr 0;
        bneu g h rv fail;
        ldii g rret addr 4;
        V.putreg g h;
        V.putreg g addr;
        jv g ldone
      | None ->
        let use_linear =
          match dispatch with
          | Force_linear -> true
          | Force_bsearch -> false
          | Auto | Force_hash -> n <= 4
        in
        if use_linear then begin
          max_linear := max !max_linear n;
          let labs = List.map (fun (v, c) -> (V.genlabel g, v, c)) edges in
          List.iter
            (fun (l, v, _) -> V.branch_imm g Op.Eq Vtype.U rv (sext32 v) l)
            labs;
          jv g fail;
          List.iter
            (fun (l, _, c) ->
              V.label g l;
              emit_child c ~fail)
            labs
        end
        else begin
          used_bsearch := true;
          let arr =
            Array.of_list (List.sort (fun (a, _) (b, _) -> compare (u32 a) (u32 b)) edges)
          in
          let rec bs lo hi =
            if hi - lo + 1 <= 3 then begin
              let labs = ref [] in
              for i = lo to hi do
                let v, c = arr.(i) in
                let l = V.genlabel g in
                labs := (l, c) :: !labs;
                V.branch_imm g Op.Eq Vtype.U rv (sext32 v) l;
                ignore v
              done;
              jv g fail;
              List.iter
                (fun (l, c) ->
                  V.label g l;
                  emit_child c ~fail)
                (List.rev !labs)
            end
            else begin
              let mid = (lo + hi) / 2 in
              let vm, cm = arr.(mid) in
              let llo = V.genlabel g and lmid = V.genlabel g in
              V.branch_imm g Op.Eq Vtype.U rv (sext32 vm) lmid;
              V.branch_imm g Op.Lt Vtype.U rv (sext32 vm) llo;
              bs (mid + 1) hi;
              V.label g llo;
              bs lo (mid - 1);
              V.label g lmid;
              emit_child cm ~fail
            end
          in
          bs 0 (Array.length arr - 1)
        end
    in
    emit_node trie ~fail:lfail;
    V.label g lfail;
    seti g rret (-1);
    V.label g ldone;
    reti g rret;
    let code = V.end_gen g in
    {
      code;
      tables = List.rev !tables;
      entry = code.Vcode.entry_addr;
      max_linear = !max_linear;
      used_hash = !used_hash;
      used_bsearch = !used_bsearch;
    }

  (* Install the dispatch tables into simulated memory. *)
  let install_tables mem (c : compiled) =
    List.iter
      (fun (addr, words) ->
        Array.iteri (fun i w -> Vmachine.Mem.write_u32 mem (addr + (4 * i)) w) words)
      c.tables
end
