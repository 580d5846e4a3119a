(* Filter-trie construction.

   DPF's central data structure: filters are merged into a prefix trie
   so that atoms shared by many filters (the common TCP/IP prologue) are
   checked once, and points where concurrently active filters compare
   the same field against different values become explicit [Switch]
   nodes — the paper's "optimize the comparison in a manner similar to
   how optimizing compilers treat C switch statements".

   First-match semantics are preserved: filters that cannot merge into
   the current node fall into an [Alt] (try left, then right), and
   duplicate switch values keep their original order within the group. *)

type field = { f_offset : int; f_size : int; f_mask : int }

type t =
  | Fail
  | Leaf of int
  | Seq of Filter.atom * t
  | Switch of field * (int * t) list
  | Alt of t * t

let field_of_atom = function
  | Filter.Cmp { offset; size; mask; _ } -> { f_offset = offset; f_size = size; f_mask = mask }
  | Filter.Shift _ -> invalid_arg "field_of_atom"

let rec split_while p = function
  | x :: rest when p x ->
    let yes, no = split_while p rest in
    (x :: yes, no)
  | l -> ([], l)

let tail = function _ :: r, fid -> (r, fid) | [], _ -> assert false

(* Build a trie from filters in priority order. *)
let rec build (filters : (Filter.atom list * int) list) : t =
  match filters with
  | [] -> Fail
  | ([], fid) :: _ -> Leaf fid (* earliest match shadows the rest *)
  | (a0 :: _, _) :: _ -> (
    (* the leading run of filters whose head atom shares a0's field *)
    let run, rest =
      split_while
        (function a :: _, _ -> Filter.atoms_equal a a0 || Filter.same_field a a0 | [], _ -> false)
        filters
    in
    let node =
      if List.for_all (function a :: _, _ -> Filter.atoms_equal a a0 | [], _ -> false) run
      then Seq (a0, build (List.map tail run))
      else begin
        (* same field, several values: group by value in one pass,
           preserving the order of first occurrence ([groups] is newest
           first, so rev_map restores it) *)
        let index = Hashtbl.create 16 and groups = ref [] in
        List.iter
          (fun f ->
            let v = Filter.cmp_value (List.hd (fst f)) in
            match Hashtbl.find_opt index v with
            | Some cell -> cell := tail f :: !cell
            | None ->
              let cell = ref [ tail f ] in
              Hashtbl.add index v cell;
              groups := (v, cell) :: !groups)
          run;
        Switch (field_of_atom a0, List.rev_map (fun (v, cell) -> (v, build (List.rev !cell))) !groups)
      end
    in
    match rest with [] -> node | _ -> Alt (node, build rest))

let of_filters (filters : Filter.t list) : t =
  build (List.map (fun (f : Filter.t) -> (f.Filter.atoms, f.Filter.fid)) filters)

(* ------------------------------------------------------------------ *)
(* Reference interpretation (wire-order atoms over a byte string)      *)

let rec interp (trie : t) (pkt : Bytes.t) ~base : int =
  match trie with
  | Fail -> -1
  | Leaf fid -> fid
  | Alt (l, r) -> (
    match interp l pkt ~base with -1 -> interp r pkt ~base | fid -> fid)
  | Seq (Filter.Cmp a, child) -> (
    match Filter.load_wire pkt ~off:(base + a.offset) ~size:a.size with
    | Some v when v land a.mask = a.value -> interp child pkt ~base
    | _ -> -1)
  | Seq (Filter.Shift a, child) -> (
    match Filter.load_wire pkt ~off:(base + a.offset) ~size:a.size with
    | Some v -> interp child pkt ~base:(base + ((v land a.mask) lsl a.shift))
    | None -> -1)
  | Switch (f, edges) -> (
    match Filter.load_wire pkt ~off:(base + f.f_offset) ~size:f.f_size with
    | None -> -1
    | Some v -> (
      match List.assoc_opt (v land f.f_mask) edges with
      | Some child -> interp child pkt ~base
      | None -> -1))

let classify trie pkt = interp trie pkt ~base:0

(* ------------------------------------------------------------------ *)
(* Statistics used by tests and benches                                *)

let rec count_nodes = function
  | Fail | Leaf _ -> 1
  | Seq (_, c) -> 1 + count_nodes c
  | Alt (l, r) -> 1 + count_nodes l + count_nodes r
  | Switch (_, es) -> 1 + List.fold_left (fun acc (_, c) -> acc + count_nodes c) 0 es

let rec max_switch_width = function
  | Fail | Leaf _ -> 0
  | Seq (_, c) -> max_switch_width c
  | Alt (l, r) -> max (max_switch_width l) (max_switch_width r)
  | Switch (_, es) ->
    List.fold_left (fun acc (_, c) -> max acc (max_switch_width c)) (List.length es) es
