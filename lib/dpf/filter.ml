(* The packet-filter language.

   Filters are the declarative predicates of the DPF system (paper
   section 4.2): a conjunction of masked comparisons against packet
   fields, plus header-indirection atoms for variable-length headers
   (the running base register).  All three classifiers — the MPF-style
   per-filter interpreter, the PATHFINDER-style trie interpreter, and
   the DPF dynamic compiler — consume this same representation.

   Field semantics: a [Cmp]/[Shift] atom loads [size] bytes (1, 2 or 4)
   at [base + offset] *in wire (big-endian) order*, masks them, and
   compares/indexes.  [to_native] pre-swaps constants and masks once at
   installation time so classifiers can use raw native-order loads in
   their inner loops — what production demultiplexers do. *)

type atom =
  | Cmp of { offset : int; size : int; mask : int; value : int }
  | Shift of { offset : int; size : int; mask : int; shift : int }
      (* base <- base + ((field & mask) << shift) *)

type t = { fid : int; atoms : atom list }

let atom_offset = function Cmp a -> a.offset | Shift a -> a.offset
let atom_size = function Cmp a -> a.size | Shift a -> a.size

let check_atom = function
  | Cmp { size; _ } | Shift { size; _ } ->
    if size <> 1 && size <> 2 && size <> 4 then invalid_arg "atom size must be 1, 2 or 4"

let make ~fid atoms =
  List.iter check_atom atoms;
  { fid; atoms }

(* maximum byte touched assuming all Shift contributions are zero; used
   for the entry bounds check of fixed-header filters *)
let min_length (f : t) =
  List.fold_left (fun acc a -> max acc (atom_offset a + atom_size a)) 0 f.atoms

(* ------------------------------------------------------------------ *)
(* Byte-order conversion                                                *)

let bswap16 v = ((v land 0xff) lsl 8) lor ((v lsr 8) land 0xff)

let bswap32 v =
  ((v land 0xff) lsl 24)
  lor ((v land 0xff00) lsl 8)
  lor ((v lsr 8) land 0xff00)
  lor ((v lsr 24) land 0xff)

(* Rewrite constants/masks for a classifier running on a host with the
   given endianness, so that raw loads compare correctly. *)
let to_native ~big_endian (f : t) : t =
  if big_endian then f
  else
    let conv size v = match size with 1 -> v | 2 -> bswap16 v | _ -> bswap32 v in
    {
      f with
      atoms =
        List.map
          (function
            | Cmp a -> Cmp { a with mask = conv a.size a.mask; value = conv a.size a.value }
            | Shift a ->
              (* shift atoms compute an arithmetic value: the classifier
                 must swap the loaded field instead, so these are kept in
                 wire order and flagged by the consumers *)
              Shift a)
          f.atoms;
    }

(* ------------------------------------------------------------------ *)
(* Reference semantics (OCaml interpreter over a packet byte string)   *)

let load_wire (pkt : Bytes.t) ~off ~size =
  let len = Bytes.length pkt in
  if off < 0 || off + size > len then None
  else
    let b i = Char.code (Bytes.get pkt (off + i)) in
    Some
      (match size with
      | 1 -> b 0
      | 2 -> (b 0 lsl 8) lor b 1
      | _ -> (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3)

(* Does filter [f] (in wire order) accept [pkt]? *)
let matches (f : t) (pkt : Bytes.t) : bool =
  let rec go base = function
    | [] -> true
    | Cmp a :: rest -> (
      match load_wire pkt ~off:(base + a.offset) ~size:a.size with
      | None -> false
      | Some v -> v land a.mask = a.value && go base rest)
    | Shift a :: rest -> (
      match load_wire pkt ~off:(base + a.offset) ~size:a.size with
      | None -> false
      | Some v -> go (base + ((v land a.mask) lsl a.shift)) rest)
  in
  go 0 f.atoms

(* First-match classification over a filter list: the semantics all
   three systems must implement. *)
let classify (filters : t list) (pkt : Bytes.t) : int =
  match List.find_opt (fun f -> matches f pkt) filters with
  | Some f -> f.fid
  | None -> -1

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* The Table 3 workload: [n] TCP/IP session filters sharing the
   canonical prefix (IPv4, no options, TCP, our host address) and
   differing in destination port — the situation the paper's hashing
   discussion targets ("all TCP/IP packet filters will look in messages
   at identical fixed offsets for port numbers"). *)
let tcpip_session ~fid ~dst_ip ~dst_port =
  make ~fid
    [
      Cmp { offset = 0; size = 1; mask = 0xFF; value = 0x45 }; (* IPv4, IHL 5 *)
      Cmp { offset = 9; size = 1; mask = 0xFF; value = 6 };    (* TCP *)
      Cmp { offset = 16; size = 4; mask = 0xFFFFFFFF; value = dst_ip };
      Cmp { offset = 22; size = 2; mask = 0xFFFF; value = dst_port };
    ]

let tcpip_filters ?(dst_ip = 0x0A000001) ?(base_port = 1000) n =
  List.init n (fun i -> tcpip_session ~fid:i ~dst_ip ~dst_port:(base_port + i))

(* A variable-length-header workload exercising Shift atoms: accepts
   TCP to [dst_port] for any IHL. *)
let tcpip_varhdr ~fid ~dst_port =
  make ~fid
    [
      Cmp { offset = 0; size = 1; mask = 0xF0; value = 0x40 };  (* IPv4 *)
      Cmp { offset = 9; size = 1; mask = 0xFF; value = 6 };     (* TCP *)
      Shift { offset = 0; size = 1; mask = 0x0F; shift = 2 };   (* base += 4*IHL *)
      Cmp { offset = 2; size = 2; mask = 0xFFFF; value = dst_port };
    ]

(* ------------------------------------------------------------------ *)
(* Encodings shared with the tcc-compiled interpreters                 *)

(* atom record: [kind; offset; size; mask; value-or-shift], kind 0=Cmp,
   1=Shift.  Constants are pre-swapped for the executing host. *)
let atom_words ~big_endian a : int list =
  let conv size v = if big_endian || size = 1 then v
    else if size = 2 then bswap16 v else bswap32 v
  in
  match a with
  | Cmp { offset; size; mask; value } ->
    [ 0; offset; size; conv size mask; conv size value ]
  | Shift { offset; size; mask; shift } ->
    (* shift fields are arithmetic: interpreters byteswap the load, so
       mask/shift stay in wire order *)
    [ 1; offset; size; mask; shift ]

(* MPF program image: nfilters, then per filter: fid, natoms, atoms *)
let mpf_program ~big_endian (filters : t list) : int array =
  let body =
    List.concat_map
      (fun f ->
        (f.fid :: List.length f.atoms
         :: List.concat_map (atom_words ~big_endian) f.atoms))
      filters
  in
  Array.of_list (List.length filters :: body)

let atoms_equal a b =
  match (a, b) with
  | Cmp x, Cmp y -> x.offset = y.offset && x.size = y.size && x.mask = y.mask && x.value = y.value
  | Shift x, Shift y -> x.offset = y.offset && x.size = y.size && x.mask = y.mask && x.shift = y.shift
  | _ -> false

(* Field identity for switch construction: two Cmp atoms test the same
   field if they agree on everything but the value. *)
let same_field a b =
  match (a, b) with
  | Cmp x, Cmp y -> x.offset = y.offset && x.size = y.size && x.mask = y.mask
  | _ -> false

let cmp_value = function Cmp a -> a.value | Shift _ -> invalid_arg "cmp_value"
