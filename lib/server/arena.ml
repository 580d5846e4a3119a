(* Slab allocator for the code-region registry.

   Fixed-size classes with per-class LIFO free lists over a bump
   frontier.  Everything here is bookkeeping over addresses — the
   registry owns the actual stores into simulated memory (and with
   them the write-watcher invalidation traffic). *)

module Tel = Vmachine.Telemetry

(* int-keyed, like the registry's key table: no [caml_hash] or
   [compare_val] call per probe *)
module Slabs = Hashtbl.Make (Int)

let class_sizes = [| 32; 64; 128; 256; 512; 1024 |]

type class_state = {
  size : int;
  mutable free : int list; (* LIFO: reuse the hottest address first *)
  mutable live : int;
}

type t = {
  base : int;
  limit : int;
  mutable bump : int; (* next unclaimed byte address *)
  classes : class_state array;
  owner : int Slabs.t; (* live slab addr -> class index *)
  tel : Tel.t;
  c_fresh : Tel.counter;  (* slabs claimed from the frontier *)
  c_reuse : Tel.counter;  (* slabs served from a free list *)
  c_free : Tel.counter;
  c_full : Tel.counter;   (* allocation failures (caller evicts) *)
  d_words : Tel.dist;     (* requested allocation sizes *)
}

let create ?(tel = Tel.disabled) ~base ~limit () =
  if base land 7 <> 0 then invalid_arg "Arena.create: base must be 8-aligned";
  if limit <= base then invalid_arg "Arena.create: empty window";
  {
    base;
    limit;
    bump = base;
    classes = Array.map (fun size -> { size; free = []; live = 0 }) class_sizes;
    owner = Slabs.create 1024;
    tel;
    c_fresh = Tel.counter tel "server.arena.fresh";
    c_reuse = Tel.counter tel "server.arena.reuse";
    c_free = Tel.counter tel "server.arena.free";
    c_full = Tel.counter tel "server.arena.full";
    d_words = Tel.dist tel "server.arena.alloc_words";
  }

(* smallest class index holding [words], or None beyond the largest *)
let class_for words =
  let n = Array.length class_sizes in
  let rec go i = if i >= n then None else if class_sizes.(i) >= words then Some i else go (i + 1) in
  go 0

let alloc t ~words =
  Tel.observe t.tel t.d_words words;
  match class_for words with
  | None ->
    Tel.bump t.tel t.c_full;
    None
  | Some ci ->
    let cls = t.classes.(ci) in
    (match cls.free with
    | addr :: rest ->
      cls.free <- rest;
      cls.live <- cls.live + 1;
      Slabs.replace t.owner addr ci;
      Tel.bump t.tel t.c_reuse;
      Some (addr, cls.size)
    | [] ->
      let bytes = 4 * cls.size in
      if t.bump + bytes > t.limit then begin
        Tel.bump t.tel t.c_full;
        None
      end
      else begin
        let addr = t.bump in
        t.bump <- t.bump + bytes;
        cls.live <- cls.live + 1;
        Slabs.replace t.owner addr ci;
        Tel.bump t.tel t.c_fresh;
        Some (addr, cls.size)
      end)

let free t addr =
  match Slabs.find_opt t.owner addr with
  | None -> invalid_arg (Printf.sprintf "Arena.free: 0x%x is not a live slab" addr)
  | Some ci ->
    Slabs.remove t.owner addr;
    let cls = t.classes.(ci) in
    cls.free <- addr :: cls.free;
    cls.live <- cls.live - 1;
    Tel.bump t.tel t.c_free

let slab_words t addr =
  match Slabs.find_opt t.owner addr with
  | None -> None
  | Some ci -> Some t.classes.(ci).size

(* Allocation-free accessors for {!Vmachine.Timeline} gauges: [stats]
   builds records and walks every free list, which is too heavy to
   call once per snapshot.  Free lists are bounded by the slab count,
   so the single-class List.length walks stay cheap. *)
let live_slabs t = Slabs.length t.owner
let bump_words t = (t.bump - t.base) / 4
let free_slabs t ~cls = List.length t.classes.(cls).free

let free_slabs_total t =
  let n = ref 0 in
  Array.iter (fun (c : class_state) -> n := !n + List.length c.free) t.classes;
  !n

type class_stats = { size : int; live : int; free : int }

type stats = {
  classes : class_stats array;
  bump_words : int;
  window_words : int;
  live_slabs : int;
}

let stats (t : t) =
  {
    classes =
      Array.map
        (fun (c : class_state) ->
          { size = c.size; live = c.live; free = List.length c.free })
        t.classes;
    bump_words = (t.bump - t.base) / 4;
    window_words = (t.limit - t.base) / 4;
    live_slabs = Slabs.length t.owner;
  }
