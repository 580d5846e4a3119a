(* Spans for the traced run, recorded from the benchmark's side of each
   call into a layer.

   A span is (kind, start, end, parent, request id).  Kinds are
   registered once by name ("server.lookup", "engine.call_warm", ...);
   the text before the first '.' names the layer.  A root span (parent
   -1) is one request: a packet, a batch, a fixture call or a
   generation.

   Aggregates are kept online: per kind the busy time (sum of
   durations), the self time (duration minus the time covered by child
   spans) and every duration, for counts and percentiles.  Only the
   first [capacity] spans are also kept individually, in preallocated
   arrays, for the Perfetto file written at exit.

   A traced recorder records only while [on] (the timed part of a run,
   not its setup or the layer sweeps); an untraced one never does.
   Off, [enter]/[leave] are one branch each. *)

(* CLOCK_MONOTONIC in ns, unboxed and allocation-free; the C stub ships
   with bechamel.monotonic_clock. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now () = Int64.to_int (clock_ns ())

(* ---- growable int sample buffer, for percentiles ---- *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add s v =
    if s.n = Array.length s.a then begin
      let a = Array.make (2 * s.n) 0 in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    s.a.(s.n) <- v;
    s.n <- s.n + 1

  let length s = s.n
  let max s = if s.n = 0 then 0 else Array.fold_left max 0 (Array.sub s.a 0 s.n)

  (* linearly interpolated quantile (numpy's default); 0 when empty *)
  let quantiles s qs =
    if s.n = 0 then List.map (fun _ -> 0.0) qs
    else begin
      let a = Array.sub s.a 0 s.n in
      Array.sort Int.compare a;
      List.map
        (fun q ->
          let r = q *. float_of_int (s.n - 1) in
          let i = int_of_float r in
          let f = r -. float_of_int i in
          let lo = float_of_int a.(i) in
          if i + 1 >= s.n then lo else lo +. (f *. (float_of_int a.(i + 1) -. lo)))
        qs
    end
end

(* ---- kind registry ---- *)

let kind_names : string list ref = ref []

(* register a span kind; call at module initialisation, before [create] *)
let kind name =
  kind_names := !kind_names @ [ name ];
  List.length !kind_names - 1

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* ---- the recorder ---- *)

let capacity = 1 lsl 17
let max_depth = 8

type t = {
  traced : bool;
  mutable on : bool;
  names : string array;
  busy : int array;
  self : int array;
  durs : Samples.t array;
  (* open spans, innermost last *)
  st_kind : int array;
  st_start : int array;
  st_child : int array; (* ns covered by finished children *)
  st_idx : int array; (* stored index, or -1 past capacity *)
  mutable depth : int;
  mutable req : int;
  (* stored spans *)
  sp_kind : int array;
  sp_start : int array;
  sp_end : int array;
  sp_parent : int array;
  sp_req : int array;
  mutable n : int;
  mutable dropped : int;
}

let create ~traced =
  let names = Array.of_list !kind_names in
  let k = Array.length names in
  let cap = if traced then capacity else 0 in
  {
    traced;
    on = false;
    names;
    busy = Array.make k 0;
    self = Array.make k 0;
    durs = Array.init k (fun _ -> Samples.create ());
    st_kind = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_idx = Array.make max_depth 0;
    depth = 0;
    req = 0;
    sp_kind = Array.make cap 0;
    sp_start = Array.make cap 0;
    sp_end = Array.make cap 0;
    sp_parent = Array.make cap 0;
    sp_req = Array.make cap 0;
    n = 0;
    dropped = 0;
  }

let enter t kind =
  if t.on then begin
    let d = t.depth in
    if d = 0 then t.req <- t.req + 1;
    let idx =
      if t.n < capacity then begin
        let i = t.n in
        t.n <- i + 1;
        t.sp_kind.(i) <- kind;
        t.sp_parent.(i) <- (if d = 0 then -1 else t.st_idx.(d - 1));
        t.sp_req.(i) <- t.req;
        i
      end
      else begin
        t.dropped <- t.dropped + 1;
        -1
      end
    in
    t.st_kind.(d) <- kind;
    t.st_child.(d) <- 0;
    t.st_idx.(d) <- idx;
    t.depth <- d + 1;
    (* read the clock last, so the bookkeeping above is not timed *)
    let t0 = now () in
    t.st_start.(d) <- t0;
    if idx >= 0 then t.sp_start.(idx) <- t0
  end

let leave t =
  if t.on then begin
    let t1 = now () in
    let d = t.depth - 1 in
    t.depth <- d;
    let kind = t.st_kind.(d) in
    let dur = t1 - t.st_start.(d) in
    t.busy.(kind) <- t.busy.(kind) + dur;
    t.self.(kind) <- t.self.(kind) + dur - t.st_child.(d);
    Samples.add t.durs.(kind) dur;
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    let idx = t.st_idx.(d) in
    if idx >= 0 then t.sp_end.(idx) <- t1
  end

(* close every open span (a request that raised) *)
let unwind t =
  while t.depth > 0 do
    leave t
  done

(* switch recording on or off; only between requests *)
let set_on t on = t.on <- on && t.traced
let on t = t.on

(* ---- reading the aggregates ---- *)

let find t name =
  let rec go i = if i >= Array.length t.names then invalid_arg name
    else if t.names.(i) = name then i else go (i + 1) in
  go 0

let busy_s t name = float_of_int t.busy.(find t name) *. 1e-9
let durations t name = t.durs.(find t name)

(* self seconds summed per layer, in registration order; "bench" is the
   roots' self time, i.e. the benchmark's own residual *)
let self_by_layer t =
  List.sort_uniq compare (List.map layer_of (Array.to_list t.names))
  |> List.map (fun layer ->
         let s = ref 0 in
         Array.iteri (fun i name -> if layer_of name = layer then s := !s + t.self.(i)) t.names;
         (layer, float_of_int !s *. 1e-9))

(* total duration of root spans: what the layer self times add up to *)
let root_s t =
  let s = ref 0 in
  Array.iteri (fun i name -> if layer_of name = "bench" then s := !s + t.busy.(i)) t.names;
  float_of_int !s *. 1e-9

(* ---- Perfetto export ---- *)

(* Timestamps are nanoseconds since the first stored span, written into
   the format's microsecond field: the viewer's "1 us" reads as 1 ns.
   Nesting is by time containment on one track; [args] carries the
   request id and the parent's span index. *)
let write_trace t ~meta path =
  let b = Buffer.create (1 lsl 20) in
  let w =
    Chrome_trace.start b ~tool:"e2e" ~schema:1
      ~meta:(("ts_unit", "ns") :: meta)
      ~meta_ints:[ ("spans.stored", t.n); ("spans.dropped", t.dropped) ]
  in
  let origin = if t.n > 0 then t.sp_start.(0) else 0 in
  for i = 0 to t.n - 1 do
    (* a span left open by an abort has no end; skip it *)
    if t.sp_end.(i) >= t.sp_start.(i) then
      Chrome_trace.complete w ~name:t.names.(t.sp_kind.(i)) ~ts:(t.sp_start.(i) - origin)
        ~dur:(t.sp_end.(i) - t.sp_start.(i))
        ~tid:1
        ~args:(Printf.sprintf "{\"req\": %d, \"parent\": %d}" t.sp_req.(i) t.sp_parent.(i))
        ()
  done;
  Chrome_trace.finish w;
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc
