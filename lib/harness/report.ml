(* The one JSON writer behind bench --json, vprof --json and the
   Chrome_trace exports, plus the text pieces the profiler and bench
   share.  Callers build a [t] and never format JSON themselves: the
   string escape, the non-finite-to-null float rule and the layout
   live only here. *)

module Tel = Vmachine.Telemetry

type t =
  | Int of int
  | Float of float (* NaN and infinities render as null *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* the body of a JSON string literal (RFC 8259: quote, backslash and
   every control character escaped) *)
let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* JSON has no NaN or infinity: a non-finite measurement becomes null
   rather than a bare token that no strict parser accepts *)
let json_float v =
  match Float.classify_float v with
  | FP_nan | FP_infinite -> "null"
  | _ -> Printf.sprintf "%.6g" v

(* Layout: the top level, and any container that holds a container
   or more than ten members, put one member per line; small all-scalar
   objects and arrays (a dist summary, a tenant row) stay on one
   line. *)
let rec add b ~indent v =
  let str s = Buffer.add_string b ("\"" ^ json_escape s ^ "\"") in
  let seq opn cls members =
    let member (key, x) =
      Option.iter (fun k -> str k; Buffer.add_string b ": ") key;
      add b ~indent:(indent + 2) x
    in
    let scalar = function _, (Arr _ | Obj _) -> false | _ -> true in
    if members = [] then Buffer.add_string b (opn ^ cls)
    else if indent > 0 && List.length members <= 10 && List.for_all scalar members then begin
      Buffer.add_string b (opn ^ " ");
      List.iteri (fun i x -> if i > 0 then Buffer.add_string b ", "; member x) members;
      Buffer.add_string b (" " ^ cls)
    end
    else begin
      List.iteri
        (fun i x ->
          Buffer.add_string b (if i > 0 then ",\n" else opn ^ "\n");
          Buffer.add_string b (String.make (indent + 2) ' ');
          member x)
        members;
      Buffer.add_string b ("\n" ^ String.make indent ' ' ^ cls)
    end
  in
  match v with
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (json_float f)
  | Str s -> str s
  | Arr l -> seq "[" "]" (List.map (fun x -> (None, x)) l)
  | Obj kvs -> seq "{" "}" (List.map (fun (k, x) -> (Some k, x)) kvs)

let to_file path v =
  let b = Buffer.create 65536 in
  add b ~indent:0 v;
  Buffer.add_char b '\n';
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

let quantiles = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p999", 0.999) ]

(* a distribution summary: count/sum/min/max plus the percentiles
   interpolated from its log2 buckets *)
let dist (st : Tel.dist_stats) =
  Obj
    ([ ("count", Int st.Tel.count); ("sum", Int st.Tel.sum); ("min", Int st.Tel.min);
       ("max", Int st.Tel.max) ]
    @ List.map (fun (k, q) -> (k, Int (Tel.quantile_of_stats st q))) quantiles)

(* a sink's whole contents, in registration order: the "counters",
   "dists" and "events_seen" members *)
let telemetry tel =
  let collect iter f =
    let acc = ref [] in
    iter tel (fun name v -> acc := (name, f v) :: !acc);
    Obj (List.rev !acc)
  in
  [
    ("counters", collect Tel.iter_counters (fun n -> Int n));
    ("dists", collect Tel.iter_dists dist);
    ("events_seen", Int (Tel.events_seen tel));
  ]

(* compact log2-bucket sparkline: the nonzero bucket span rendered in
   eight block heights, labelled with its value range *)
let spark (st : Tel.dist_stats) =
  let b = st.Tel.buckets in
  let lo = ref (-1) and hi = ref (-1) and peak = ref 0 in
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        if !lo < 0 then lo := i;
        hi := i;
        if n > !peak then peak := n
      end)
    b;
  if !lo < 0 then ""
  else begin
    let glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                    "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |] in
    let buf = Buffer.create 64 in
    Buffer.add_string buf (Printf.sprintf "[2^%d..2^%d] " !lo (!hi + 1));
    for i = !lo to !hi do
      if b.(i) = 0 then Buffer.add_char buf ' '
      else Buffer.add_string buf glyphs.(((b.(i) * 7) + !peak - 1) / !peak)
    done;
    Buffer.contents buf
  end
