(* Strict validator for the JSON the benchmark harness and the
   observability tools write: bench `--json`, vprof `--json` and
   `--perfetto`, and vtrace's Chrome trace_event export.

   All of them go through one small hand-rolled writer
   (lib/harness/report.ml) rather than a JSON library, so nothing
   structurally guards the format; this tool re-parses each file with
   a small strict-by-construction RFC 8259 parser and exits non-zero on
   any deviation — in particular a bare `nan`/`inf` token from a
   non-finite measurement, the regression that [Report.json_float]'s
   null fallback exists to prevent.

   [--require-schema N] additionally demands that every file carry a
   top-level "schema" key equal to N — the version pin for the
   bench/vprof/vtrace JSON layouts (each documents its own number).

   usage: json_check.exe [--require-schema N] FILE...                   *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type state = { s : string; mutable i : int }

let peek st = if st.i < String.length st.s then Some st.s.[st.i] else None

let next st =
  match peek st with
  | Some c ->
    st.i <- st.i + 1;
    c
  | None -> fail "unexpected end of input at offset %d" st.i

let expect st c =
  let got = next st in
  if got <> c then fail "expected %C at offset %d, got %C" c (st.i - 1) got

let skip_ws st =
  while match peek st with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false do
    st.i <- st.i + 1
  done

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match next st with
    | '"' -> Buffer.contents b
    | '\\' -> (
      (match next st with
      | ('"' | '\\' | '/') as c -> Buffer.add_char b c
      | 'b' -> Buffer.add_char b '\b'
      | 'f' -> Buffer.add_char b '\012'
      | 'n' -> Buffer.add_char b '\n'
      | 'r' -> Buffer.add_char b '\r'
      | 't' -> Buffer.add_char b '\t'
      | 'u' ->
        for _ = 1 to 4 do
          match next st with
          | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
          | c -> fail "bad \\u escape digit %C at offset %d" c (st.i - 1)
        done;
        Buffer.add_char b '?'
      | c -> fail "bad escape \\%C at offset %d" c (st.i - 1));
      go ())
    | c when Char.code c < 0x20 -> fail "raw control byte in string at offset %d" (st.i - 1)
    | c ->
      Buffer.add_char b c;
      go ()
  in
  go ()

(* strict RFC 8259 number grammar; in particular rejects `nan`, `inf`,
   `-`, leading `+`, leading zeros, and a bare `.` *)
let parse_number st =
  let start = st.i in
  if peek st = Some '-' then ignore (next st);
  (match next st with
  | '0' -> ()
  | '1' .. '9' ->
    while (match peek st with Some ('0' .. '9') -> true | _ -> false) do
      ignore (next st)
    done
  | c -> fail "bad number start %C at offset %d" c (st.i - 1));
  (match peek st with
  | Some '.' ->
    ignore (next st);
    (match next st with
    | '0' .. '9' -> ()
    | c -> fail "digit required after '.' at offset %d, got %C" (st.i - 1) c);
    while (match peek st with Some ('0' .. '9') -> true | _ -> false) do
      ignore (next st)
    done
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    ignore (next st);
    (match peek st with Some ('+' | '-') -> ignore (next st) | _ -> ());
    (match next st with
    | '0' .. '9' -> ()
    | c -> fail "digit required in exponent at offset %d, got %C" (st.i - 1) c);
    while (match peek st with Some ('0' .. '9') -> true | _ -> false) do
      ignore (next st)
    done
  | _ -> ());
  let lit = String.sub st.s start (st.i - start) in
  match float_of_string_opt lit with
  | Some v when Float.is_finite v -> ()
  | _ -> fail "number %S at offset %d does not round-trip to a finite float" lit start

let parse_literal st lit =
  String.iter (fun c -> expect st c) lit

(* raw text of the top-level "schema" member of the last parsed file,
   for --require-schema *)
let schema_literal : string option ref = ref None

let rec parse_value ?(top = false) st =
  skip_ws st;
  match peek st with
  | Some '"' -> ignore (parse_string st)
  | Some '{' -> parse_object ~top st
  | Some '[' -> parse_array st
  | Some 't' -> parse_literal st "true"
  | Some 'f' -> parse_literal st "false"
  | Some 'n' -> parse_literal st "null"
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail "unexpected %C at offset %d" c st.i
  | None -> fail "unexpected end of input at offset %d" st.i

and parse_object ~top st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then ignore (next st)
  else
    let seen = Hashtbl.create 64 in
    let rec member () =
      skip_ws st;
      let key = parse_string st in
      if Hashtbl.mem seen key then fail "duplicate key %S" key;
      Hashtbl.add seen key ();
      skip_ws st;
      expect st ':';
      skip_ws st;
      let vstart = st.i in
      parse_value st;
      if top && key = "schema" then
        schema_literal := Some (String.sub st.s vstart (st.i - vstart));
      skip_ws st;
      match next st with
      | ',' -> member ()
      | '}' -> ()
      | c -> fail "expected ',' or '}' at offset %d, got %C" (st.i - 1) c
    in
    member ()

and parse_array st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then ignore (next st)
  else
    let rec element () =
      parse_value st;
      skip_ws st;
      match next st with
      | ',' -> element ()
      | ']' -> ()
      | c -> fail "expected ',' or ']' at offset %d, got %C" (st.i - 1) c
    in
    element ()

let check_file ?require_schema path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let st = { s; i = 0 } in
  schema_literal := None;
  skip_ws st;
  if peek st <> Some '{' then fail "top level must be an object";
  parse_value ~top:true st;
  skip_ws st;
  if st.i <> String.length s then fail "trailing garbage at offset %d" st.i;
  match require_schema with
  | None -> ()
  | Some want -> (
    match !schema_literal with
    | None -> fail "missing top-level \"schema\" key (expected %d)" want
    | Some lit ->
      if int_of_string_opt lit <> Some want then
        fail "schema %s, expected %d" lit want)

let usage () =
  prerr_endline "usage: json_check.exe [--require-schema N] FILE...";
  exit 2

let () =
  let rec parse files require = function
    | [] -> (List.rev files, require)
    | "--require-schema" :: n :: rest -> (
      match int_of_string_opt n with
      | Some v -> parse files (Some v) rest
      | None ->
        prerr_endline "--require-schema needs an integer";
        usage ())
    | [ "--require-schema" ] ->
      prerr_endline "--require-schema needs an integer";
      usage ()
    | f :: rest -> parse (f :: files) require rest
  in
  let files, require_schema = parse [] None (List.tl (Array.to_list Sys.argv)) in
  if files = [] then usage ();
  let bad = ref false in
  List.iter
    (fun path ->
      match check_file ?require_schema path with
      | () -> Printf.printf "%s: ok\n" path
      | exception Bad msg ->
        Printf.eprintf "%s: invalid JSON: %s\n" path msg;
        bad := true
      | exception Sys_error msg ->
        Printf.eprintf "%s\n" msg;
        bad := true)
    files;
  if !bad then exit 1
