(* e2e.exe check SPEC RESULT [RESULT2]

   The smoke test's verdict on e2e result files: every end-to-end
   metric that SPEC (BENCHMARK.json) names is present and finite, no
   operation failed, and, given a second result of the same workload
   and seed, the deterministic counts sim_cycles and code_words repeat
   exactly.  Exits 0 when all hold. *)

type json = Num of float | Str of string | Lit | Arr of json list | Obj of (string * json) list

exception Bad of string

(* a small JSON reader; the files are the benchmark's own *)
let parse s =
  let i = ref 0 and n = String.length s in
  let bad what = raise (Bad (Printf.sprintf "%s at offset %d" what !i)) in
  let rec ws () = if !i < n && String.contains " \t\r\n" s.[!i] then (incr i; ws ()) in
  let eat c = ws (); if !i < n && s.[!i] = c then incr i else bad (Printf.sprintf "expected %C" c) in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    while !i < n && s.[!i] <> '"' do
      if s.[!i] = '\\' then incr i;
      if !i < n then Buffer.add_char b s.[!i];
      incr i
    done;
    eat '"';
    Buffer.contents b
  in
  let rec value () =
    ws ();
    if !i >= n then bad "unexpected end";
    match s.[!i] with
    | '"' -> Str (str ())
    | '{' ->
      incr i;
      Obj (members (fun () -> let k = str () in eat ':'; (k, value ())) '}')
    | '[' ->
      incr i;
      Arr (members value ']')
    | 't' | 'f' | 'n' ->
      while !i < n && s.[!i] >= 'a' && s.[!i] <= 'z' do incr i done;
      Lit
    | _ ->
      let j = !i in
      while !i < n && String.contains "+-.0123456789eE" s.[!i] do incr i done;
      (match float_of_string_opt (String.sub s j (!i - j)) with
      | Some v -> Num v
      | None -> bad "bad number")
  and members : 'a. (unit -> 'a) -> char -> 'a list =
   fun item close ->
    ws ();
    if !i < n && s.[!i] = close then (incr i; [])
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        if !i < n && s.[!i] = ',' then (incr i; go acc) else (eat close; List.rev acc)
      in
      go []
  in
  let v = value () in
  ws ();
  if !i <> n then bad "trailing input";
  v

let read path = parse (In_channel.with_open_bin path In_channel.input_all)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let e2e_names spec =
  match member "end_to_end" spec with
  | Some (Arr ms) -> List.filter_map (fun m -> match member "name" m with Some (Str s) -> Some s | _ -> None) ms
  | _ -> raise (Bad "SPEC has no end_to_end list")

let metric result name =
  match member "metrics" result with
  | Some ms -> (match member name ms with Some (Num v) when Float.is_finite v -> Some v | _ -> None)
  | None -> None

let run spec results =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (try
     let names = e2e_names (read spec) in
     let rs = List.map (fun p -> (p, read p)) results in
     List.iter
       (fun (path, r) ->
         List.iter
           (fun name -> if metric r name = None then problem "%s: %s missing or not finite" path name)
           names;
         match member "failed" r with
         | Some (Num 0.0) -> ()
         | _ -> problem "%s: failed operations" path)
       rs;
     match rs with
     | [ (a, ra); (b, rb) ] ->
       List.iter
         (fun name ->
           if metric ra name <> metric rb name then problem "%s and %s differ in %s" a b name)
         [ "sim_cycles"; "code_words" ]
     | _ -> ()
   with Bad msg | Sys_error msg -> problem "%s" msg);
  List.iter prerr_endline (List.rev !problems);
  if !problems = [] then 0 else 1
