(* VCODE operand types (paper Table 1).

   Each VCODE instruction is a base operation composed with one of these
   types; the names mirror the ANSI C types they map to.  As in the paper,
   the sub-word types [C]/[UC]/[S]/[US] only appear in memory operations:
   register-to-register arithmetic is performed at word width. *)

type t =
  | V   (** void — only valid as a return type *)
  | C   (** signed char, 1 byte *)
  | UC  (** unsigned char, 1 byte *)
  | S   (** signed short, 2 bytes *)
  | US  (** unsigned short, 2 bytes *)
  | I   (** int, 4 bytes *)
  | U   (** unsigned int, 4 bytes *)
  | L   (** long, word sized *)
  | UL  (** unsigned long, word sized *)
  | P   (** pointer, word sized *)
  | F   (** float, 4 bytes *)
  | D   (** double, 8 bytes *)

let all = [ V; C; UC; S; US; I; U; L; UL; P; F; D ]

(* Table 1 ordinal, for packing a type into Gen's int side tables. *)
let to_int = function
  | V -> 0 | C -> 1 | UC -> 2 | S -> 3 | US -> 4 | I -> 5
  | U -> 6 | L -> 7 | UL -> 8 | P -> 9 | F -> 10 | D -> 11

let of_int = function
  | 0 -> V | 1 -> C | 2 -> UC | 3 -> S | 4 -> US | 5 -> I
  | 6 -> U | 7 -> L | 8 -> UL | 9 -> P | 10 -> F | 11 -> D
  | n -> Verror.fail (Verror.Bad_type (Printf.sprintf "Vtype.of_int: %d" n))

let to_string = function
  | V -> "v" | C -> "c" | UC -> "uc" | S -> "s" | US -> "us"
  | I -> "i" | U -> "u" | L -> "l" | UL -> "ul" | P -> "p"
  | F -> "f" | D -> "d"

let c_equivalent = function
  | V -> "void" | C -> "signed char" | UC -> "unsigned char"
  | S -> "signed short" | US -> "unsigned short"
  | I -> "int" | U -> "unsigned" | L -> "long" | UL -> "unsigned long"
  | P -> "void *" | F -> "float" | D -> "double"

let pp fmt t = Fmt.string fmt (to_string t)

let[@inline] is_float = function F | D -> true | _ -> false

let is_signed = function
  | C | S | I | L | F | D -> true
  | UC | US | U | UL | P | V -> false

(* Size in bytes given the machine word size in bytes (4 or 8). *)
let size ~word_bytes = function
  | V -> 0
  | C | UC -> 1
  | S | US -> 2
  | I | U | F -> 4
  | D -> 8
  | L | UL | P -> word_bytes

(* Natural alignment equals size on every target we support. *)
let align ~word_bytes t = match t with V -> 1 | t -> size ~word_bytes t

(* Parse a [v_lambda] parameter type string such as "%i%p%d" or "%ul%uc".
   The leading '%' of each item is required, exactly as in the paper's
   examples.  Raises [Verror.Error] on malformed strings. *)
let parse_signature (s : string) : t list =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if s.[i] <> '%' then
      Verror.fail (Verror.Bad_type (Printf.sprintf "type string %S: expected '%%' at %d" s i))
    else
      let two c1 c2 = i + 2 < n && s.[i + 1] = c1 && s.[i + 2] = c2 in
      if two 'u' 'c' then go (i + 3) (UC :: acc)
      else if two 'u' 's' then go (i + 3) (US :: acc)
      else if two 'u' 'l' then go (i + 3) (UL :: acc)
      else if i + 1 < n then
        let t =
          match s.[i + 1] with
          | 'v' -> V | 'c' -> C | 's' -> S | 'i' -> I | 'u' -> U
          | 'l' -> L | 'p' -> P | 'f' -> F | 'd' -> D
          | ch ->
            Verror.fail
              (Verror.Bad_type (Printf.sprintf "type string %S: unknown type '%c'" s ch))
        in
        go (i + 2) (t :: acc)
      else Verror.fail (Verror.Bad_type (Printf.sprintf "type string %S: dangling '%%'" s))
  in
  go 0 []

let equal (a : t) (b : t) = a = b
