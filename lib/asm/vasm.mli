(** A one-pass MIPS-subset assembler over the backend's own ISA tables.

    [Vasm] turns textual MIPS assembly into the exact code words
    {!Vmips.Mips_asm.encode} produces — every instruction is read to
    a {!Vmips.Mips_asm.t} and encoded through the backend, so the
    assembler cannot drift from the emitters or the simulator.  It
    encodes each instruction as soon as it is scanned and patches
    forward label references at the end.  The accepted grammar is the
    disassembler's own output plus labels, data directives and a
    handful of standard pseudo-instructions; `visa disasm` output
    therefore re-assembles to the identical words (the round-trip
    pinned by test/test_asm.ml).

    Errors never escape as bare exceptions from the [result]-returning
    entry points: every failure is a located {!diag}. *)

(** a located diagnostic; [line] and [col] are 1-based *)
type diag = { line : int; col : int; msg : string }

exception Error of diag

(** ["LINE:COL: msg"] — prepend a filename to taste *)
val diag_to_string : diag -> string

(** an assembled program: a contiguous little-endian word image
    starting at [base] (gaps from [.org]/[.space] are zero-filled) *)
type image = {
  base : int;
  words : int array;
  entry : int;  (** the [main] label if defined, else [base] *)
  symbols : (string * int) list;  (** label -> absolute address *)
}

(** assemble source text; [base] defaults to 0x10000, matching the
    generated-code base the harness workloads use *)
val assemble : ?base:int -> string -> (image, diag) result

(** like {!assemble} but raises {!Error} *)
val assemble_exn : ?base:int -> string -> image

(** read and assemble a file; unreadable files become a [diag] with
    [line = 0] *)
val assemble_file : ?base:int -> string -> (image, diag) result
