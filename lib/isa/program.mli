(** Programs: immutable instruction sequences with byte-offset metadata,
    plus a label-resolving assembler for building them.

    Branch targets inside [Instr.t] are instruction indices. A program
    loaded at a code base address maps index [i] to byte address
    [code_base + byte_offset i]; the i-cache and HFI code-region checks
    operate on byte addresses. *)

type t

val of_instrs : Instr.t array -> t
val instrs : t -> Instr.t array
val length : t -> int
(** Number of instructions. *)

val get : t -> int -> Instr.t
val byte_offset : t -> int -> int
(** Byte offset of instruction [i] from the start of the code. *)

val byte_size : t -> int
(** Total encoded size in bytes — the code footprint. *)

val index_of_byte : t -> int -> int option
(** Instruction index starting exactly at the given byte offset. *)

val fingerprint : t -> string
(** Content digest of the instruction sequence (hex), memoized. Two
    programs with identical instructions share a fingerprint; used to
    key the persistent experiment-result cache. *)

val decoded : t -> exn option
(** Universal cache slot for a derived decoded form of the program. The
    pipeline stores its µop table here wrapped in its own extensible
    constructor; this module never inspects the payload. *)

val set_decoded : t -> exn -> unit

val pp : Format.formatter -> t -> unit

(** Label-resolving assembler. Targets may be referenced before they are
    defined; [assemble] patches all of them. *)
module Asm : sig
  type builder

  val create : unit -> builder

  val label : builder -> string -> unit
  (** Define a label at the current position. Raises [Invalid_argument]
      on duplicate definition. *)

  val fresh_label : builder -> string -> string
  (** Generate a unique label name with the given prefix. *)

  val emit : builder -> Instr.t -> unit
  (** Emit an instruction verbatim (any branch targets inside must already
      be final instruction indices). *)

  val jmp : builder -> string -> unit
  val jcc : builder -> Instr.cond -> string -> unit
  val call : builder -> string -> unit

  val here : builder -> int
  (** Index the next emitted instruction will get. *)

  val assemble : builder -> t
  (** Resolve labels. Raises [Invalid_argument] on an undefined label. *)

  val label_index : t -> builder -> string -> int
  (** Look up a label's instruction index after assembly. *)
end
