(** The repository's one JSON reader and writer. No external JSON
    dependency is vendored; every machine-readable output (bench
    [--json], cache entries, proof artifacts, trace exports,
    [serve --json]) is rendered with the combinators below and read
    back with {!parse}.

    Numbers are represented as floats; every number the repository's
    writers emit round-trips exactly through a double. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** {1 Writer}

    The combinators build rendered JSON text: each returns a string
    ready to be embedded as a value. *)

val escape : string -> string
(** The body of a JSON string literal: short escapes for the quote,
    the backslash, newline, carriage return and tab; [\u00XX] for the
    other control characters; every other byte is copied. *)

val str : string -> string
(** A quoted, escaped string literal. *)

val num : float -> string
(** [%.6g]: six significant digits, for figures meant to be read. *)

val num_exact : float -> string
(** [%.17g]: parses back to the same double, for numbers that must
    round-trip bit for bit. *)

val obj : (string * string) list -> string
(** An object from (key, rendered value) pairs, in order. *)

val arr : string list -> string

(** {1 Reader} *)

val parse : string -> (t, string) result
(** Parse a complete document; [Error] carries a message with the
    byte offset of the first problem. *)

val parse_file : string -> (t, string) result
(** [parse] over a file's contents; unreadable files are [Error]. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing key or non-object. *)

val to_list : t -> t list option
val to_num : t -> float option
val to_str : t -> string option
val to_bool : t -> bool option

val num_member : string -> t -> float option
(** [member] composed with [to_num]. *)

val str_member : string -> t -> string option
