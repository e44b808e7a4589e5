(** Page protection bits (the mmap/mprotect PROT_* triple). *)

type t = { r : bool; w : bool; x : bool }

val none : t
(** PROT_NONE — reserved address space, e.g. Wasm guard regions. *)

val r : t
val rw : t
val rx : t

val allows : t -> [ `Read | `Write | `Exec ] -> bool
val equal : t -> t -> bool
val to_string : t -> string
