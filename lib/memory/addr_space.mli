(** A process virtual address space: VMA-based reservation map plus a
    sparse store of resident data pages.

    Reservations (VMAs) are interval-based, so reserving an 8 GiB Wasm
    guard region is O(1) — the 256,000-sandbox scalability experiment
    depends on this. Only pages that have actually been written are
    resident and consume simulator memory, and a resident page stores
    only a prefix of its bytes: 64 when every write so far ended within
    them, otherwise all 4096. Bytes past the prefix read as zero, so the
    prefix is invisible to every accessor; residency, minor faults and
    {!resident_bytes} still count whole pages.

    This module maintains state and byte-accurate contents; cycle costs of
    the syscalls that manipulate it are charged by {!Kernel}.

    {b Page/permission table.} Accessors are served by a direct-mapped
    table of 256 entries indexed by page number (page [n] lives in slot
    [n mod 256], so pages [n] and [n + 256] evict each other). Each
    entry holds a mapped page's protection and its resident [Bytes] (or
    none). A hit in {!load}, {!store}, {!peek} or {!perm_at} within the
    stored prefix costs one compare and allocates nothing; a miss fills
    the entry from the VMA map and the page hashtable. Multi-byte
    accesses that stay inside one page's stored prefix use single
    [Bytes] reads/writes; page-straddling and prefix-straddling accesses
    fall back to a per-byte path with identical semantics. Every
    mapping or residency mutation ({!mmap}, {!munmap}, {!mprotect},
    {!madvise_dontneed}) clears the table, so an entry can never
    outlive the mapping it describes. A [t] is not thread-safe; confine
    each address space to one domain. *)

type t

exception
  Fault of {
    addr : int;
    access : [ `Read | `Write | `Exec ];
    reason : [ `Unmapped | `Protection ];
  }


val create : unit -> t

val page_size : int
(** 4096. *)

val max_va : int
(** Top of the user virtual address space, [2^47] (§2: typical Intel
    x86-64 user VA). *)

(** {1 Mapping operations} *)

val mmap : t -> addr:int -> len:int -> Perm.t -> unit
(** Fixed-address reservation; replaces any overlapping mappings (like
    [MAP_FIXED]). [addr]/[len] are rounded to page granularity. Raises
    [Invalid_argument] if the range exceeds [max_va]. *)

val mmap_anywhere : t -> len:int -> Perm.t -> int
(** Kernel-chosen placement (simple first-fit above a bump cursor);
    returns the chosen address. Raises [Out_of_va_space] if the
    reservation does not fit below [max_va]. *)

exception Out_of_va_space

val munmap : t -> addr:int -> len:int -> unit
val mprotect : t -> addr:int -> len:int -> Perm.t -> unit
(** Raises [Fault] with [`Unmapped] if the range contains a hole, as
    mprotect fails with ENOMEM on Linux. *)

val madvise_dontneed : t -> addr:int -> len:int -> unit
(** Discard resident pages in the range; mappings stay intact. *)

(** {1 Access} *)

val load : t -> addr:int -> bytes:int -> int
(** Little-endian load of 1, 2, 4 or 8 bytes; permission-checked. Reads
    from a mapped but non-resident page return 0 (the zero page). *)

val store : t -> addr:int -> bytes:int -> int -> unit
(** Permission-checked store; allocates the page on first touch and
    counts a minor fault. *)

val peek : t -> addr:int -> bytes:int -> int
(** Read ignoring permissions (debugger/loader view). Still faults on
    unmapped addresses. *)

val poke : t -> addr:int -> bytes:int -> int -> unit
(** Write ignoring permissions; used by loaders and the kernel model. *)

val blit_in : t -> addr:int -> string -> unit
(** Copy a string into memory via {!poke}. *)

val read_string : t -> addr:int -> len:int -> string

(** {1 Introspection} *)

val perm_at : t -> int -> Perm.t option
(** Protection of the page containing the address, [None] if unmapped. *)

val is_mapped : t -> int -> bool

val resident_pages_in : t -> addr:int -> len:int -> int
(** Number of resident (data-carrying) pages in the range. *)

val absent_pages_in : t -> addr:int -> len:int -> int
(** Mapped-but-not-resident pages in the range — what a batched madvise
    has to walk over. *)

val vma_count : t -> int

val reserved_bytes : t -> int
(** Total virtual address space currently reserved — the footprint the
    scalability experiment (§6.3.2) budgets against [max_va]. *)

val resident_bytes : t -> int

val minor_faults : t -> int
(** Count of first-touch page allocations since creation. *)
