(** Set-associative LRU cache model, used for the i-cache, d-cache and as
    the timing substrate of the Spectre flush+reload probe (Fig. 7).

    Tags are derived from addresses; the model tracks presence and
    recency only, not data (contents live in {!Addr_space}). *)

type t

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;  (** cycles *)
  miss_latency : int;  (** cycles to fill from the next level *)
}

val skylake_l1d : config
(** 32 KiB, 8-way, 64 B lines, 4-cycle hit, ~18-cycle miss service (an
    L2 hit — the common case for the modeled working sets) in the
    simplified two-level hierarchy. *)

val skylake_l1i : config

val create : config -> t
(** Raises [Invalid_argument] unless the set count
    ([size_bytes / (ways * line_bytes)]) and [line_bytes] are powers of
    two. *)

val access : t -> int -> [ `Hit | `Miss ]
(** Look up the line containing the address; on miss, fill it (evicting
    LRU). Updates recency. *)

val probe : t -> int -> bool
(** Non-destructive presence check (does not update recency or fill). *)

val latency : t -> [ `Hit | `Miss ] -> int

val timed_access : t -> int -> int
(** [access] and return its latency in cycles. *)

val flush_line : t -> int -> unit
(** clflush: evict the line containing the address. *)

val flush_all : t -> unit

val hits : t -> int
val misses : t -> int

val reset : t -> unit
(** Return to the post-[create] state (all lines invalid, counters and
    recency zeroed) without reallocating — repeated simulations reuse
    one cache instead of churning the allocator. *)
