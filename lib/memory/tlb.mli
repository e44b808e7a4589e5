(** Data TLB model. HFI's key microarchitectural property is that region
    checks run in parallel with the dTLB lookup (§4.2), so memory
    isolation adds no latency; the pipeline uses this module to time
    address translation and the HFI comparators alongside it. *)

type t

type config = {
  entries : int;
  ways : int;
  hit_latency : int;
  miss_latency : int;  (** page-walk cost *)
}

val skylake_dtlb : config
(** 64-entry, 4-way L1 dTLB with a ~26-cycle walk on miss. *)

val create : config -> t
(** Raises [Invalid_argument] unless [entries / ways] is a power of two
    (the geometry {!Cache.create} admits). *)

val access : t -> int -> [ `Hit | `Miss ]
(** Translate the page containing the address, filling on miss. *)

val timed_access : t -> int -> int

val flush_all : t -> unit
(** Full invalidation (context switch / shootdown). *)

val hits : t -> int
val misses : t -> int

val reset : t -> unit
(** Post-[create] state without reallocating (see {!Cache.reset}). *)
