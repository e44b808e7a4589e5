(** Intel MPK (protection keys) model — the page-metadata baseline of
    §6.4.2 and the related-work scaling limit (§7): 16 keys of which one
    belongs to the kernel, so at most 15 usable domains; switching the
    active domain is a userspace [wrpkru] costing tens of cycles, but
    changing a page's key is an mprotect-class kernel operation. *)

type t

exception Out_of_domains
(** Raised when allocating a 16th user domain — the hard limit that makes
    MPK unsuitable for thousands of sandboxes (§7). *)

val create : Kernel.t -> t

val max_domains : int
(** 15 usable domains. *)

val allocate_domain : t -> int
(** pkey_alloc; raises {!Out_of_domains} past [max_domains]. *)

val free_domain : t -> int -> unit

val assign_pages : t -> domain:int -> addr:int -> len:int -> unit
(** pkey_mprotect: kernel call; charges mprotect-class cycles. *)

val switch_to : t -> domain:int -> float
(** wrpkru + call-gate glue; returns the cycles charged. Pure userspace —
    this is what makes MPK-based sandboxing (ERIM) fast per-switch. *)

val active_domain : t -> int
val domains_in_use : t -> int
val cycles : t -> float
