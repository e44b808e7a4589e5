(** Cycle-cost model for kernel and microarchitectural events.

    All values are cycles on the modeled 3.3 GHz core (Table 2 of the
    paper). They are calibrated so the *relative* results of the paper's
    experiments reproduce: who wins, by roughly what factor, and where the
    crossovers fall. Sources for each constant are noted; where the paper
    gives a number (e.g. "30–60 cycles" for serialization) we sit inside
    the stated range. *)

(** {1 Ring transitions and syscalls} *)

val syscall_ring_transition : int
(** User→kernel→user transition (syscall/sysret + swapgs + entry glue),
    ~150 ns on post-Meltdown-mitigation Skylake. *)

val syscall_open : int
(** Path lookup + fd allocation beyond the ring transition. *)

val syscall_read_base : int
val syscall_read_per_byte : float
val syscall_write_base : int
val syscall_write_per_byte : float
val syscall_close : int
val syscall_getpid : int

(** {1 Memory-management syscalls} *)

val mmap_base : int
(** VMA creation; reservation is O(1) in pages. *)

val munmap_base : int
val munmap_per_resident_page : int

val mprotect_base : int
val mprotect_per_page : int
(** PTE updates for pages whose protection changes. *)

val madvise_base : int
val madvise_per_resident_page : int
(** Freeing a present page (zap + LRU + free-list). *)

val madvise_per_absent_page : float
(** Walking PTEs that turn out to be absent — this is the per-guard-page
    scan penalty that makes batched madvise *without* guard-page elision
    slower than per-sandbox madvise (§6.3.1). *)

val tlb_shootdown : int
(** IPI + remote invalidation; charged when unmapping or protecting in a
    multi-threaded process. *)

val page_fault : int
(** Minor fault service: entry, PTE fill, return. *)

(** {1 Isolation-mechanism primitives} *)

val serialization_drain : int
(** Pipeline drain of a serialized HFI instruction. The paper budgets
    30–60 cycles for serialized [hfi_enter]/[hfi_exit]; we use the middle
    of that range. *)

val cpuid_drain : int
(** The cpuid instruction the software emulation substitutes for
    enter/exit (§5.2) drains for longer than HFI's budget — one source of
    the emulation's 98%–108% deviation in Fig. 2. *)

val hfi_set_region_cycles : int
(** Move region metadata from memory into HFI metadata registers. *)

val wrpkru : int
(** MPK domain switch, ~20–30 cycles on Skylake-era cores (ERIM). *)

val mpk_per_transition_extra : int
(** ERIM-style call-gate glue around wrpkru. *)

val seccomp_filter_per_syscall : int
(** cBPF filter evaluation on every syscall when a seccomp program is
    installed; calibrated to the paper's 2.1% overhead on an
    open/read/close loop. *)

val process_context_switch : int
(** OS process context switch, for the IPC comparison in §2. *)

val signal_delivery : int
(** Kernel signal dispatch to a userspace handler (SIGSEGV to the
    runtime's handler on an HFI violation, §3.3.2). *)
