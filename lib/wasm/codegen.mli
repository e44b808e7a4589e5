(** Wasm2c-style ahead-of-time code generation with a pluggable memory
    isolation strategy (§5.1).

    Workloads are written once against this interface; each heap access
    compiles to the instruction sequence of the selected scheme:

    - guard pages: [load dst, \[R14 + addr + offset\]] — one instruction,
      heap base pinned in R14, safety from the 8 GiB reservation;
    - bounds checks: effective-index compute, compare against the bound
      in R13, conditional trap, then the load — the ~2× pattern of §2;
    - masking: index compute, AND with the heap mask, then the load (no
      precise traps);
    - HFI: a single [hmov0] load — no reserved registers, the hardware
      checks in parallel with translation.

    Registers R13–R15 are reserved for the schemes and scratch;
    workload code must not hold values in them across heap accesses.
    Heap address registers carry Wasm i32 indices (the compiler
    guarantees 32-bit values, as wasm2c does). *)

type t

val create : strategy:Hfi_sfi.Strategy.t -> t

val strategy : t -> Hfi_sfi.Strategy.t

val asm : t -> Program.Asm.builder
(** The underlying assembler for non-heap instructions and control flow. *)

val emit : t -> Instr.t -> unit
val label : t -> string -> unit
val jmp : t -> string -> unit
val jcc : t -> Instr.cond -> string -> unit
val fresh_label : t -> string -> string

val prologue : t -> heap_size:int -> unit
(** Scheme setup at module entry: pin the heap base (and bound) into the
    reserved registers for the software schemes; nothing for HFI (the
    runtime configured region 0 before entering). *)

val load_heap : t -> Instr.width -> dst:Reg.t -> addr:Reg.t -> offset:int -> unit
(** Compile [dst <- heap\[addr + offset\]]. [offset >= 0], as in Wasm. *)

val store_heap : t -> Instr.width -> addr:Reg.t -> offset:int -> src:Instr.src -> unit

val load_heap_scaled :
  t -> Instr.width -> dst:Reg.t -> addr:Reg.t -> scale:int -> offset:int -> unit
(** Scaled variant ([heap\[addr*scale + offset\]]) exercising the full
    x86 addressing mode through each scheme. *)

val base_reg : Reg.t
(** R14: pinned heap base of the software schemes. *)

val bound_reg : Reg.t
(** R13: heap bound staging register of the bounds-check scheme. *)

val scratch : Reg.t
(** R15: effective-address scratch of the checked schemes. *)

val mask_of_size : int -> int
(** Heap mask of the masking scheme: the size rounded up to a
    power-of-two window (min 64 KiB), minus one. Saturates at [max_int]
    (all bits of a nonnegative int) instead of overflowing for sizes
    above [2^61]; raises [Invalid_argument] for non-positive sizes. The
    returned window always covers [0, size-1]. *)

val trap_label : string
(** Label of the out-of-line trap block appended by [finalize]. *)

val trap_sentinel : int
(** RAX value the trap block halts with; distinguishable from any
    plausible program result. *)

val finalize : t -> Program.t
(** Append the trap block and assemble. *)

val emit_sandbox_enter : t -> serialized:bool -> unit
(** A sandbox (re-)entry at this point in the code: [hfi_enter] for the
    HFI strategy (serialized per the flag), nothing for software Wasm
    whose transitions are zero-cost calls (§3.3.1). *)

val emit_sandbox_exit : t -> unit
