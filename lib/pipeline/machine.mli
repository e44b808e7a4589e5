(** Architectural machine state and single-step interpreter.

    This module executes instructions with full architectural fidelity —
    register file, byte-accurate memory through {!Hfi_memory.Addr_space},
    HFI checks through {!Hfi_core.Hfi}, syscalls through
    {!Hfi_memory.Kernel} — and *no* notion of time. The two timing engines
    ({!Fast_engine} and {!Cycle_engine}) drive it and convert the
    per-instruction {!event}s into cycles.

    Branch targets are instruction indices; the code is modeled as loaded
    at [code_base], and stack/handler addresses are byte addresses mapped
    back to indices via {!Hfi_isa.Program.index_of_byte}.

    The machine runs the program's shared, read-only {!Uop.t} records,
    which hold no position: the same record stands for every position of
    an equal instruction. Where the executing instruction sits comes from
    the program's {!Uop.layout}, and each step writes it into the
    {!event} ([index], [fetch_addr]) that observers receive. *)

type t

val alu : Instr.alu_op -> int -> int -> int
(** The concrete ALU the interpreter commits: native-int wraparound,
    shift counts masked to 6 bits, signed division. Exposed so the
    optimizer's constant folder evaluates with bit-identical semantics;
    division by zero traps at runtime, so callers must guard it. *)

type access = { addr : int; bytes : int; write : bool; via_hmov : bool }
(** A committed data access, as copied out of an {!event} by {!access}. *)

type branch_kind =
  | No_branch  (** not a control transfer; the branch fields are stale *)
  | Cond
  | Uncond
  | Indirect
  | Call_k
  | Ret_k

(** What one committed instruction did — the functional core's output
    that the timing engines consume.

    Each machine owns a single event slot, which every step overwrites
    in place before calling the observer, so stepping allocates nothing
    for it. The slot is valid only during the callback: an observer that
    keeps anything past it must copy the fields it needs (see {!access}).
    Every mutable field is an int, a bool or a constant constructor,
    and kernel time sits unboxed in a one-element float array. The
    executed instruction's decoded form is the {!Uop.t} passed alongside;
    its position is here, since the µop is shared across positions. *)
type event = {
  mutable index : int;  (** instruction index of the committed instruction *)
  mutable fetch_addr : int;  (** its byte address ({!addr_of_index}) *)
  mutable has_mem : bool;  (** a data access happened; the [mem_*] fields describe it *)
  mutable mem_addr : int;
  mutable mem_bytes : int;
  mutable mem_write : bool;
  mutable mem_hmov : bool;  (** the access went through an [hmov] *)
  mutable branch : branch_kind;
  mutable taken : bool;
  mutable target : int;  (** instruction index actually transferred to *)
  mutable fallthrough : int;  (** index of the next sequential instruction *)
  mutable serializing : bool;  (** pipeline drain required (cpuid/mfence/HFI) *)
  kernel_cycles : float array;
      (** one element: kernel time consumed by this instruction, unboxed *)
  mutable signalled : bool;
      (** a trap was delivered to the signal handler; the reason is
          {!last_signal} *)
}

val access : event -> access option
(** Copy the event's data access out of the slot ([None] if it made
    none), for observers that keep it past the callback. *)

val decode_dispatch : bool ref
(** When true (default; [HFI_DECODE_CACHE=0] flips it at startup), [run]
    dispatches on the pre-decoded µop form, a basic block at a time —
    the one fast path. When false it runs the reference match-on-AST
    interpreter, the oracle the µop path is tested against. Both produce
    bit-identical architectural and modeled results; tests flip this
    in-process to prove it. *)

val dispatch_tier : unit -> string
(** The path [run] currently selects: ["uop"] or ["ast"]. *)

type status = Running | Halted | Faulted of Msr.t

val create :
  ?signal_handler:int ->
  prog:Program.t ->
  code_base:int ->
  mem:Addr_space.t ->
  kernel:Kernel.t ->
  hfi:Hfi.t ->
  entry:int ->
  unit ->
  t
(** [signal_handler] is the instruction index the OS redirects to when a
    trap (HFI violation, page fault) occurs — the runtime's SIGSEGV
    handler. Without one, traps end the run as [Faulted]. *)

val set_now : t -> (unit -> int) -> unit
(** Clock source for [rdtsc], supplied by the timing engine. *)

val set_on_flush : t -> (int -> unit) -> unit
(** Callback for [clflush], so the timing engine can evict its d-cache. *)

val regs : t -> int array
(** The live register file: slot [Reg.index r] holds register [r], and
    the two slots after the [Reg.count] registers hold the operands of
    the last compare (read by conditional jumps). *)

val get_reg : t -> Reg.t -> int
val set_reg : t -> Reg.t -> int -> unit
val pc : t -> int
val status : t -> status
val hfi : t -> Hfi.t
val kernel : t -> Kernel.t
val mem : t -> Addr_space.t
val program : t -> Program.t
val code_base : t -> int
val instr_count : t -> int
val last_signal : t -> Msr.t option

val last_fault : t -> Hfi_util.Fault.t option
(** Structured record of the most recent trap (modeled or hardware),
    with the faulting PC and committed-instruction count at the time it
    fired. [None] until the first trap. Recording happens only on the
    trap path, so fault-free runs have identical cost. *)

val addr_of_index : t -> int -> int
(** Byte address of an instruction index. *)

val run : ?fuel:int -> t -> (Uop.t -> event -> unit) -> status
(** Step until [Halted], [Faulted], or [fuel] instructions, calling the
    callback with the committed µop and the machine's event slot once
    per committed instruction, before the next one starts.
    No-op when already halted or faulted; an out-of-range pc faults.
    Dispatches per {!decode_dispatch}; both paths observe identical
    events, and a run resumed in [fuel]-sized slices observes the same
    stream as one uninterrupted run. *)

(** {1 Wrong-path speculation support}

    Used by the cycle engine to model transient execution after a branch
    misprediction. The wrong path runs the same per-µop semantics as
    commit, in a speculative mode:
    - it runs over a shadow copy of {!regs} and leaves architectural
      state, the committed {!event} slot and the HFI state untouched;
    - stores are checked but stay in the store buffer: no memory write,
      no cache effect;
    - loads read committed memory, and report to [spec_mem] first;
    - a µop stops the window wherever its commit would fail the HFI
      check, trap, serialize or leave the sandbox. Stores are checked at
      their true width, hmov stores by their hmov check, [push] and
      [call] at 8 bytes.

    A transient load whose check fails therefore reports nothing, which
    is HFI's Spectre guarantee (§4.1: no cache update before the bounds
    check passes). Out-of-region transient instructions are gated at
    decode: they are neither fetched nor executed. A transient
    [hfi_exit] in an unserialized sandbox turns the checks off for the
    rest of its window (the §3.4 risk); a serialized or switch-on-exit
    sandbox stops the window there instead. *)

type spec_effects = {
  spec_fetch : int -> unit;  (** byte address of a speculatively fetched instruction *)
  spec_mem : int -> unit;  (** address of a cache-visible transient read *)
}

val speculate : t -> start:int -> fuel:int -> spec_effects -> int
(** Execute up to [fuel] instructions of wrong path starting at index
    [start], stopping early as described above. Returns the number of
    instructions transiently executed, counting the one that stopped
    the window. *)
