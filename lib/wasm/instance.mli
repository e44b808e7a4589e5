(** A runnable sandboxed Wasm module: compiled program + linear memory +
    machine state, assembled under a chosen isolation strategy.

    For the HFI strategy the emitted program mirrors §3.3: the (trusted)
    runtime configures the code, stack, globals, and heap regions with
    [hfi_set_region], enters a hybrid sandbox, runs the module body, and
    exits. For software strategies the module prologue pins the heap
    base/bound registers and runs unsandboxed (isolation comes from the
    compiled checks or the guard reservation). *)

(** A workload authored against {!Codegen}. *)
type workload = {
  name : string;
  heap_bytes : int;  (** accessible heap to provision *)
  init : Addr_space.t -> heap_base:int -> unit;  (** pre-populate memory *)
  build : Codegen.t -> unit;
      (** emit the body; leave the result in RAX; do not emit [Halt] *)
  self_transitions : bool;
      (** the body emits its own {!Codegen.emit_sandbox_enter}/exit pairs
          (e.g. per-image-row transitions); the harness then does not wrap
          the whole body in a sandbox entry *)
}

val workload :
  ?heap_bytes:int ->
  ?init:(Addr_space.t -> heap_base:int -> unit) ->
  ?self_transitions:bool ->
  name:string ->
  (Codegen.t -> unit) ->
  workload

type t

val instantiate :
  strategy:Hfi_sfi.Strategy.t ->
  ?serialized:bool ->
  ?multithreaded:bool ->
  ?heap_max:int ->
  ?optimize:bool ->
  ?transform:(Program.t -> Program.t) ->
  workload ->
  t
(** Fresh address space, kernel, HFI state, compiled program, and
    machine. [serialized] controls the Spectre flag on HFI entries
    (default true). [heap_max] defaults to {!Layout.heap_max}.
    [optimize] overrides the [HFI_WASM_OPT] switch (omit it to defer to
    the environment); experiments that model the reference wasm2c
    lowering (Fig. 3) pass [~optimize:false]. [transform] rewrites the
    final program (after optimization) — the register-pressure
    experiment re-allocates through it. *)

val build_program :
  strategy:Hfi_sfi.Strategy.t -> ?serialized:bool -> ?optimize:bool -> workload -> Program.t
(** Just the compiled program (for code-size reporting and the static
    verifier). [optimize] overrides the global [HFI_WASM_OPT] switch:
    [Some true] forces the {!Hfi_opt.Driver} middle-end, [Some false]
    forces the reference lowering, and omitting it defers to the
    environment (on by default). *)

val round_to_wasm_page : int -> int
(** Round a byte count up to the 64 KiB Wasm page granule — the heap
    size [compile] actually provisions for a workload's [heap_bytes]. *)

val opt_conv : strategy:Hfi_sfi.Strategy.t -> heap_size:int -> Hfi_opt.Sfi_opt.conv
(** The lowering conventions of {!Codegen} under this layout, in the
    form {!Hfi_opt} consumes (heap base register, check scratch, bound
    cell, mask). [heap_size] must already be Wasm-page rounded. *)

val machine : t -> Machine.t
val memory : t -> Linear_memory.t
val kernel : t -> Kernel.t
val hfi : t -> Hfi.t
val program : t -> Program.t

val run_fast : ?fuel:int -> ?engine:Fast_engine.t -> t -> float * Machine.status
(** Execute on the fast engine; returns total cycles (engine + kernel
    time is already folded in) and the final status. Passing [engine]
    rebinds it to this instance via {!Fast_engine.reset} instead of
    allocating a fresh one — modeled results are identical; experiment
    inner loops use it to avoid per-run cache/predictor allocation. *)

val run_cycle :
  ?fuel:int -> ?config:Cycle_engine.config -> ?engine:Cycle_engine.t -> t -> Cycle_engine.result
(** Execute on the cycle engine. [engine] as in {!run_fast} (it keeps its
    own config; [config] only applies when no engine is passed). *)

val result_rax : t -> int
(** RAX after the run — the module's return value. *)

val instantiate_emulated : ?multithreaded:bool -> ?heap_max:int -> workload -> t
(** The compiler-based emulation build (§5.2): compile for HFI, then
    apply {!Emulation.transform}; runs with HFI disabled as a timing
    proxy. Used by the Fig. 2 cross-validation. *)
