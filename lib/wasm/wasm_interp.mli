(** Reference interpreter for {!Wasm_ir} — the differential-testing
    oracle for {!Wasm_compile}: the compiled module, run on the machine
    model under any isolation strategy, must produce exactly what this
    interpreter computes (same result or same trap). *)

type trap =
  | Out_of_bounds of int  (** memory access beyond the linear memory *)
  | Division_by_zero
  | Unreachable_executed
  | Call_stack_exhausted

type outcome = Value of int | No_value | Trap of trap

exception Out_of_fuel
(** The fuel budget ran out before the program finished — distinct from
    [Failure] so fuzzing harnesses can discard non-terminating mutants
    without mistaking them for interpreter bugs. *)

val pp_outcome : Format.formatter -> outcome -> unit

val run : ?fuel:int -> Wasm_ir.module_ -> outcome
(** Execute the start function on a fresh instance. [fuel] bounds the
    interpreted instruction count (default 10M); exhausting it raises
    {!Out_of_fuel}. The module should be validated first; the
    interpreter itself raises [Invalid_argument] on malformed
    programs. *)

val memory_byte : ?fuel:int -> Wasm_ir.module_ -> int -> int
(** Run, then read a byte of the final linear memory (for tests that
    check stored effects). *)
