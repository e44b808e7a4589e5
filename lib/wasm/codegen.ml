type t = {
  b : Program.Asm.builder;
  strat : Hfi_sfi.Strategy.t;
  mutable heap_size : int;
}

let trap_label = "__wasm_trap"

(* RAX value left by the trap block: far outside any plausible program
   result, so harness code can distinguish a software bounds trap from a
   computed value. *)
let trap_sentinel = min_int + 5

let create ~strategy = { b = Program.Asm.create (); strat = strategy; heap_size = 0 }

let strategy t = t.strat
let asm t = t.b
let emit t i = Program.Asm.emit t.b i
let label t l = Program.Asm.label t.b l
let jmp t l = Program.Asm.jmp t.b l
let jcc t c l = Program.Asm.jcc t.b c l
let fresh_label t p = Program.Asm.fresh_label t.b p

let base_reg = Reg.R14
let bound_reg = Reg.R13
let scratch = Reg.R15

let prologue t ~heap_size =
  t.heap_size <- heap_size;
  match t.strat with
  | Hfi_sfi.Strategy.Guard_pages | Hfi_sfi.Strategy.Masking ->
    emit t (Instr.Mov (base_reg, Instr.Imm Layout.heap_base))
  | Hfi_sfi.Strategy.Bounds_checks ->
    emit t (Instr.Mov (base_reg, Instr.Imm Layout.heap_base));
    emit t (Instr.Mov (bound_reg, Instr.Imm heap_size));
    emit t (Instr.Store (Instr.W8, Instr.mem ~disp:Layout.heap_bound_cell (), Instr.Reg bound_reg))
  | Hfi_sfi.Strategy.Hfi -> ()

(* The masking scheme needs a power-of-two window; round up from the
   64 KiB Wasm page. Doubling must not wrap: once the window exceeds
   [max_int / 2] the next double would overflow to negative and loop
   forever, so the mask saturates at [max_int] — every bit of a
   nonnegative int set, which still covers any representable size. *)
let mask_of_size size =
  if size <= 0 then invalid_arg "Codegen.mask_of_size: size must be positive";
  let rec go m =
    if m >= size then m - 1 else if m > max_int / 2 then max_int else go (m * 2)
  in
  go 65536

let heap_op t w ~addr ~scale ~offset op =
  if offset < 0 then invalid_arg "Codegen: negative heap offset";
  match t.strat with
  | Hfi_sfi.Strategy.Guard_pages ->
    (* One instruction: the 8 GiB reservation absorbs any i32 index. *)
    let m = Instr.mem ~base:base_reg ~index:addr ~scale ~disp:offset () in
    emit t (match op with `Load d -> Instr.Load (w, d, m) | `Store s -> Instr.Store (w, m, s))
  | Hfi_sfi.Strategy.Bounds_checks ->
    (* wasm2c's check: the current heap size lives in the instance
       struct (it can change under memory.grow); x86 folds the reload
       into a compare-with-memory. *)
    emit t (Instr.Lea (scratch, Instr.mem ~index:addr ~scale ~disp:offset ()));
    emit t (Instr.Cmp_mem (scratch, Instr.mem ~disp:Layout.heap_bound_cell ()));
    jcc t Instr.Uge trap_label;
    let m = Instr.mem ~base:base_reg ~index:scratch ~scale:1 () in
    emit t (match op with `Load d -> Instr.Load (w, d, m) | `Store s -> Instr.Store (w, m, s))
  | Hfi_sfi.Strategy.Masking ->
    emit t (Instr.Lea (scratch, Instr.mem ~index:addr ~scale ~disp:offset ()));
    emit t (Instr.Alu (Instr.And, scratch, Instr.Imm (mask_of_size t.heap_size)));
    let m = Instr.mem ~base:base_reg ~index:scratch ~scale:1 () in
    emit t (match op with `Load d -> Instr.Load (w, d, m) | `Store s -> Instr.Store (w, m, s))
  | Hfi_sfi.Strategy.Hfi ->
    (* hmov: base operand architecturally ignored; index/scale/disp are
       checked against region 0 in parallel with translation (§4.2). *)
    let m = Instr.mem ~index:addr ~scale ~disp:offset () in
    emit t
      (match op with
      | `Load d -> Instr.Hload (Layout.heap_hmov_region, w, d, m)
      | `Store s -> Instr.Hstore (Layout.heap_hmov_region, w, m, s))

let load_heap t w ~dst ~addr ~offset = heap_op t w ~addr ~scale:1 ~offset (`Load dst)
let store_heap t w ~addr ~offset ~src = heap_op t w ~addr ~scale:1 ~offset (`Store src)

let load_heap_scaled t w ~dst ~addr ~scale ~offset = heap_op t w ~addr ~scale ~offset (`Load dst)

let finalize t =
  label t trap_label;
  emit t (Instr.Mov (Reg.RAX, Instr.Imm trap_sentinel));
  emit t Instr.Halt;
  Program.Asm.assemble t.b

let emit_sandbox_enter t ~serialized =
  match t.strat with
  | Hfi_sfi.Strategy.Hfi ->
    emit t
      (Instr.Hfi_enter
         { Hfi_iface.default_hybrid_spec with Hfi_iface.is_serialized = serialized })
  | Hfi_sfi.Strategy.Guard_pages | Hfi_sfi.Strategy.Bounds_checks | Hfi_sfi.Strategy.Masking ->
    (* Software Wasm transitions are zero-cost function calls (§3.3.1). *)
    ()

let emit_sandbox_exit t =
  match t.strat with
  | Hfi_sfi.Strategy.Hfi -> emit t Instr.Hfi_exit
  | Hfi_sfi.Strategy.Guard_pages | Hfi_sfi.Strategy.Bounds_checks | Hfi_sfi.Strategy.Masking ->
    ()
