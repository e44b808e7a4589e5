type workload = {
  name : string;
  heap_bytes : int;
  init : Addr_space.t -> heap_base:int -> unit;
  build : Codegen.t -> unit;
  self_transitions : bool;
}

let workload ?(heap_bytes = 1024 * 1024) ?(init = fun _ ~heap_base:_ -> ())
    ?(self_transitions = false) ~name build =
  { name; heap_bytes; init; build; self_transitions }

type t = {
  machine : Machine.t;
  memory : Linear_memory.t;
  kernel : Kernel.t;
  hfi : Hfi.t;
  program : Program.t;
}

let emit_runtime_setup cg ~heap_size ~serialized w =
  match Codegen.strategy cg with
  | Hfi_sfi.Strategy.Hfi ->
    (* Trusted-runtime steps of §3.3.1: map regions, then enter. *)
    Codegen.emit cg (Instr.Hfi_set_region (0, Layout.code_region));
    Codegen.emit cg (Instr.Hfi_set_region (2, Layout.stack_region));
    Codegen.emit cg (Instr.Hfi_set_region (3, Layout.globals_region));
    Codegen.emit cg (Instr.Hfi_set_region (Layout.heap_region_slot, Layout.heap_region ~size:heap_size));
    if not w.self_transitions then Codegen.emit_sandbox_enter cg ~serialized
  | Hfi_sfi.Strategy.Guard_pages | Hfi_sfi.Strategy.Bounds_checks | Hfi_sfi.Strategy.Masking ->
    Codegen.prologue cg ~heap_size

let round_to_wasm_page v = (v + 65535) / 65536 * 65536

(* The lowering conventions the optimizer pattern-matches: where codegen
   pins the heap base, which scratch carries checked addresses, where
   the grow-only bound lives. One definition keeps [lib/opt] honest —
   tests build their [conv] through here too. *)
let opt_conv ~strategy ~heap_size =
  {
    Hfi_opt.Sfi_opt.strategy;
    code_base = Layout.code_base;
    heap_base = Layout.heap_base;
    heap_size;
    heap_limit = Layout.heap_max;
    bound_cell = Layout.heap_bound_cell;
    mask = Codegen.mask_of_size heap_size;
    base_reg = Reg.index Codegen.base_reg;
    scratch = Reg.index Codegen.scratch;
  }

let compile ~strategy ~serialized ?optimize ?transform w =
  let cg = Codegen.create ~strategy in
  let heap_size = round_to_wasm_page w.heap_bytes in
  emit_runtime_setup cg ~heap_size ~serialized w;
  w.build cg;
  if not w.self_transitions then Codegen.emit_sandbox_exit cg;
  Codegen.emit cg Instr.Halt;
  let prog = Codegen.finalize cg in
  let use_opt = match optimize with Some b -> b | None -> !Hfi_opt.Driver.enabled in
  let prog =
    if use_opt then Hfi_opt.Driver.optimize (opt_conv ~strategy ~heap_size) prog else prog
  in
  match transform with None -> prog | Some f -> f prog

let build_program ~strategy ?(serialized = true) ?optimize w =
  compile ~strategy ~serialized ?optimize w

let instantiate ~strategy ?(serialized = true) ?(multithreaded = false)
    ?(heap_max = Layout.heap_max) ?optimize ?transform w =
  let mem = Addr_space.create () in
  let kernel = Kernel.create ~multithreaded mem in
  let hfi = Hfi.create () in
  let program = compile ~strategy ~serialized ?optimize ?transform w in
  if Program.byte_size program > Layout.code_region_size then
    invalid_arg "Instance: program exceeds the code region";
  (* Map code, stack, and globals. *)
  Addr_space.mmap mem ~addr:Layout.code_base ~len:Layout.code_region_size Perm.rx;
  Addr_space.mmap mem ~addr:Layout.stack_region_base ~len:Layout.stack_region_size Perm.rw;
  Addr_space.mmap mem ~addr:Layout.globals_base ~len:Layout.globals_size Perm.rw;
  let heap_size = round_to_wasm_page w.heap_bytes in
  let memory =
    Linear_memory.reserve ~strategy ~kernel ~hfi ~max_bytes:heap_max ~initial_bytes:heap_size ()
  in
  w.init mem ~heap_base:(Linear_memory.base memory);
  let machine =
    Machine.create ~prog:program ~code_base:Layout.code_base ~mem ~kernel ~hfi ~entry:0 ()
  in
  Machine.set_reg machine Reg.RSP Layout.stack_top;
  { machine; memory; kernel; hfi; program }

let machine t = t.machine
let memory t = t.memory
let kernel t = t.kernel
let hfi t = t.hfi
let program t = t.program

let run_fast ?fuel ?engine t =
  let e =
    match engine with
    | Some e -> Fast_engine.reset e t.machine
    | None -> Fast_engine.create t.machine
  in
  let status = Fast_engine.run ?fuel e in
  (Fast_engine.cycles e, status)

let run_cycle ?fuel ?config ?engine t =
  let e =
    match engine with
    | Some e -> Cycle_engine.reset e t.machine
    | None -> Cycle_engine.create ?config t.machine
  in
  ignore (Cycle_engine.run ?fuel e);
  Cycle_engine.result e

let result_rax t = Machine.get_reg t.machine Reg.RAX

let instantiate_emulated ?(multithreaded = false) ?(heap_max = Layout.heap_max) w =
  let mem = Addr_space.create () in
  let kernel = Kernel.create ~multithreaded mem in
  let hfi = Hfi.create () in
  let native = compile ~strategy:Hfi_sfi.Strategy.Hfi ~serialized:true w in
  let program = Emulation.transform ~heap_base:Layout.heap_base native in
  Addr_space.mmap mem ~addr:Layout.code_base ~len:Layout.code_region_size Perm.rx;
  Addr_space.mmap mem ~addr:Layout.stack_region_base ~len:Layout.stack_region_size Perm.rw;
  Addr_space.mmap mem ~addr:Layout.globals_base ~len:Layout.globals_size Perm.rw;
  let heap_size = round_to_wasm_page w.heap_bytes in
  let memory =
    Linear_memory.reserve ~strategy:Hfi_sfi.Strategy.Hfi ~kernel ~max_bytes:heap_max
      ~initial_bytes:heap_size ()
  in
  w.init mem ~heap_base:(Linear_memory.base memory);
  let machine =
    Machine.create ~prog:program ~code_base:Layout.code_base ~mem ~kernel ~hfi ~entry:0 ()
  in
  Machine.set_reg machine Reg.RSP Layout.stack_top;
  { machine; memory; kernel; hfi; program }
