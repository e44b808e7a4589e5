(** Differential fault-injection campaigns (robustness harness).

    Three pillars:

    - {b Adversarial program generation}: a seeded generator produces
      stack-disciplined {!Hfi_wasm.Wasm_ir} modules (bounded loops,
      acyclic calls, ~25% out-of-bounds heap addresses), a
      shape-preserving mutator perturbs constants and operators, and
      every mutant runs under the reference interpreter, the HFI
      strategy, and software bounds checks. All three must agree:
      same value, or a trap of the same kind.

    - {b Fault injection}: a {!Hfi_util.Fault_inject} plan perturbs
      region registers (benign same-value rewrites), TLB/cache state
      (mid-run flushes), and the decoded instruction stream (planted
      out-of-bounds accesses). Benign injections must not change any
      architectural outcome; adversarial ones must always trap.

    - {b The isolation invariant}: a canary page mapped outside every
      sandbox region must be byte-identical after every run. No
      injected out-of-region access ever completes untrapped.

    - {b Static verification}: every generated program's compiled form
      is also fed to the {!Hfi_verify} abstract interpreter (under the
      HFI and bounds-checks strategies). The generator emits only
      guarded heap accesses, so any non-[Safe] verdict is a verifier or
      compiler bug — the execution legs act as a differential oracle
      for the verifier and vice versa.

    A deliberately planted injector bug — the heap region register
    corrupted mid-run so accesses land outside the sandbox without a
    trap — serves as the negative control: the campaign must detect it
    (via the canary or a value mismatch), proving the checker can see
    real isolation failures. A second, {e static} negative control
    plants an in-sandbox [hfi_set_region] that repoints the heap region
    at the canary page: the verifier must call it [Unsafe] naming the
    offending instruction, and running it must really corrupt the
    canary (the hybrid sandbox does not trap region writes). *)

module Wasm_ir = Hfi_wasm.Wasm_ir
module Wasm_interp = Hfi_wasm.Wasm_interp
module Wasm_compile = Hfi_wasm.Wasm_compile
module Wasm_validate = Hfi_wasm.Wasm_validate
module Instance = Hfi_wasm.Instance
module Layout = Hfi_wasm.Layout
module Prng = Hfi_util.Prng
module Fault = Hfi_util.Fault
module Fault_inject = Hfi_util.Fault_inject
module Strategy = Hfi_sfi.Strategy
module Verify = Hfi_verify.Checks
module Vreport = Hfi_verify.Report

(* ------------------------------------------------------------------ *)
(* Program generation                                                  *)
(* ------------------------------------------------------------------ *)

let mem_bytes = 65536 (* one Wasm page of linear memory *)
let interp_fuel = 150_000
let machine_fuel = 30_000_000

(* Locals 0..2 are general scratch; local 3 is the reserved loop
   counter, giving every generated loop a hard iteration bound. *)
let n_locals = 4
let counter_local = 3
let max_loop_iters = 20

let in_bounds_addr rng = Prng.int rng (mem_bytes - 64)

let oob_addr rng =
  (* Beyond the heap bound but within the 32-bit index space the
     compiled code canonicalizes to; occasionally negative, which the
     32-bit masking turns into a near-4 GiB address on both sides. *)
  match Prng.int rng 3 with
  | 0 -> mem_bytes + Prng.int rng 0x1000_0000
  | 1 -> 0xffff_0000 + Prng.int rng 0xfff0
  | _ -> -(1 + Prng.int rng 0x1000)

let gen_const rng =
  match Prng.int rng 5 with
  | 0 -> Prng.int rng 16 (* small: shift counts, loop math, div rhs 0 *)
  | 1 -> Prng.int rng 256 - 128
  | 2 -> in_bounds_addr rng
  | 3 -> Prng.next rng land 0xffff_ffff
  | _ -> Prng.next rng

let binops =
  [| Wasm_ir.Add; Sub; Mul; Div; And; Or; Xor; Shl; Shr_u |]

let relops = [| Wasm_ir.Eq; Ne; Lt_s; Le_s; Gt_s; Ge_s; Lt_u; Ge_u |]

(* One net-(+1) expression of bounded depth. *)
let rec gen_expr rng ~globals ~depth =
  let open Wasm_ir in
  if depth <= 0 then
    match Prng.int rng 3 with
    | 0 -> [ Const (gen_const rng) ]
    | 1 -> [ Local_get (Prng.int rng 3) ]
    | _ -> if globals > 0 then [ Global_get (Prng.int rng globals) ] else [ Const 7 ]
  else
    match Prng.int rng 8 with
    | 0 | 1 ->
      gen_expr rng ~globals ~depth:(depth - 1)
      @ gen_expr rng ~globals ~depth:(depth - 1)
      @ [ Binop binops.(Prng.int rng (Array.length binops)) ]
    | 2 ->
      gen_expr rng ~globals ~depth:(depth - 1)
      @ gen_expr rng ~globals ~depth:(depth - 1)
      @ [ Relop relops.(Prng.int rng (Array.length relops)) ]
    | 3 -> gen_expr rng ~globals ~depth:(depth - 1) @ [ Eqz ]
    | 4 ->
      gen_expr rng ~globals ~depth:(depth - 1)
      @ gen_expr rng ~globals ~depth:(depth - 1)
      @ gen_expr rng ~globals ~depth:(depth - 1)
      @ [ Select ]
    | 5 -> gen_addr rng ~globals ~depth @ [ Load { bytes = 8; offset = Prng.int rng 64 } ]
    | _ -> gen_expr rng ~globals ~depth:(depth - 1)

(* A heap address expression: mostly in-bounds constants, ~25%
   deliberately out of bounds, sometimes computed-then-masked. *)
and gen_addr rng ~globals ~depth =
  let open Wasm_ir in
  match Prng.int rng 8 with
  | 0 | 1 -> [ Const (oob_addr rng) ]
  | 2 ->
    gen_expr rng ~globals ~depth:(min 1 (depth - 1)) @ [ Const 0xffff; Binop And ]
  | _ -> [ Const (in_bounds_addr rng) ]

(* One net-zero statement. [in_loop] suppresses nested loops so the
   reserved counter local is never shared between two live loops
   (termination would otherwise be unbounded). [callees] are the
   indices this function may call — always strictly later functions,
   keeping the call graph acyclic. *)
let rec gen_stmt rng ~globals ~callees ~in_loop ~depth =
  let open Wasm_ir in
  match Prng.int rng 10 with
  | 0 -> gen_expr rng ~globals ~depth:2 @ [ Local_set (Prng.int rng 3) ]
  | 1 when globals > 0 -> gen_expr rng ~globals ~depth:2 @ [ Global_set (Prng.int rng globals) ]
  | 2 -> gen_expr rng ~globals ~depth:2 @ [ Drop ]
  | 3 | 4 ->
    gen_addr rng ~globals ~depth:2
    @ gen_expr rng ~globals ~depth:2
    @ [ Store { bytes = 1 lsl Prng.int rng 4; offset = Prng.int rng 64 } ]
  | 5 ->
    gen_expr rng ~globals ~depth:1
    @ [
        If
          ( gen_stmts rng ~globals ~callees ~in_loop ~depth:(depth - 1) ~n:(1 + Prng.int rng 2),
            gen_stmts rng ~globals ~callees ~in_loop ~depth:(depth - 1) ~n:(Prng.int rng 2) );
      ]
  | 6 when depth > 0 ->
    [ Block (gen_stmts rng ~globals ~callees ~in_loop ~depth:(depth - 1) ~n:(1 + Prng.int rng 2)) ]
  | 7 when (not in_loop) && depth > 0 ->
    (* counter := 0; block { loop { body; if ++counter >= bound then
       break; continue } } — the only loop shape we emit, so every
       loop terminates within [max_loop_iters] rounds. *)
    let body =
      gen_stmts rng ~globals ~callees ~in_loop:true ~depth:(depth - 1) ~n:(1 + Prng.int rng 2)
    in
    let bound = 1 + Prng.int rng max_loop_iters in
    [
      Const 0;
      Local_set counter_local;
      Block
        [
          Loop
            (body
            @ [
                Local_get counter_local;
                Const 1;
                Binop Add;
                Local_tee counter_local;
                Const bound;
                Relop Ge_s;
                Br_if 1;
                Br 0;
              ]);
        ];
    ]
  | 8 when callees <> [] -> [ Call (List.nth callees (Prng.int rng (List.length callees))) ]
  | _ -> [ Nop ]

and gen_stmts rng ~globals ~callees ~in_loop ~depth ~n =
  List.concat (List.init n (fun _ -> gen_stmt rng ~globals ~callees ~in_loop ~depth))

let generate rng =
  let nfuncs = 1 + Prng.int rng 3 in
  let globals = 2 in
  let funcs =
    Array.init nfuncs (fun i ->
        let callees = List.init (nfuncs - i - 1) (fun k -> i + 1 + k) in
        let stmts =
          gen_stmts rng ~globals ~callees ~in_loop:false ~depth:2 ~n:(2 + Prng.int rng 4)
        in
        if i = 0 then
          Wasm_ir.func ~name:"start" ~locals:n_locals ~results:1
            (stmts @ gen_expr rng ~globals ~depth:3)
        else Wasm_ir.func ~name:(Printf.sprintf "f%d" i) ~locals:n_locals stmts)
  in
  Wasm_ir.module_ ~globals:[| Prng.int rng 1000; Prng.int rng 1000 |] ~start:0 funcs

(* ------------------------------------------------------------------ *)
(* Mutation — shape-preserving, so mutants still validate              *)
(* ------------------------------------------------------------------ *)

let mutate_const rng v =
  match Prng.int rng 6 with
  | 0 -> v + 1
  | 1 -> v lxor (1 lsl Prng.int rng 32)
  | 2 -> in_bounds_addr rng
  | 3 -> oob_addr rng
  | 4 -> 0 (* division-by-zero / loop-degeneration seed *)
  | _ -> Prng.next rng land 0xffff_ffff

let mutate rng (m : Wasm_ir.module_) =
  let open Wasm_ir in
  let rec instr ins =
    let hit () = Prng.int rng 10 = 0 in
    match ins with
    | Const v when hit () -> Const (mutate_const rng v)
    | Binop _ when hit () -> Binop binops.(Prng.int rng (Array.length binops))
    | Relop _ when hit () -> Relop relops.(Prng.int rng (Array.length relops))
    | Block b -> Block (List.map instr b)
    | Loop b -> Loop (List.map instr b)
    | If (t, e) -> If (List.map instr t, List.map instr e)
    | other -> other
  in
  {
    m with
    funcs = Array.map (fun f -> { f with body = List.map instr f.body }) m.funcs;
  }

(* ------------------------------------------------------------------ *)
(* Machine-side runner with canary page and injection hooks            *)
(* ------------------------------------------------------------------ *)

let canary_base = 0x3000_0000
let canary_len = 4096
let canary_word = 0xA5A5_A5A5_A5A5_A5A (* 60 bits: fits poke ~bytes:8 *)

type injection_action =
  | No_injection
  | Region_rewrite of int
      (** at the given committed-instruction count, rewrite the heap
          region register with its own current value — benign *)
  | Region_corrupt_shift of int
      (** after the first committed hmov write, shift the heap region
          base by the given delta: later accesses silently read/write
          the wrong sandbox memory (the planted injector bug) *)
  | Region_corrupt_canary
      (** once HFI is enabled, point the heap region at the canary
          page: the next heap access escapes the sandbox untrapped *)

let fill_canary mem =
  let rec go off =
    if off < canary_len then begin
      Addr_space.poke mem ~addr:(canary_base + off) ~bytes:8 canary_word;
      go (off + 8)
    end
  in
  go 0

let canary_intact mem =
  let rec go off =
    off >= canary_len
    || Addr_space.peek mem ~addr:(canary_base + off) ~bytes:8 = canary_word
       && go (off + 8)
  in
  go 0

let heap_size_of (m : Wasm_ir.module_) = max 65536 (m.Wasm_ir.memory_pages * 65536)

(* Instantiate, map + fill the canary page (outside every region the
   runtime configures), run on the architectural interpreter with the
   injection hook in the observe callback, classify. *)
let run_machine ?(injection = No_injection) ~strategy (m : Wasm_ir.module_) =
  let inst = Instance.instantiate ~strategy (Wasm_compile.workload m) in
  let machine = Instance.machine inst in
  let mem = Machine.mem machine in
  let hfi = Instance.hfi inst in
  Addr_space.mmap mem ~addr:canary_base ~len:canary_len Perm.rw;
  fill_canary mem;
  let count = ref 0 in
  let fired = ref false in
  let inject_heap_region region =
    Hfi.inject_region hfi ~slot:Layout.heap_region_slot (Some region)
  in
  let observe _ (ev : Machine.event) =
    incr count;
    if not !fired then
      match injection with
      | No_injection -> ()
      | Region_rewrite at ->
        if !count >= at && Hfi.enabled hfi then begin
          fired := true;
          inject_heap_region (Layout.heap_region ~size:(heap_size_of m))
        end
      | Region_corrupt_shift delta ->
        if ev.Machine.has_mem && ev.Machine.mem_write && ev.Machine.mem_hmov then begin
          fired := true;
          inject_heap_region
            (Hfi_iface.Explicit_data
               {
                 base_address = Layout.heap_base + delta;
                 bound = heap_size_of m;
                 permission_read = true;
                 permission_write = true;
                 is_large_region = true;
               })
        end
      | Region_corrupt_canary ->
        if Hfi.enabled hfi then begin
          fired := true;
          inject_heap_region
            (Hfi_iface.Explicit_data
               {
                 base_address = canary_base - 16;
                 bound = canary_len;
                 permission_read = true;
                 permission_write = true;
                 is_large_region = false;
               })
        end
  in
  let status = Machine.run ~fuel:machine_fuel machine observe in
  let outcome =
    Wasm_compile.classify ~results:(Wasm_compile.start_results m)
      ~rax:(Instance.result_rax inst) status
  in
  (outcome, canary_intact mem, Machine.last_fault machine)

(* Sliced cycle-accurate run that flushes the dTLB or d-cache mid-run:
   microarchitectural state must never change an architectural
   outcome. *)
let run_cycle_with_flush ~flush ~at (m : Wasm_ir.module_) =
  let inst = Instance.instantiate ~strategy:Strategy.Hfi (Wasm_compile.workload m) in
  let machine = Instance.machine inst in
  let engine = Cycle_engine.create machine in
  let status =
    match Cycle_engine.run ~fuel:at engine with
    | Machine.Running ->
      (match flush with
      | `Tlb -> Tlb.flush_all (Cycle_engine.dtlb engine)
      | `Cache -> Cache.flush_all (Cycle_engine.dcache engine));
      Cycle_engine.run ~fuel:machine_fuel engine
    | done_ -> done_
  in
  Wasm_compile.classify ~results:(Wasm_compile.start_results m)
    ~rax:(Instance.result_rax inst) status

(* ------------------------------------------------------------------ *)
(* Differential checking                                               *)
(* ------------------------------------------------------------------ *)

(* Machine-side traps carry absolute addresses (or the software-check
   sentinel 0), so out-of-bounds traps agree on kind, not payload. *)
let outcomes_agree (a : Wasm_interp.outcome) (b : Wasm_interp.outcome) =
  match (a, b) with
  | Wasm_interp.Value x, Wasm_interp.Value y -> x = y
  | Wasm_interp.No_value, Wasm_interp.No_value -> true
  | Wasm_interp.Trap ta, Wasm_interp.Trap tb -> begin
    match (ta, tb) with
    | Wasm_interp.Out_of_bounds _, Wasm_interp.Out_of_bounds _ -> true
    | Wasm_interp.Division_by_zero, Wasm_interp.Division_by_zero -> true
    | Wasm_interp.Unreachable_executed, Wasm_interp.Unreachable_executed -> true
    | Wasm_interp.Call_stack_exhausted, Wasm_interp.Call_stack_exhausted -> true
    | _ -> false
  end
  | _ -> false

let outcome_str o = Format.asprintf "%a" Wasm_interp.pp_outcome o

type stats = {
  iterations : int;
  checked : int;  (** mutants that completed the three-way comparison *)
  skipped : int;  (** non-terminating mutants discarded (interp fuel) *)
  trap_agreements : int;
  value_agreements : int;
  opt_agreements : int;
      (** programs whose optimized and reference lowerings agreed
          byte-for-byte on result/trap under both software check
          schemes *)
  benign_injections : int;
  adversarial_injections : int;
  verified : int;  (** programs the static verifier proved Safe *)
  plants : int;
  plants_detected : int;
  static_plants : int;
  static_plants_detected : int;
  violations : Fault.t list;
}

let no_stats =
  {
    iterations = 0;
    checked = 0;
    skipped = 0;
    trap_agreements = 0;
    value_agreements = 0;
    opt_agreements = 0;
    benign_injections = 0;
    adversarial_injections = 0;
    verified = 0;
    plants = 0;
    plants_detected = 0;
    static_plants = 0;
    static_plants_detected = 0;
    violations = [];
  }

let violation ~point detail =
  Fault.make (Fault.Injected { point; detail })

(* The negative-control module: store a recognizable pattern, read it
   back. Any silent region corruption shows up as a wrong value or a
   dirty canary. *)
let detector_pattern = 0x5A17E5
let detector_module =
  Wasm_ir.module_ ~start:0
    [|
      Wasm_ir.func ~name:"detect" ~results:1
        [
          Wasm_ir.Const 16;
          Wasm_ir.Const detector_pattern;
          Wasm_ir.Store { bytes = 8; offset = 0 };
          Wasm_ir.Const 16;
          Wasm_ir.Load { bytes = 8; offset = 0 };
        ];
    |]

(* ------------------------------------------------------------------ *)
(* Static verification oracle                                          *)
(* ------------------------------------------------------------------ *)

let verify_strategies = [ Strategy.Hfi; Strategy.Bounds_checks ]

(* The compiled form of a generated module must verify Safe: every heap
   access the compiler emits is guarded (bounds-checks) or confined by
   the sandbox regions (HFI), and the generator emits no indirect
   control flow. A non-Safe verdict is a verifier false positive or a
   compiler hole — either way a bug worth failing loudly on. *)
let verify_generated ~add_violation i (m : Wasm_ir.module_) =
  let wl = Wasm_compile.workload m in
  List.for_all
    (fun strategy ->
      let r = Verify.verify_workload ~strategy wl in
      match r.Vreport.verdict with
      | Vreport.Safe -> true
      | v ->
        add_violation
          (violation ~point:"static-verifier"
             (Printf.sprintf "iter %d: %s verdict on a generator program under %s:\n%s" i
                (Vreport.verdict_name v) (Strategy.to_string strategy) (Vreport.to_string r)));
        false)
    verify_strategies

(* The static negative control: from *inside* the hybrid sandbox,
   repoint the heap region at the canary page and store through it.
   [exec_set_region] does not trap in a hybrid sandbox, so the store
   really lands on the canary — an isolation escape only the static
   verifier sees coming. *)
let escape_region : Hfi_iface.region =
  Hfi_iface.Explicit_data
    {
      base_address = canary_base - 16;
      bound = canary_len + 16;
      permission_read = true;
      permission_write = true;
      is_large_region = false;
    }

let escape_workload =
  Instance.workload ~name:"region-escape" (fun c ->
      let module Codegen = Hfi_wasm.Codegen in
      Codegen.emit c (Instr.Hfi_set_region (Layout.heap_region_slot, escape_region));
      Codegen.emit c
        (Instr.Hstore
           (Layout.heap_hmov_region, Instr.W8, Instr.mem ~disp:16 (), Instr.Imm 0xDEAD));
      Codegen.emit c (Instr.Mov (Reg.RAX, Instr.Imm 0)))

(* True iff (a) the verifier reports Unsafe and the violation names the
   in-sandbox region write, and (b) the escape is real: running the
   program corrupts the canary without a trap. *)
let static_plant_detected () =
  let r = Verify.verify_workload ~strategy:Strategy.Hfi escape_workload in
  let flagged =
    match r.Vreport.verdict with
    | Vreport.Unsafe vs ->
      List.exists
        (fun (v : Vreport.violation) ->
          v.Vreport.property = Vreport.Hfi_invariant
          && v.Vreport.detail = "region register written inside the sandbox")
        vs
    | _ -> false
  in
  let inst = Instance.instantiate ~strategy:Strategy.Hfi escape_workload in
  let machine = Instance.machine inst in
  let mem = Machine.mem machine in
  Addr_space.mmap mem ~addr:canary_base ~len:canary_len Perm.rw;
  fill_canary mem;
  let status = Machine.run ~fuel:machine_fuel machine (fun _ _ -> ()) in
  flagged && status = Machine.Halted && not (canary_intact mem)

(* Run one planted-corruption experiment; true iff the checker caught
   it (wrong value, trap, or canary hit). *)
let plant_detected injection =
  let outcome, canary_ok, _ = run_machine ~injection ~strategy:Strategy.Hfi detector_module in
  (not canary_ok)
  ||
  match outcome with
  | Wasm_interp.Value v -> v <> detector_pattern
  | Wasm_interp.No_value | Wasm_interp.Trap _ -> true

(* Scheduled injections, keyed by the iteration they fire in. *)
let injection_table ~seed ~iters =
  let injector = Fault_inject.create ~seed:(seed lxor 0x5EED) in
  let plan =
    Fault_inject.plan injector ~points:Fault_inject.all_points ~steps:iters ~rate:0.15
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (inj : Fault_inject.injection) ->
      Hashtbl.replace tbl inj.Fault_inject.step
        (inj :: (Option.value ~default:[] (Hashtbl.find_opt tbl inj.Fault_inject.step))))
    plan;
  tbl

(* ------------------------------------------------------------------ *)
(* Sharded campaigns: iterations are split into fixed-size shards, each
   with its own PRNG stream and injection plan seeded by a sequential
   draw off the master seed. The shard decomposition depends only on
   [iters] — never on the job count — and [Pool.map] returns results in
   input order, so the merged aggregate is a pure function of
   [(seed, iters)]: jobs=1 and jobs=N produce byte-identical stats.
   Shards share no mutable simulator state (each iteration instantiates
   fresh machines; lib/obs counters are atomics that accumulate across
   domains), which is what makes the domain fan-out sound. *)

let shard_len = 50

type shard = { shard_seed : int; iter_base : int; shard_iters : int }

let shards ~seed ~iters =
  let master = Prng.create ~seed in
  let rec go k acc =
    let base = k * shard_len in
    if base >= iters then List.rev acc
    else
      (* Drawn sequentially so shard k's seed never depends on how many
         shards run or where. *)
      let shard_seed = Prng.next master in
      go (k + 1)
        ({ shard_seed; iter_base = base; shard_iters = min shard_len (iters - base) } :: acc)
  in
  go 0 []

let merge_stats a b =
  {
    iterations = a.iterations + b.iterations;
    checked = a.checked + b.checked;
    skipped = a.skipped + b.skipped;
    trap_agreements = a.trap_agreements + b.trap_agreements;
    value_agreements = a.value_agreements + b.value_agreements;
    opt_agreements = a.opt_agreements + b.opt_agreements;
    benign_injections = a.benign_injections + b.benign_injections;
    adversarial_injections = a.adversarial_injections + b.adversarial_injections;
    verified = a.verified + b.verified;
    plants = a.plants + b.plants;
    plants_detected = a.plants_detected + b.plants_detected;
    static_plants = a.static_plants + b.static_plants;
    static_plants_detected = a.static_plants_detected + b.static_plants_detected;
    violations = a.violations @ b.violations;
  }

(* One shard of the campaign; [i] below is the global iteration index,
   so violation messages read the same regardless of sharding. *)
let run_shard { shard_seed; iter_base; shard_iters } =
  let rng = Prng.create ~seed:shard_seed in
  let injections = injection_table ~seed:shard_seed ~iters:shard_iters in
  let s = ref { no_stats with iterations = shard_iters } in
  let add_violation f = s := { !s with violations = f :: !s.violations } in
  for local = 0 to shard_iters - 1 do
    let i = iter_base + local in
    (* Fresh program, then a mutant half the time. *)
    let m0 = generate rng in
    let m = if Prng.bool rng then mutate rng m0 else m0 in
    (match Wasm_validate.validate m with
    | Error e ->
      (* The generator/mutator promised shape-preservation; a rejected
         module is a harness bug, not a modeled fault. *)
      raise
        (Fault.Simulator_bug
           (Format.asprintf "fuzz: generated module failed validation: %a"
              Wasm_validate.pp_error e))
    | Ok () -> ());
    match Wasm_interp.run ~fuel:interp_fuel m with
    | exception Wasm_interp.Out_of_fuel -> s := { !s with skipped = !s.skipped + 1 }
    | reference ->
      (* Three-way differential: interpreter vs HFI vs software bounds
         checks. The HFI leg carries the canary page. *)
      let hfi_outcome, canary_ok, _ = run_machine ~strategy:Strategy.Hfi m in
      let sw_outcome, _ = Wasm_compile.run ~strategy:Strategy.Bounds_checks m in
      let record backend got =
        if outcomes_agree reference got then
          match reference with
          | Wasm_interp.Trap _ -> s := { !s with trap_agreements = !s.trap_agreements + 1 }
          | _ -> s := { !s with value_agreements = !s.value_agreements + 1 }
        else
          add_violation
            (violation ~point:"differential"
               (Printf.sprintf "iter %d: %s disagrees: interp=%s %s=%s" i backend
                  (outcome_str reference) backend (outcome_str got)))
      in
      record "hfi" hfi_outcome;
      record "bounds-checks" sw_outcome;
      (* Opt-vs-reference differential: the same module compiled with
         the optimizing middle-end forced on and forced off must agree
         on result and trap kind under both software check schemes —
         translation validation by execution, independent of what
         HFI_WASM_OPT says in the environment. Masking has no trap
         semantics — a module that traps under the reference semantics
         may legitimately spin in-bounds under masking until the engine
         fuel runs dry — so, like the wasm-ir differential, the masking
         leg only compares modules whose reference outcome is not a
         trap. *)
      let opt_strategies =
        match reference with
        | Wasm_interp.Trap _ -> [ Strategy.Bounds_checks ]
        | _ -> [ Strategy.Bounds_checks; Strategy.Masking ]
      in
      let opt_ok =
        List.for_all
          (fun strategy ->
            let opt_o, _ = Wasm_compile.run ~strategy ~optimize:true m in
            let ref_o, _ = Wasm_compile.run ~strategy ~optimize:false m in
            outcomes_agree ref_o opt_o
            ||
            (add_violation
               (violation ~point:"opt-differential"
                  (Printf.sprintf "iter %d: %s optimized lowering diverged: ref=%s opt=%s" i
                     (Strategy.to_string strategy) (outcome_str ref_o) (outcome_str opt_o)));
             false))
          opt_strategies
      in
      if opt_ok then s := { !s with opt_agreements = !s.opt_agreements + 1 };
      if not canary_ok then
        add_violation
          (violation ~point:"canary" (Printf.sprintf "iter %d: canary page modified" i));
      if verify_generated ~add_violation i m then s := { !s with verified = !s.verified + 1 };
      s := { !s with checked = !s.checked + 1 };
      (* Scheduled fault injections for this iteration. *)
      List.iter
        (fun (inj : Fault_inject.injection) ->
          match inj.Fault_inject.point with
          | Fault_inject.Region_register ->
            (* Benign: rewrite the heap region with its own value
               mid-run; the outcome must not move. *)
            let at = 1 + (inj.Fault_inject.payload mod 64) in
            let got, canary_ok, _ =
              run_machine ~injection:(Region_rewrite at) ~strategy:Strategy.Hfi m
            in
            s := { !s with benign_injections = !s.benign_injections + 1 };
            if not (outcomes_agree hfi_outcome got && canary_ok) then
              add_violation
                (violation ~point:"region-register"
                   (Printf.sprintf "iter %d: benign region rewrite changed outcome: %s -> %s"
                      i (outcome_str hfi_outcome) (outcome_str got)))
          | Fault_inject.Tlb_state | Fault_inject.Cache_state ->
            let flush =
              if inj.Fault_inject.point = Fault_inject.Tlb_state then `Tlb else `Cache
            in
            let at = 50 + (inj.Fault_inject.payload mod 500) in
            let got = run_cycle_with_flush ~flush ~at m in
            s := { !s with benign_injections = !s.benign_injections + 1 };
            if not (outcomes_agree hfi_outcome got) then
              add_violation
                (violation ~point:(Fault_inject.point_name inj.Fault_inject.point)
                   (Printf.sprintf "iter %d: mid-run flush changed outcome: %s -> %s" i
                      (outcome_str hfi_outcome) (outcome_str got)))
          | Fault_inject.Instr_stream ->
            (* Adversarial: plant an out-of-bounds load at the head of
               the start function. It must trap — under the reference
               interpreter and under HFI — and leave the canary
               untouched. *)
            let oob = mem_bytes + (inj.Fault_inject.payload mod 0x1000_0000) in
            let start = m.Wasm_ir.funcs.(m.Wasm_ir.start) in
            let planted_body =
              Wasm_ir.Const oob
              :: Wasm_ir.Load { bytes = 8; offset = 0 }
              :: Wasm_ir.Drop :: start.Wasm_ir.body
            in
            let m' =
              {
                m with
                Wasm_ir.funcs =
                  Array.mapi
                    (fun k f ->
                      if k = m.Wasm_ir.start then { f with Wasm_ir.body = planted_body }
                      else f)
                    m.Wasm_ir.funcs;
              }
            in
            let got, canary_ok, _ = run_machine ~strategy:Strategy.Hfi m' in
            s := { !s with adversarial_injections = !s.adversarial_injections + 1 };
            let trapped_oob =
              match got with Wasm_interp.Trap (Wasm_interp.Out_of_bounds _) -> true | _ -> false
            in
            if not (trapped_oob && canary_ok) then
              add_violation
                (violation ~point:"instr-stream"
                   (Printf.sprintf
                      "iter %d: injected OOB load at %#x completed untrapped (outcome %s%s)" i
                      oob (outcome_str got)
                      (if canary_ok then "" else ", canary modified"))))
        (Option.value ~default:[] (Hashtbl.find_opt injections local))
  done;
  { !s with violations = List.rev !s.violations }

let campaign ?(plant = false) ?jobs ~seed ~iters () =
  let per_shard = Hfi_util.Pool.map ?jobs run_shard (shards ~seed ~iters) in
  let s = ref (List.fold_left merge_stats no_stats per_shard) in
  (* Negative control: the planted injector bug — region base corrupted
     without a trap — must be caught by the same checks. Runs once per
     campaign, after the merge, on the calling domain. *)
  if plant then begin
    let variants = [ Region_corrupt_canary; Region_corrupt_shift 0x2000 ] in
    List.iter
      (fun injection ->
        s := { !s with plants = !s.plants + 1 };
        if plant_detected injection then
          s := { !s with plants_detected = !s.plants_detected + 1 })
      variants;
    s := { !s with static_plants = !s.static_plants + 1 };
    if static_plant_detected () then
      s := { !s with static_plants_detected = !s.static_plants_detected + 1 }
  end;
  (* Per-shard violation lists are already in program order; the merge
     concatenated them in shard order. *)
  !s

(* ------------------------------------------------------------------ *)
(* Registry entry                                                      *)
(* ------------------------------------------------------------------ *)

let default_seed = 0xC0FFEE

(* CLI-configurable knobs (hfi_cli --fuzz-seed/--fuzz-iters). *)
let config = ref (None : (int option * int option) option)

let configure ~seed ~iters = config := Some (seed, iters)

let run ?(quick = false) () =
  let seed, iters =
    let s, n = match !config with Some c -> c | None -> (None, None) in
    ( Option.value ~default:default_seed s,
      (* A few % of mutants are discarded as non-terminating, so 1500
         keeps the checked count comfortably above 1000 in full mode. *)
      Option.value ~default:(if quick then 200 else 1500) n )
  in
  let stats = campaign ~plant:true ~seed ~iters () in
  let nviol = List.length stats.violations in
  let table =
    Hfi_util.Table.render
      ~header:[ "check"; "count"; "result" ]
      [
        [
          "differential (interp vs hfi vs bounds-checks)";
          string_of_int stats.checked;
          Printf.sprintf "%d value + %d trap agreements"
            stats.value_agreements stats.trap_agreements;
        ]
        ;
        [
          "optimized vs reference lowering (bounds-checks + masking)";
          string_of_int stats.opt_agreements;
          "identical results and traps";
        ];
        [
          "benign injections (region rewrite, tlb/cache flush)";
          string_of_int stats.benign_injections;
          "outcome unchanged";
        ];
        [
          "adversarial injections (planted OOB access)";
          string_of_int stats.adversarial_injections;
          "all trapped";
        ];
        [
          "static verification (hfi + bounds-checks)";
          string_of_int stats.verified;
          "all safe";
        ];
        [
          "planted region corruption (negative control)";
          string_of_int stats.plants;
          Printf.sprintf "%d/%d detected" stats.plants_detected stats.plants;
        ];
        [
          "in-sandbox region write (static negative control)";
          string_of_int stats.static_plants;
          Printf.sprintf "%d/%d unsafe + canary hit" stats.static_plants_detected
            stats.static_plants;
        ];
        [ "non-terminating mutants skipped"; string_of_int stats.skipped; "-" ];
        [ "isolation violations"; string_of_int nviol; (if nviol = 0 then "none" else "FAIL") ];
      ]
  in
  (* An untrapped escape or an undetected plant is a simulator bug, not
     a result to report politely. *)
  if nviol > 0 then
    raise
      (Fault.Simulator_bug
         (Printf.sprintf "fuzz: %d isolation violation(s); first: %s" nviol
            (Fault.to_string (List.hd stats.violations))));
  if stats.plants_detected <> stats.plants then
    raise
      (Fault.Simulator_bug
         (Printf.sprintf "fuzz: planted region corruption went undetected (%d/%d)"
            stats.plants_detected stats.plants));
  if stats.static_plants_detected <> stats.static_plants then
    raise
      (Fault.Simulator_bug
         (Printf.sprintf
            "fuzz: static negative control missed (%d/%d): in-sandbox region write \
             not flagged Unsafe or escape did not reach the canary"
            stats.static_plants_detected stats.static_plants));
  {
    Report.id = "fuzz";
    data = [];
    title = "differential fuzzing + fault injection";
    paper_claim =
      "HFI bounds every sandbox access: no out-of-region access completes untrapped, \
       and traps agree with Wasm semantics (SS3-4)";
    table;
    verdict =
      Printf.sprintf
        "seed %#x: %d mutated programs, 0 violations; %d opt==ref; %d verified safe; %d \
         benign + %d adversarial injections; planted corruption detected %d/%d (+%d/%d \
         static)"
        seed stats.checked stats.opt_agreements stats.verified stats.benign_injections
        stats.adversarial_injections stats.plants_detected stats.plants
        stats.static_plants_detected stats.static_plants;
  }
