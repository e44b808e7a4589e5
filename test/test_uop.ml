(* The µop decode layer (lib/pipeline/uop.ml): pre-decoded metadata must
   agree with the Instr functions it mirrors, and µop dispatch must be
   observationally identical to the reference AST interpreter:
   bit-identical modeled cycles, registers, and status on both engines
   (this is what makes HFI_DECODE_CACHE a pure performance switch). *)

open Hfi_isa
open Hfi_pipeline
module Instance = Hfi_wasm.Instance
module Strategy = Hfi_sfi.Strategy
module Sightglass = Hfi_workloads.Sightglass

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let exact_float = Alcotest.(check (float 0.0))

type tier = Ast | Uop_dispatch

let tier_name = function Ast -> "ast" | Uop_dispatch -> "uop"
let tiers = [ Ast; Uop_dispatch ]

let with_tier tier f =
  let saved = !Machine.decode_dispatch in
  Machine.decode_dispatch := (tier = Uop_dispatch);
  Fun.protect ~finally:(fun () -> Machine.decode_dispatch := saved) f

let test_dispatch_tier_names () =
  List.iter
    (fun t ->
      Alcotest.(check string)
        "dispatch_tier reflects the flag" (tier_name t)
        (with_tier t Machine.dispatch_tier))
    tiers

(* Every Sightglass kernel under every strategy: a varied mix of loads,
   stores, hmovs, bounds checks, transitions, calls, and branches. *)
let sample_instances () =
  List.concat_map
    (fun (name, w) ->
      List.map
        (fun s ->
          (Printf.sprintf "%s/%s" name (Strategy.to_string s),
           Instance.instantiate ~strategy:s w))
        Strategy.all)
    Sightglass.all

let test_decode_metadata () =
  List.iter
    (fun (name, inst) ->
      let m = Instance.machine inst in
      let prog = Instance.program inst in
      let code_base = Machine.code_base m in
      let uops, layout = Uop.decode_fresh prog ~code_base in
      let block_last = layout.Uop.block_last and fetch_addr = layout.Uop.fetch_addr in
      let n = Array.length uops in
      check_int (name ^ ": count") (Program.length prog) n;
      check_int (name ^ ": layout block_last count") n (Array.length block_last);
      check_int (name ^ ": layout fetch_addr count") n (Array.length fetch_addr);
      let addr = ref code_base in
      Array.iteri
        (fun i (u : Uop.t) ->
          let ins = u.Uop.instr in
          (* a µop has no index of its own: position [i] holds the µop of
             instruction [i] *)
          check_bool (name ^ ": index") true (ins = Program.get prog i);
          check_int (name ^ ": length") (Instr.length ins) u.Uop.length;
          check_int (name ^ ": fetch_addr") !addr fetch_addr.(i);
          check_int (name ^ ": addr_of_index") (Machine.addr_of_index m i) fetch_addr.(i);
          addr := !addr + u.Uop.length;
          let idxs l = List.map Reg.index l in
          Alcotest.(check (list int))
            (name ^ ": reads") (idxs (Instr.reads ins)) (Array.to_list u.Uop.reads);
          Alcotest.(check (list int))
            (name ^ ": writes") (idxs (Instr.writes ins)) (Array.to_list u.Uop.writes);
          check_bool (name ^ ": block_last in range") true
            (block_last.(i) >= i && block_last.(i) < n);
          (* A branch can leave the block, so it must end one. *)
          if Instr.is_branch ins then check_int (name ^ ": branch ends block") i block_last.(i);
          (* Instructions inside a block share its last index. *)
          if i < block_last.(i) then
            check_int (name ^ ": shared block_last") block_last.(i) block_last.(i + 1))
        uops)
    (sample_instances ())

(* Every Sightglass and SPEC-like program under all four strategies,
   reference lowering: (name, program), built once for the decode
   tests below. *)
let program_corpus =
  lazy
    (let spec =
       List.map
         (fun (p : Hfi_workloads.Spec.profile) ->
           (p.Hfi_workloads.Spec.name, Hfi_workloads.Spec.workload p))
         Hfi_workloads.Spec.profiles
     in
     List.concat_map
       (fun (name, w) ->
         List.map
           (fun s ->
             ( Printf.sprintf "%s/%s" name (Strategy.to_string s),
               Instance.build_program ~strategy:s ~optimize:false w ))
           Strategy.all)
       (Sightglass.all @ spec))

let code_base = Hfi_wasm.Layout.code_base

(* Decode builds the register arrays without going through lists and
   shares the empty and one-register ones between µops. Every program
   of the corpus must still decode to exactly [Instr.reads]/
   [Instr.writes]; the first program is checked again after all the
   others, so a decode that wrote into a shared array would show up
   there. *)
let test_decode_register_arrays () =
  let expect regs = Array.of_list (List.map Reg.index regs) in
  let check name (uops : Uop.t array) =
    Array.iteri
      (fun i (u : Uop.t) ->
        if u.Uop.reads <> expect (Instr.reads u.Uop.instr) then
          Alcotest.failf "%s: instr %d: reads differ from Instr.reads" name i;
        if u.Uop.writes <> expect (Instr.writes u.Uop.instr) then
          Alcotest.failf "%s: instr %d: writes differ from Instr.writes" name i)
      uops
  in
  let cells = Lazy.force program_corpus in
  let decode_cell (name, prog) = (name, fst (Uop.decode_fresh prog ~code_base)) in
  let first_name, first = decode_cell (List.hd cells) in
  check first_name first;
  List.iter (fun c -> let name, uops = decode_cell c in check name uops) (List.tl cells);
  check (first_name ^ " (again)") first;
  check_int "cells"
    (4 * (List.length Sightglass.all + List.length Hfi_workloads.Spec.profiles))
    (List.length cells)

(* One µop per distinct instruction: structurally equal instructions,
   wherever they sit, decode to the physically same record, and each
   record is its own instruction's, so unequal instructions never share.
   Every program of the corpus; the SPEC-like ones must actually share. *)
let test_decode_shares_equal_instrs () =
  let shared = ref 0 in
  List.iter
    (fun (name, prog) ->
      let uops, _ = Uop.decode_fresh prog ~code_base in
      let first = Hashtbl.create 1024 in
      Array.iteri
        (fun i (u : Uop.t) ->
          let ins = Program.get prog i in
          if u.Uop.instr <> ins then Alcotest.failf "%s: #%d holds another instruction's µop" name i;
          match Hashtbl.find_opt first ins with
          | Some (j, v) ->
            if v != u then Alcotest.failf "%s: #%d and #%d are equal but decode apart" name j i
          | None -> Hashtbl.add first ins (i, u))
        uops;
      if Hashtbl.length first < Array.length uops then incr shared)
    (Lazy.force program_corpus);
  check_bool "programs whose decode shares records" true
    (!shared >= 4 * List.length Hfi_workloads.Spec.profiles)

(* [carry] over a rebuilt program: every third instruction dropped, a
   structurally equal copy (not physically the same) at every fifth, a
   new instruction before every eleventh. The carried memo is
   structurally a fresh decode, every kept instruction keeps its source
   µop physically (copies included), and new instructions get their
   own. *)
let test_carry_shares_source () =
  List.iter
    (fun (name, prog) ->
      let src = Uop.decode prog ~code_base in
      let out = ref [] in
      Array.iteri
        (fun i ins ->
          if i mod 11 = 4 then out := (Instr.Mov (Reg.RAX, Instr.Imm i), -1) :: !out;
          if i mod 3 <> 2 then begin
            let ins =
              if i mod 5 = 0 then (Marshal.from_string (Marshal.to_string ins []) 0 : Instr.t)
              else ins
            in
            out := (ins, i) :: !out
          end)
        (Program.instrs prog);
      let instrs, origin = List.split (List.rev !out) in
      let rebuilt = Program.of_instrs (Array.of_list instrs) in
      let origin = Array.of_list origin in
      Uop.carry src ~origin rebuilt ~code_base;
      match Uop.memoized rebuilt ~code_base with
      | None -> Alcotest.failf "%s: carry left no memo" name
      | Some uops ->
        if (uops, Uop.layout rebuilt ~code_base) <> Uop.decode_fresh rebuilt ~code_base then
          Alcotest.failf "%s: carried decode differs from a fresh one" name;
        Array.iteri
          (fun j o ->
            if o >= 0 && uops.(j) != src.(o) then
              Alcotest.failf "%s: kept #%d (source #%d) does not share its µop" name j o;
            if o < 0 && uops.(j).Uop.instr != Program.get rebuilt j then
              Alcotest.failf "%s: new #%d not lowered from itself" name j)
          origin)
    (Lazy.force program_corpus)

(* A compactness pin: 445.gobmk under HFI, the largest decode, takes at
   most 8 words per instruction beyond its [Program.instrs], µop
   records, µop array and layout included (one word per position for
   the array and one each for the two layout arrays, the rest shared
   records). *)
let test_decode_compact () =
  let prog = List.assoc "445.gobmk/hfi" (Lazy.force program_corpus) in
  let instrs = Program.instrs prog in
  let uops, layout = Uop.decode_fresh prog ~code_base in
  let words =
    Obj.reachable_words (Obj.repr (instrs, uops, layout)) - Obj.reachable_words (Obj.repr instrs)
  in
  let per_instr = float_of_int words /. float_of_int (Array.length instrs) in
  check_bool (Printf.sprintf "%.2f words per instruction <= 8" per_instr) true (per_instr <= 8.0)

let test_decode_memoized () =
  let inst = Instance.instantiate ~strategy:Strategy.Hfi (Sightglass.find "gimli") in
  let prog = Instance.program inst in
  let code_base = Machine.code_base (Instance.machine inst) in
  let a = Uop.decode prog ~code_base in
  let b = Uop.decode prog ~code_base in
  check_bool "same physical array" true (a == b);
  check_bool "same physical layout" true (Uop.layout prog ~code_base == Uop.layout prog ~code_base)

(* The read-only control-flow view (flow_of/static_successors/
   the layout's block heads) must agree with the reference AST
   interpreter: every
   transition between committed instructions is one the static view
   predicts — a static successor where the flow is static, a block head
   where it is indirect. Runs on every example program under every
   strategy. *)
let test_static_successors_agree () =
  List.iter
    (fun (name, inst) ->
      let m = Instance.machine inst in
      let prog = Instance.program inst in
      let uops = Uop.decode prog ~code_base:(Machine.code_base m) in
      let layout = Uop.layout prog ~code_base:(Machine.code_base m) in
      let rec head_of j = if Uop.is_block_head layout j then j else head_of (j - 1) in
      (* previous committed instruction, or -1 at the start and after a
         delivered signal: that transition is the kernel's, not the
         program's *)
      let prev = ref (-1) in
      (* one event per executed instruction: fail on a mismatch only, so
         the log stays small *)
      let check what ok = if not ok then Alcotest.failf "%s" (what ()) in
      let observe (_ : Uop.t) (ev : Machine.event) =
        let j = ev.Machine.index in
        (if !prev >= 0 then
           let i = !prev in
           match Uop.flow_of uops.(i) with
           | Uop.Indirect_jump | Uop.Indirect_call | Uop.Return ->
             check
               (fun () -> Printf.sprintf "%s: #%d indirect/ret lands on a block head" name i)
               (Uop.is_block_head layout j)
           | Uop.Stop -> Alcotest.failf "%s: executed past halt at #%d" name i
           | _ ->
             check
               (fun () -> Printf.sprintf "%s: #%d -> #%d statically predicted" name i j)
               (List.mem j (Uop.static_successors uops i)));
        prev := if ev.Machine.signalled then -1 else j;
        let h = head_of j in
        check
          (fun () -> Printf.sprintf "%s: #%d head #%d is a head at or before it" name j h)
          (h <= j && Uop.is_block_head layout h && layout.Uop.block_last.(h) >= j)
      in
      match Machine.run ~fuel:30_000_000 m observe with
      | Machine.Running -> Alcotest.failf "%s: out of fuel" name
      | Machine.Halted | Machine.Faulted _ -> ())
    (sample_instances ())

(* Fast engine: cycles, rax, and status identical on both tiers, with
   the AST interpreter as the reference. *)
let test_fast_engine_equivalence () =
  List.iter
    (fun (name, w) ->
      List.iter
        (fun s ->
          let run () =
            let inst = Instance.instantiate ~strategy:s w in
            let cycles, status = Instance.run_fast inst in
            (cycles, status, Instance.result_rax inst)
          in
          let c_ref, st_ref, rax_ref = with_tier Ast run in
          List.iter
            (fun t ->
              let c, st, rax = with_tier t run in
              let id =
                Printf.sprintf "%s/%s/%s" name (Strategy.to_string s) (tier_name t)
              in
              check_bool (id ^ ": status") true (st = st_ref);
              check_int (id ^ ": rax") rax_ref rax;
              exact_float (id ^ ": fast cycles") c_ref c)
            [ Uop_dispatch ])
        Strategy.all)
    Sightglass.all

(* Cycle engine: every counter of the result record must match exactly,
   not just total cycles — the dynamic hooks (caches, TLB, predictor,
   wrong-path speculation) fire identically per committed instruction. *)
let test_cycle_engine_equivalence () =
  List.iter
    (fun (name, w) ->
      List.iter
        (fun s ->
          let run () =
            let inst = Instance.instantiate ~strategy:s w in
            (Instance.run_cycle inst, Instance.result_rax inst)
          in
          let r_ref, rax_ref = with_tier Ast run in
          List.iter
            (fun t ->
              let r, rax = with_tier t run in
              let id =
                Printf.sprintf "%s/%s/%s" name (Strategy.to_string s) (tier_name t)
              in
              exact_float (id ^ ": cycles") r_ref.Cycle_engine.cycles r.Cycle_engine.cycles;
              check_int (id ^ ": instrs") r_ref.Cycle_engine.instrs r.Cycle_engine.instrs;
              check_int (id ^ ": icache") r_ref.Cycle_engine.icache_misses r.Cycle_engine.icache_misses;
              check_int (id ^ ": dcache") r_ref.Cycle_engine.dcache_misses r.Cycle_engine.dcache_misses;
              check_int (id ^ ": dtlb") r_ref.Cycle_engine.dtlb_misses r.Cycle_engine.dtlb_misses;
              check_int (id ^ ": cond-mispredicts") r_ref.Cycle_engine.cond_mispredicts
                r.Cycle_engine.cond_mispredicts;
              check_int (id ^ ": indirect-mispredicts") r_ref.Cycle_engine.indirect_mispredicts
                r.Cycle_engine.indirect_mispredicts;
              check_int (id ^ ": drains") r_ref.Cycle_engine.drains r.Cycle_engine.drains;
              check_int (id ^ ": transient") r_ref.Cycle_engine.transient_instrs
                r.Cycle_engine.transient_instrs;
              check_bool (id ^ ": status") true
                (r.Cycle_engine.status = r_ref.Cycle_engine.status);
              check_int (id ^ ": rax") rax_ref rax)
            [ Uop_dispatch ])
        Strategy.all)
    Sightglass.all

(* Fig. 3 synthetic SPEC profiles on the cycle engine: the exact floats
   that feed the paper's headline table must not move with the dispatch
   mode. *)
let test_fig3_equivalence () =
  let profiles = List.filteri (fun k _ -> k < 2) Hfi_workloads.Spec.profiles in
  List.iter
    (fun p ->
      List.iter
        (fun s ->
          let run () = Hfi_experiments.Fig3_spec.run_one s p ~iters_divisor:16 in
          let reference = with_tier Ast run in
          List.iter
            (fun t ->
              exact_float
                (Printf.sprintf "%s/%s/%s" p.Hfi_workloads.Spec.name
                   (Strategy.to_string s) (tier_name t))
                reference (with_tier t run))
            [ Uop_dispatch ])
        Strategy.all)
    profiles

(* Seeded differential fuzzing: generated Wasm modules, compiled under a
   rotating strategy, must produce the same outcome and the same modeled
   cycles on both tiers. *)
let test_fuzz_differential () =
  let outcome_t = Alcotest.testable Hfi_wasm.Wasm_interp.pp_outcome ( = ) in
  let rng = Hfi_util.Prng.create ~seed:0xC0FFEE in
  let strategies = Array.of_list Strategy.all in
  for k = 1 to 200 do
    let m = Hfi_experiments.Fuzz.generate rng in
    let strategy = strategies.(k mod Array.length strategies) in
    let run () = Hfi_wasm.Wasm_compile.run ~strategy m in
    let o_ref, c_ref = with_tier Ast run in
    List.iter
      (fun t ->
        let o, c = with_tier t run in
        let id = Printf.sprintf "fuzz #%d (%s, %s)" k (Strategy.to_string strategy) (tier_name t) in
        Alcotest.check outcome_t (id ^ ": outcome") o_ref o;
        exact_float (id ^ ": cycles") c_ref c)
      [ Uop_dispatch ]
  done

(* A committed event copied out of the machine's slot (which the next
   step overwrites); the static µop fields follow from [index]. *)
type event_copy = {
  index : int;
  fetch_addr : int;
  mem : Machine.access option;
  branch : Machine.branch_kind;
  taken : bool;
  target : int;
  fallthrough : int;
  serializing : bool;
  kernel_cycles : float;
  signal : Hfi_core.Msr.t option;
}

let copy_event m (_ : Uop.t) (ev : Machine.event) =
  {
    index = ev.Machine.index;
    fetch_addr = ev.Machine.fetch_addr;
    mem = Machine.access ev;
    branch = ev.Machine.branch;
    taken = ev.Machine.taken;
    target = ev.Machine.target;
    fallthrough = ev.Machine.fallthrough;
    serializing = ev.Machine.serializing;
    kernel_cycles = ev.Machine.kernel_cycles.(0);
    signal = (if ev.Machine.signalled then Machine.last_signal m else None);
  }

(* Two committed events agree; branch fields count only on a branch. *)
let same_event a b =
  a.index = b.index
  && a.fetch_addr = b.fetch_addr
  && a.mem = b.mem
  && a.branch = b.branch
  && (a.branch = Machine.No_branch
     || (a.taken = b.taken && a.target = b.target && a.fallthrough = b.fallthrough))
  && a.serializing = b.serializing
  && Float.equal a.kernel_cycles b.kernel_cycles
  && a.signal = b.signal

let final_state m = (Array.copy (Machine.regs m), Machine.status m, Machine.instr_count m)

(* Fuel-sliced resumption: the scheduler preempts through [run ~fuel],
   so a run may stop and resume anywhere, including mid-block. Driving
   the µop path in slices of k must commit exactly the event stream and
   final state of one uninterrupted AST run, and every slice that does
   not end the run must commit exactly k instructions. *)
let test_fuel_sliced_resume () =
  List.iter
    (fun (name, w) ->
      List.iter
        (fun s ->
          let fresh () = Instance.machine (Instance.instantiate ~strategy:s w) in
          let reference, ref_final =
            with_tier Ast (fun () ->
                let m = fresh () in
                let evs = ref [] in
                ignore (Machine.run m (fun u ev -> evs := copy_event m u ev :: !evs));
                (Array.of_list (List.rev !evs), final_state m))
          in
          let n = Array.length reference in
          List.iter
            (fun k ->
              let id = Printf.sprintf "%s/%s/fuel=%d" name (Strategy.to_string s) k in
              with_tier Uop_dispatch (fun () ->
                  let m = fresh () in
                  let seen = ref 0 in
                  let observe u ev =
                    if !seen >= n then Alcotest.failf "%s: ran past the reference" id;
                    if not (same_event (copy_event m u ev) reference.(!seen)) then
                      Alcotest.failf "%s: event #%d differs" id !seen;
                    incr seen
                  in
                  let rec slices () =
                    let before = !seen in
                    match Machine.run ~fuel:k m observe with
                    | Machine.Running ->
                      if !seen - before <> k then
                        Alcotest.failf "%s: slice committed %d" id (!seen - before);
                      slices ()
                    | Machine.Halted | Machine.Faulted _ -> ()
                  in
                  slices ();
                  check_int (id ^ ": events") n !seen;
                  check_bool (id ^ ": final regs, status, instr_count") true
                    (final_state m = ref_final)))
            [ 1; 2; 3; 7; 64 ])
        Strategy.all)
    Sightglass.all

(* [hfi trace] steps through [Machine.run ~fuel:1], so it shows the path
   the engines run; its rendering must not depend on that path. *)
let test_tracer_paths_agree () =
  List.iter
    (fun (name, w) ->
      List.iter
        (fun s ->
          let lines () =
            let inst = Instance.instantiate ~strategy:s w in
            List.map
              (Format.asprintf "%a" Tracer.pp_entry)
              (Tracer.trace ~limit:200 (Instance.machine inst))
          in
          let reference = with_tier Ast lines in
          check_int (name ^ ": traced 200 instructions") 200 (List.length reference);
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s: trace lines" name (Strategy.to_string s))
            reference (with_tier Uop_dispatch lines))
        Strategy.all)
    Sightglass.all

let suite =
  [
    Alcotest.test_case "dispatch_tier names the active tier" `Quick test_dispatch_tier_names;
    Alcotest.test_case "decode metadata matches Instr" `Quick test_decode_metadata;
    Alcotest.test_case "decode register arrays match Instr (Sightglass, SPEC-like)" `Quick
      test_decode_register_arrays;
    Alcotest.test_case "decode shares one µop per distinct instruction" `Quick
      test_decode_shares_equal_instrs;
    Alcotest.test_case "carry == fresh decode, sharing the source µops" `Quick
      test_carry_shares_source;
    Alcotest.test_case "decode of 445.gobmk: at most 8 words per instruction" `Quick
      test_decode_compact;
    Alcotest.test_case "decode is memoized per program" `Quick test_decode_memoized;
    Alcotest.test_case "static successors agree with execution" `Quick
      test_static_successors_agree;
    Alcotest.test_case "fast engine: all tiers identical" `Quick test_fast_engine_equivalence;
    Alcotest.test_case "cycle engine: all tiers identical" `Quick test_cycle_engine_equivalence;
    Alcotest.test_case "fig3 cycles: all tiers identical" `Slow test_fig3_equivalence;
    Alcotest.test_case "fuzz differential: all tiers" `Slow test_fuzz_differential;
    Alcotest.test_case "fuel-sliced runs match one AST run" `Quick test_fuel_sliced_resume;
    Alcotest.test_case "tracer: uop path traces like ast" `Quick test_tracer_paths_agree;
  ]
