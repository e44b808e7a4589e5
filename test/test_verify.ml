(* Static sandbox-safety verifier (lib/verify): domain lattice algebra,
   CFG edge cases, fixpoint verdicts over the Sightglass corpus, the
   planted in-sandbox region write (negative control), and the golden
   guard — verification is pure, so running it (with observability on)
   must not move a single modeled cycle. *)

open Hfi_isa
module Domain = Hfi_opt.Domain
module Cfg = Hfi_pipeline.Cfg
module Checks = Hfi_verify.Checks
module Vreport = Hfi_verify.Report
module Uop = Hfi_pipeline.Uop
module Strategy = Hfi_sfi.Strategy
module Layout = Hfi_wasm.Layout
module Instance = Hfi_wasm.Instance
module Sightglass = Hfi_workloads.Sightglass
module Obs = Hfi_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let dom = Alcotest.testable Domain.pp Domain.equal

(* concretization hull through the allocation-free views *)
let bounds d = if Domain.has_bounds d then Some (Domain.lower d, Domain.upper d) else None

(* ------------------------------------------------------------------ *)
(* Domain unit suite                                                    *)
(* ------------------------------------------------------------------ *)

let test_domain_masked () =
  (* disagreeing certain bits of a join become uncertain bits *)
  Alcotest.check dom "join folds disagreement into the mask"
    (Domain.masked ~base:0 ~mask:0x33)
    (Domain.join (Domain.masked ~base:0x10 ~mask:0x3) (Domain.masked ~base:0x20 ~mask:0x3));
  (* the normalizing constructor folds overlapping bits *)
  Alcotest.check dom "masked normalizes base bits out of the mask"
    (Domain.masked ~base:0x40 ~mask:0x0f)
    (Domain.masked ~base:0x40 ~mask:0x4f);
  check_bool "masked hull" true
    (bounds (Domain.masked ~base:0x100 ~mask:0xff) = Some (0x100, 0x1ff));
  (* And with a non-negative bitset confines ANY value — the SFI
     masking discharge, from top and even from a stack taint *)
  Alcotest.check dom "And #top confines"
    (Domain.masked ~base:0 ~mask:0xffff)
    (Domain.alu Instr.And Domain.top (Domain.const 0xffff));
  Alcotest.check dom "And stackish confines"
    (Domain.masked ~base:0 ~mask:0xffff)
    (Domain.alu Instr.And Domain.Stackish (Domain.const 0xffff));
  (* joining with an interval falls back to the hull *)
  Alcotest.check dom "masked/interval join hulls"
    (Domain.itv 0 0x200)
    (Domain.join (Domain.masked ~base:0 ~mask:0xff) (Domain.itv 0x100 0x200))

let test_domain_widen () =
  Alcotest.check dom "growing hi widens to +inf"
    (Domain.itv 0 max_int)
    (Domain.widen (Domain.itv 0 10) (Domain.itv 0 20));
  Alcotest.check dom "shrinking lo widens to -inf"
    (Domain.itv min_int 10)
    (Domain.widen (Domain.itv 0 10) (Domain.itv (-1) 10));
  Alcotest.check dom "stable interval does not widen"
    (Domain.itv 0 10)
    (Domain.widen (Domain.itv 0 10) (Domain.itv 2 8));
  (* the Masked lattice is finite: widening is just the join *)
  Alcotest.check dom "masked widens by join"
    (Domain.masked ~base:0 ~mask:0x3)
    (Domain.widen (Domain.masked ~base:0 ~mask:0x1) (Domain.masked ~base:0 ~mask:0x3))

(* Saturating arithmetic at the region boundary: overflow must never
   wrap an effective address back inside a window. *)
let test_domain_overflow_at_boundary () =
  let heap_lo = Layout.heap_base and heap_hi = Layout.heap_base + Layout.heap_max - 1 in
  (* index that would wrap past max_int saturates instead *)
  let ea = Domain.add (Domain.const max_int) (Domain.const Layout.heap_base) in
  check_bool "saturated add stays at max_int" true (bounds ea = Some (max_int, max_int));
  check_bool "saturated ea is not within the heap" false
    (Domain.within ea ~lo:heap_lo ~hi:heap_hi);
  (* a full-range index pushed to the heap base keeps the hull honest *)
  let ea = Domain.add (Domain.itv 0 max_int) (Domain.const Layout.heap_base) in
  check_bool "wide ea hull" true (bounds ea = Some (Layout.heap_base, max_int));
  check_bool "wide ea not provably confined" false (Domain.within ea ~lo:heap_lo ~hi:heap_hi);
  (* shifts and multiplies that could overflow degrade to top, they
     never produce a tight-but-wrong interval *)
  Alcotest.check dom "overflowing shl is top" Domain.top
    (Domain.alu Instr.Shl (Domain.itv 1 (1 lsl 40)) (Domain.const 30));
  Alcotest.check dom "overflowing mul is top" Domain.top
    (Domain.alu Instr.Mul (Domain.itv 0 (1 lsl 40)) (Domain.const (1 lsl 30)));
  (* in-range scaled index stays exact: the bounds-check shape *)
  Alcotest.check dom "exact scaled index"
    (Domain.itv 0 (1023 * 8))
    (Domain.alu Instr.Mul (Domain.itv 0 1023) (Domain.const 8))

let test_domain_refine () =
  (* the wasm2c bounds-check shape: jae @trap, fall edge refines Ult *)
  Alcotest.check dom "Ult refines top"
    (Domain.itv 0 99)
    (Domain.refine Instr.Ult Domain.top ~rhs:(Domain.itv 0 100));
  Alcotest.check dom "Ult cuts negatives"
    (Domain.itv 0 50)
    (Domain.refine Instr.Ult (Domain.itv (-5) 50) ~rhs:(Domain.itv 0 100));
  (* an unsigned compare against an unknown bound proves nothing *)
  Alcotest.check dom "Ult against top is a no-op" Domain.top
    (Domain.refine Instr.Ult Domain.top ~rhs:Domain.top);
  Alcotest.check dom "Lt trims the high side only"
    (Domain.itv 0 9)
    (Domain.refine Instr.Lt (Domain.itv 0 100) ~rhs:(Domain.const 10));
  Alcotest.check dom "contradiction refines to bot" Domain.Bot
    (Domain.refine Instr.Ult (Domain.itv 5 9) ~rhs:(Domain.const 0));
  (* stack taint is exempt from numeric refinement and confinement *)
  Alcotest.check dom "stackish survives meet" Domain.Stackish
    (Domain.meet_itv Domain.Stackish ~lo:0 ~hi:10);
  Alcotest.check dom "stackish + const stays stackish" Domain.Stackish
    (Domain.add Domain.Stackish (Domain.const 8));
  check_bool "stackish never provably within" false (Domain.within Domain.Stackish ~lo:min_int ~hi:max_int)

(* ------------------------------------------------------------------ *)
(* CFG edge cases                                                       *)
(* ------------------------------------------------------------------ *)

let spec = { Checks.strategy = Strategy.Guard_pages; code_base = Layout.code_base }

let build instrs =
  let prog = Program.of_instrs instrs in
  let uops, layout = Uop.decode_fresh prog ~code_base:Layout.code_base in
  (prog, Cfg.build uops layout)

let verdict_of instrs =
  let prog = Program.of_instrs instrs in
  (Checks.verify spec prog).Vreport.verdict

let test_cfg_self_loop () =
  let _, cfg = build [| Instr.Jmp 0 |] in
  check_int "one block" 1 (Array.length cfg.Cfg.blocks);
  check_bool "self edge" true (cfg.Cfg.blocks.(0).Cfg.succs = [ 0 ]);
  (* the fixpoint terminates on the cycle and proves it safe *)
  check_str "verdict" "safe"
    (Vreport.verdict_name (verdict_of [| Instr.Alu (Instr.Add, Reg.RCX, Instr.Imm 1); Instr.Jmp 0 |]))

let test_cfg_back_edge () =
  let instrs =
    [|
      Instr.Mov (Reg.RCX, Instr.Imm 0);
      Instr.Alu (Instr.Add, Reg.RCX, Instr.Imm 1);
      Instr.Cmp (Reg.RCX, Instr.Imm 10);
      Instr.Jcc (Instr.Lt, 1);
      Instr.Halt;
    |]
  in
  let _, cfg = build instrs in
  check_int "three blocks" 3 (Array.length cfg.Cfg.blocks);
  let body = cfg.Cfg.blocks.(cfg.Cfg.block_of_instr.(1)) in
  check_bool "back edge to itself" true (List.mem body.Cfg.id body.Cfg.succs);
  check_str "verdict" "safe" (Vreport.verdict_name (verdict_of instrs))

let test_cfg_unreachable_block () =
  let instrs = [| Instr.Jmp 2; Instr.Alu (Instr.Add, Reg.RAX, Instr.Imm 1); Instr.Halt |] in
  let _, cfg = build instrs in
  check_int "three blocks" 3 (Array.length cfg.Cfg.blocks);
  let r = Cfg.reachable cfg in
  check_bool "skipped block is unreachable" false r.(cfg.Cfg.block_of_instr.(1));
  check_bool "landing block is reachable" true r.(cfg.Cfg.block_of_instr.(2));
  (* unreachable code is never analyzed and never degrades the verdict *)
  check_str "verdict" "safe" (Vreport.verdict_name (verdict_of instrs))

let test_cfg_ret_without_call () =
  match verdict_of [| Instr.Ret |] with
  | Vreport.Unknown rs ->
    check_bool "names the empty call stack" true
      (List.exists (fun (r : Vreport.reason) -> r.Vreport.what = "ret reachable with an empty call stack") rs)
  | v -> Alcotest.failf "expected unknown, got %s" (Vreport.verdict_name v)

let test_cfg_ret_with_call () =
  (* call 2; halt; ret — the ret always has a frame, so no degradation *)
  check_str "verdict" "safe"
    (Vreport.verdict_name (verdict_of [| Instr.Call 2; Instr.Halt; Instr.Ret |]))

let test_cfg_indirect_unresolved () =
  (* rdtsc leaves RAX unconstrained: the indirect target set is empty *)
  match verdict_of [| Instr.Rdtsc Reg.RAX; Instr.Jmp_ind Reg.RAX |] with
  | Vreport.Unknown rs ->
    check_bool "names the unresolved branch" true
      (List.exists (fun (r : Vreport.reason) -> r.Vreport.what = "unresolved indirect branch target") rs)
  | v -> Alcotest.failf "expected unknown, got %s" (Vreport.verdict_name v)

(* Indirect jump through a constant: resolvable to a block head (safe),
   to a mid-block boundary (unknown), or to a non-boundary (unsafe). *)
let test_cfg_indirect_resolved () =
  let prog_for target =
    [| Instr.Mov (Reg.RAX, Instr.Imm target); Instr.Jmp_ind Reg.RAX; Instr.Halt |]
  in
  (* immediates are variable-length, so the target address feeds back
     into the layout: iterate to a fixed point *)
  let offset_of k target = Program.byte_offset (Program.of_instrs (prog_for target)) k in
  let rec settle k guess =
    let addr = Layout.code_base + offset_of k guess in
    if addr = guess then addr else settle k addr
  in
  let head_addr = settle 2 0 in
  let p1 = Program.of_instrs (prog_for head_addr) in
  check_int "stable layout" (head_addr - Layout.code_base) (Program.byte_offset p1 2);
  check_str "block-head target is safe" "safe"
    (Vreport.verdict_name (Checks.verify spec p1).Vreport.verdict);
  let mid_addr = settle 1 0 in
  (match (Checks.verify spec (Program.of_instrs (prog_for mid_addr))).Vreport.verdict with
  | Vreport.Unknown rs ->
    check_bool "mid-block target degrades" true
      (List.exists
         (fun (r : Vreport.reason) -> r.Vreport.what = "indirect target lands mid-block (not analyzed)")
         rs)
  | v -> Alcotest.failf "expected unknown, got %s" (Vreport.verdict_name v));
  match (Checks.verify spec (Program.of_instrs (prog_for (Layout.code_base + 1)))).Vreport.verdict with
  | Vreport.Unsafe vs ->
    check_bool "non-boundary target is a CFI violation" true
      (List.exists (fun (v : Vreport.violation) -> v.Vreport.property = Vreport.Cfi) vs)
  | v -> Alcotest.failf "expected unsafe, got %s" (Vreport.verdict_name v)

(* Direct branch out of the program: always a CFI violation. *)
let test_cfg_branch_out () =
  match verdict_of [| Instr.Jmp 99 |] with
  | Vreport.Unsafe vs ->
    check_bool "out-of-program branch" true
      (List.exists (fun (v : Vreport.violation) -> v.Vreport.property = Vreport.Cfi) vs)
  | v -> Alcotest.failf "expected unsafe, got %s" (Vreport.verdict_name v)

(* ------------------------------------------------------------------ *)
(* Corpus verdicts and the SFI discipline                               *)
(* ------------------------------------------------------------------ *)

(* Every Sightglass kernel under every strategy. The two guard-pages
   Unknowns of the old non-relational domain (base64's uncompared
   output cursor, sieve's widened multiply input) are discharged by the
   v2 relational domain — affine facts and threshold widening — so the
   corpus is all-Safe (EXPERIMENTS.md). *)
let expected_unknown : (string * Strategy.t) list = []

let test_corpus_verdicts () =
  List.iter
    (fun (name, w) ->
      List.iter
        (fun s ->
          let r = Checks.verify_workload ~strategy:s w in
          let expect = if List.mem (name, s) expected_unknown then "unknown" else "safe" in
          check_str
            (Printf.sprintf "%s/%s" name (Strategy.to_string s))
            expect
            (Vreport.verdict_name r.Vreport.verdict))
        Strategy.all)
    Sightglass.all

(* A raw store outside every sandbox window under a software scheme is
   an SFI-discipline violation, not an Unknown. *)
let test_sfi_escape_unsafe () =
  let instrs =
    [|
      Instr.Store (Instr.W8, Instr.mem ~disp:0x3000_0000 (), Instr.Imm 1);
      Instr.Halt;
    |]
  in
  match (Checks.verify { spec with Checks.strategy = Strategy.Bounds_checks }
           (Program.of_instrs instrs)).Vreport.verdict
  with
  | Vreport.Unsafe vs ->
    let v = List.hd vs in
    check_bool "sfi property" true (v.Vreport.property = Vreport.Sfi_discipline);
    check_int "names instruction 0" 0 v.Vreport.index
  | v -> Alcotest.failf "expected unsafe, got %s" (Vreport.verdict_name v)

(* ------------------------------------------------------------------ *)
(* Negative control: in-sandbox region write                            *)
(* ------------------------------------------------------------------ *)

let escape_workload =
  let region : Hfi_iface.region =
    Hfi_iface.Explicit_data
      {
        base_address = 0x3000_0000 - 16;
        bound = 4096 + 16;
        permission_read = true;
        permission_write = true;
        is_large_region = false;
      }
  in
  Instance.workload ~name:"escape" (fun c ->
      Hfi_wasm.Codegen.emit c (Instr.Hfi_set_region (Layout.heap_region_slot, region));
      Hfi_wasm.Codegen.emit c
        (Instr.Hstore (Layout.heap_hmov_region, Instr.W8, Instr.mem ~disp:16 (), Instr.Imm 0xBAD));
      Hfi_wasm.Codegen.emit c (Instr.Mov (Reg.RAX, Instr.Imm 0)))

let test_negative_control () =
  let r = Checks.verify_workload ~strategy:Strategy.Hfi escape_workload in
  match r.Vreport.verdict with
  | Vreport.Unsafe vs ->
    let v =
      try
        List.find
          (fun (v : Vreport.violation) ->
            v.Vreport.property = Vreport.Hfi_invariant
            && v.Vreport.detail = "region register written inside the sandbox")
          vs
      with Not_found -> Alcotest.fail "no region-write violation reported"
    in
    (* the violation names the offending instruction *)
    let prog = Instance.build_program ~strategy:Strategy.Hfi escape_workload in
    (match (Program.instrs prog).(v.Vreport.index) with
    | Instr.Hfi_set_region (slot, _) -> check_int "offending slot" Layout.heap_region_slot slot
    | other ->
      Alcotest.failf "violation points at %s, not the set_region" (Instr.to_string other))
  | v -> Alcotest.failf "expected unsafe, got %s" (Vreport.verdict_name v)

(* Report rendering must stay stable: the CLI, the fuzz harness, and CI
   all dispatch on these strings. *)
let test_report_format () =
  let r = Checks.verify_workload ~strategy:Strategy.Hfi (Sightglass.find "fib2") in
  check_str "verdict name" "safe" (Vreport.verdict_name r.Vreport.verdict);
  let s = Vreport.to_string r in
  check_bool "to_string carries target" true
    (String.length s >= 4 && String.sub s 0 4 = "fib2");
  let j = Vreport.to_json r in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "json verdict" true (contains {|"verdict":"safe"|} j);
  check_bool "json target" true (contains {|"target":"fib2"|} j)

(* ------------------------------------------------------------------ *)
(* Relational domain (v2): facts, thresholds, and the two discharges    *)
(* ------------------------------------------------------------------ *)

module Rel = Hfi_verify.Rel
module Vstate = Hfi_verify.Vstate
module Proof = Hfi_verify.Proof
module Proofcheck = Hfi_verify.Proofcheck
module Vcache = Hfi_verify.Verdict_cache

let ircx = Reg.index Reg.RCX
let irdi = Reg.index Reg.RDI
let no_facts () = Array.make Reg.count None
let const_regs l =
  Array.init Reg.count (fun i ->
      match List.assoc_opt i l with Some v -> Domain.const v | None -> Domain.const 0)

(* The base64 shape: between loop entry (RCX=0, RDI=16384) and the
   first back edge (RCX=1, RDI=16388) the output cursor moved 4 per
   iteration — the join must birth RDI = 4*RCX + 16384. *)
let test_rel_inference () =
  let a = const_regs [ (ircx, 0); (irdi, 16384) ] in
  let b = const_regs [ (ircx, 1); (irdi, 16388) ] in
  match Rel.join_facts irdi (no_facts ()) a (no_facts ()) b with
  | Some f ->
    check_int "base" ircx f.Rel.base;
    check_int "stride" 4 f.Rel.k;
    check_int "offset lo" 16384 f.Rel.lo;
    check_int "offset hi" 16384 f.Rel.hi
  | None -> Alcotest.fail "no fact inferred from the lockstep pair"

(* Constant increments maintain the fact by offset compensation: the
   subject's own +1 shifts the offset up, the base's +1 shifts every
   dependent fact down by its stride. *)
let test_rel_compensation () =
  let facts = no_facts () in
  facts.(irdi) <- Some { Rel.base = ircx; k = 4; lo = 16384; hi = 16384 };
  Rel.add_imm facts irdi 1;
  (match facts.(irdi) with
  | Some f -> check_int "own add shifts offset" 16385 f.Rel.lo
  | None -> Alcotest.fail "fact lost on own increment");
  Rel.add_imm facts ircx 1;
  (match facts.(irdi) with
  | Some f -> check_int "base add compensates -k" (16385 - 4) f.Rel.lo
  | None -> Alcotest.fail "fact lost on base increment");
  (* a non-affine write to the base kills dependents *)
  Rel.kill facts ircx;
  check_bool "dependent fact killed" true (facts.(irdi) = None)

(* tighten concretizes the fact at a use site: RDI itself may have
   widened to top, but 4*[0,1023] + 16384 pins the store address. *)
let test_rel_tighten_and_refine () =
  let facts = no_facts () in
  facts.(irdi) <- Some { Rel.base = ircx; k = 4; lo = 16384; hi = 16384 };
  let regs = Array.make Reg.count (Domain.const 0) in
  regs.(ircx) <- Domain.itv 0 1023;
  regs.(irdi) <- Domain.top;
  Alcotest.check dom "tighten pins the cursor"
    (Domain.itv 16384 (16384 + (4 * 1023)))
    (Rel.tighten facts regs irdi);
  (* the sieve shape backwards: cmp on RDX = 2*RCX bounds RCX too *)
  let f = { Rel.base = ircx; k = 2; lo = 0; hi = 0 } in
  Alcotest.check dom "branch refinement flows to the base"
    (Domain.itv 2 4095)
    (Rel.refine_base f ~refined:(Domain.itv 4 8191) (Domain.itv 2 10_000))

let test_rel_threshold_widening () =
  let thresholds = [| 0; 1024; 8192 |] in
  (* a growing bound parks at the nearest enclosing threshold... *)
  Alcotest.check dom "hi parks at the compare immediate"
    (Domain.itv 0 1024)
    (Rel.widen_dom ~thresholds (Domain.itv 0 10) (Domain.itv 0 20));
  Alcotest.check dom "next escalation takes the next rung"
    (Domain.itv 0 8192)
    (Rel.widen_dom ~thresholds (Domain.itv 0 1024) (Domain.itv 0 1025));
  (* ...and past the last rung, at infinity — termination is preserved *)
  Alcotest.check dom "past the ladder lies infinity"
    (Domain.itv 0 max_int)
    (Rel.widen_dom ~thresholds (Domain.itv 0 8192) (Domain.itv 0 9000));
  Alcotest.check dom "stable bounds do not move"
    (Domain.itv 0 10)
    (Rel.widen_dom ~thresholds (Domain.itv 0 10) (Domain.itv 2 8))

(* The two guard-pages Unknowns the relational domain discharges, under
   both lowerings: these are the tentpole regression pins. *)
let test_discharged_unknowns () =
  List.iter
    (fun opt ->
      Hfi_opt.Driver.with_enabled opt (fun () ->
          List.iter
            (fun name ->
              let r =
                Checks.verify_workload ~strategy:Strategy.Guard_pages (Sightglass.find name)
              in
              check_str
                (Printf.sprintf "%s/guard-pages (opt %b)" name opt)
                "safe"
                (Vreport.verdict_name r.Vreport.verdict))
            [ "base64"; "sieve" ]))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Proof artifacts: emission, exact JSON round-trip, revalidation       *)
(* ------------------------------------------------------------------ *)

let test_proof_roundtrip () =
  List.iter
    (fun name ->
      let w = Sightglass.find name in
      let r, p =
        Checks.verify_workload_with_proof ~strategy:Strategy.Guard_pages w
      in
      check_str (name ^ " verdict") "safe" (Vreport.verdict_name r.Vreport.verdict);
      match p with
      | None -> Alcotest.failf "%s: safe verdict without a proof" name
      | Some p ->
        (match Proofcheck.check_workload ~strategy:Strategy.Guard_pages w p with
        | Proofcheck.Accepted -> ()
        | Proofcheck.Rejected es ->
          Alcotest.failf "%s: fresh proof rejected: %s" name (String.concat "; " es));
        let s = Proof.to_json p in
        (match Proof.of_json_string s with
        | Error e -> Alcotest.failf "%s: round-trip parse failed: %s" name e
        | Ok p' ->
          (* byte-exact round-trip: serializing the parse reproduces the
             artifact, so nothing (63-bit bounds included) was lossy *)
          check_str (name ^ " json round-trip") s (Proof.to_json p');
          (match Proofcheck.check_workload ~strategy:Strategy.Guard_pages w p' with
          | Proofcheck.Accepted -> ()
          | Proofcheck.Rejected es ->
            Alcotest.failf "%s: round-tripped proof rejected: %s" name
              (String.concat "; " es))))
    [ "sieve"; "base64"; "ackermann" ]

(* A proof emitted under one strategy must not certify another, and a
   checker from a different verifier version must refuse it. *)
let test_proof_binding () =
  let w = Sightglass.find "fib2" in
  let _, p = Checks.verify_workload_with_proof ~strategy:Strategy.Hfi w in
  let p = Option.get p in
  (match Proofcheck.check_workload ~strategy:Strategy.Guard_pages w p with
  | Proofcheck.Rejected _ -> ()
  | Proofcheck.Accepted -> Alcotest.fail "strategy mismatch accepted");
  let stale = { p with Proof.verifier_version = Checks.verifier_version + 1 } in
  match Proofcheck.check_workload ~strategy:Strategy.Hfi w stale with
  | Proofcheck.Rejected _ -> ()
  | Proofcheck.Accepted -> Alcotest.fail "verifier-version mismatch accepted"

(* ------------------------------------------------------------------ *)
(* Golden fixpoint pins on optimized code                               *)
(* ------------------------------------------------------------------ *)

(* The worklist's visit count and the emitted invariants depend on the
   exact join and queue order, so pinning them catches any change to
   how edge contributions are stored or folded. Sinks ([Cfg.is_sink])
   never enter the worklist, so they count no visits here. *)
let spec_program strategy name =
  Instance.build_program ~strategy ~optimize:true
    (Hfi_workloads.Spec.workload (Hfi_workloads.Spec.find name))

let test_fixpoint_golden_iterations () =
  List.iter
    (fun (name, iterations) ->
      let prog = spec_program Strategy.Hfi name in
      let r =
        Checks.verify ~name { Checks.strategy = Strategy.Hfi; code_base = Layout.code_base } prog
      in
      check_str (name ^ " verdict") "safe" (Vreport.verdict_name r.Vreport.verdict);
      check_int (name ^ " iterations") iterations r.Vreport.iterations)
    [ ("445.gobmk", 27683); ("403.gcc", 14481) ]

let proof_md5 p = Digest.to_hex (Digest.string (Proof.to_json p))

let test_fixpoint_golden_proofs () =
  List.iter
    (fun (name, strategy, prog, md5) ->
      let _, p =
        Checks.verify_with_proof ~name { Checks.strategy; code_base = Layout.code_base } prog
      in
      match p with
      | None -> Alcotest.failf "%s: no proof" name
      | Some p -> check_str (name ^ " proof md5") md5 (proof_md5 p))
    [
      ( "sieve",
        Strategy.Guard_pages,
        Instance.build_program ~strategy:Strategy.Guard_pages ~optimize:true (Sightglass.find "sieve"),
        "a8c0015e6112b0835b513c7780d9ff3b" );
      ("403.gcc", Strategy.Hfi, spec_program Strategy.Hfi "403.gcc", "e60019d4b10a70bcd2e7fcdf8d740071");
    ]

(* ------------------------------------------------------------------ *)
(* Bounds checks: the shared trap block                                 *)
(* ------------------------------------------------------------------ *)

(* Every bounds check branches to one shared trap block, so under
   Bounds_checks both fixpoints (optimizer and verifier) meet a sink
   with hundreds to thousands of in-edges. Per SPEC-like profile: the
   optimized program's fingerprint, the per-pass change counts, its
   verdict and the verdict on the unoptimized reference lowering. The
   table runs in seconds only while sinks are solved once, off the
   worklist; re-joining every in-edge on each change costs minutes. *)
let bounds_pins =
  [
    ( "400.perlbench",
      "3151d8d9e7f62e83707e0407a5f39cde",
      "elide:939 reuse:0 hoist:0 rewrite:33 dce:450",
      "safe",
      "safe" );
    ( "401.bzip2",
      "8b454fafc8f46a9b37cfd9d84a6a42b3",
      "elide:1123 reuse:0 hoist:0 rewrite:60 dce:534",
      "safe",
      "safe" );
    ( "403.gcc",
      "ddd9f1d643ad2ffc9675a18b1712c0b6",
      "elide:1831 reuse:0 hoist:0 rewrite:79 dce:1044",
      "safe",
      "safe" );
    ( "429.mcf",
      "513c2916115c81d2ed99dca22d22630c",
      "elide:0 reuse:0 hoist:0 rewrite:48 dce:99",
      "safe",
      "safe" );
    ( "445.gobmk",
      "0766ca3bcbab6e0e082450a90d3fef59",
      "elide:3128 reuse:0 hoist:0 rewrite:131 dce:1967",
      "safe",
      "safe" );
    ( "456.hmmer",
      "2e64d0bed0e4bd56c6eafdb4ab129271",
      "elide:876 reuse:0 hoist:0 rewrite:43 dce:453",
      "safe",
      "safe" );
    ( "458.sjeng",
      "9404426b82b78a9231108fd3085d2a21",
      "elide:792 reuse:0 hoist:0 rewrite:56 dce:487",
      "safe",
      "safe" );
    ( "462.libquantum",
      "746001524545c52fecaeb72096d55544",
      "elide:701 reuse:0 hoist:0 rewrite:49 dce:366",
      "safe",
      "safe" );
    ( "464.h264ref",
      "248445ef550fe0eaeeb707a6425612ac",
      "elide:1038 reuse:0 hoist:0 rewrite:51 dce:485",
      "safe",
      "safe" );
    ( "473.astar",
      "4a981cbb29cbc549ac0758309a44a258",
      "elide:0 reuse:0 hoist:0 rewrite:49 dce:121",
      "safe",
      "safe" );
  ]

let bounds_spec = { Checks.strategy = Strategy.Bounds_checks; code_base = Layout.code_base }

let bounds_reference name =
  Instance.build_program ~strategy:Strategy.Bounds_checks ~optimize:false
    (Hfi_workloads.Spec.workload (Hfi_workloads.Spec.find name))

let bounds_conv name =
  let w = Hfi_workloads.Spec.workload (Hfi_workloads.Spec.find name) in
  Instance.opt_conv ~strategy:Strategy.Bounds_checks
    ~heap_size:(Instance.round_to_wasm_page w.Instance.heap_bytes)

let test_bounds_checks_golden () =
  List.iter
    (fun (name, fingerprint, changed, verdict, ref_verdict) ->
      let prog = bounds_reference name in
      let results = Hfi_opt.Driver.passes (bounds_conv name) prog in
      let final = match List.rev results with [] -> prog | last :: _ -> last.Hfi_opt.Driver.prog in
      check_str (name ^ " fingerprint") fingerprint (Program.fingerprint final);
      check_str (name ^ " changed per pass") changed
        (String.concat " "
           (List.map
              (fun (r : Hfi_opt.Driver.pass_result) ->
                Printf.sprintf "%s:%d" r.Hfi_opt.Driver.pass r.Hfi_opt.Driver.changed)
              results));
      let verdict_of p = Vreport.verdict_name (Checks.verify ~name bounds_spec p).Vreport.verdict in
      check_str (name ^ " verdict") verdict (verdict_of final);
      check_str (name ^ " reference verdict") ref_verdict (verdict_of prog))
    bounds_pins;
  let name = "462.libquantum" in
  match Checks.verify_with_proof ~name bounds_spec (bounds_reference name) with
  | _, None -> Alcotest.failf "%s reference: no proof" name
  | _, Some p ->
    check_str (name ^ " reference proof md5") "031d7488cd0b93f03f686d43e73cd9ba" (proof_md5 p)

(* Fold what each predecessor's in-state transfers into [target], in
   ascending predecessor order — the value a sink gets when it is solved
   once after the fixpoint. *)
let join_into ~target ~join ~state_of ~simulate preds =
  List.fold_left
    (fun acc pred ->
      match state_of pred with
      | None -> acc
      | Some st ->
        List.fold_left
          (fun acc (t, c) ->
            if t <> target then acc else Some (match acc with None -> c | Some a -> join a c))
          acc (simulate st pred))
    None
    (List.sort_uniq compare preds)

(* The trap block's state, in the verifier's proof and in the
   optimizer's analysis alike, is exactly that join. *)
let test_trap_sink_invariant () =
  let name = "462.libquantum" in
  let prog = bounds_reference name in
  match Checks.verify_with_proof ~name bounds_spec prog with
  | _, None -> Alcotest.failf "%s reference: no proof" name
  | _, Some p ->
    (match
       Proofcheck.check ~strategy:Strategy.Bounds_checks ~code_base:Layout.code_base prog p
     with
    | Proofcheck.Accepted -> ()
    | Proofcheck.Rejected es -> Alcotest.failf "proof rejected: %s" (String.concat "; " es));
    let ctx = Hfi_verify.Transfer.make_ctx bounds_spec prog in
    let cfg = ctx.Hfi_verify.Transfer.cfg in
    let preds = Hfi_opt.Dom.preds_of cfg in
    (* the trap: the sink with the most in-edges *)
    let trap =
      Array.fold_left
        (fun best (blk : Cfg.block) ->
          if Cfg.is_sink cfg blk && List.length preds.(blk.Cfg.id) > List.length preds.(best) then
            blk.Cfg.id
          else best)
        0 cfg.Cfg.blocks
    in
    check_bool "trap has hundreds of in-edges" true (List.length preds.(trap) > 100);
    let recorded = List.assoc_opt trap p.Proof.invariants in
    check_bool "trap invariant is the sorted join of its contributions" true
      (recorded <> None
      && recorded
         = join_into ~target:trap ~join:Vstate.join
             ~state_of:(fun b -> List.assoc_opt b p.Proof.invariants)
             ~simulate:(fun st b ->
               Hfi_verify.Transfer.simulate ctx ~record:false st cfg.Cfg.blocks.(b))
             preds.(trap));
    let conv = bounds_conv name in
    let bound_cell = conv.Hfi_opt.Sfi_opt.bound_cell in
    let heap_limit = conv.Hfi_opt.Sfi_opt.heap_limit in
    let uops = ctx.Hfi_verify.Transfer.uops in
    let a = Hfi_opt.Analysis.compute ~bound_cell ~heap_limit uops cfg in
    let solved = a.Hfi_opt.Analysis.in_states.(trap) in
    check_bool "analysis solves the trap as the same join" true
      (solved <> None
      && solved
         = join_into ~target:trap ~join:Hfi_opt.Analysis.join_st
             ~state_of:(fun b -> a.Hfi_opt.Analysis.in_states.(b))
             ~simulate:(fun st b ->
               Hfi_opt.Analysis.simulate ~bound_cell:(Some bound_cell) ~heap_limit uops cfg st
                 cfg.Cfg.blocks.(b))
             preds.(trap))

(* ------------------------------------------------------------------ *)
(* Persistent verdict cache: round-trip under an explicit directory     *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hfi-vcache-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_verdict_cache_roundtrip () =
  with_temp_dir (fun dir ->
      let strategy = Strategy.Guard_pages in
      let code_base = Layout.code_base in
      let w = Sightglass.find "sieve" in
      let prog = Instance.build_program ~strategy w in
      let fingerprint = Program.fingerprint prog in
      check_bool "empty cache misses" true
        (Vcache.find_in ~dir ~fingerprint ~strategy ~code_base = None);
      let r = Checks.verify ~name:"sieve" { Checks.strategy; code_base } prog in
      Vcache.store_in ~dir ~fingerprint ~strategy ~code_base r;
      (match Vcache.find_in ~dir ~fingerprint ~strategy ~code_base with
      | None -> Alcotest.fail "stored entry not found"
      | Some r' -> check_str "report round-trips" (Vreport.to_json r) (Vreport.to_json r'));
      (* an unsafe report round-trips its violations, in order *)
      let ru = Checks.verify_workload ~strategy:Strategy.Hfi escape_workload in
      Vcache.store_in ~dir ~fingerprint:"escape-fp" ~strategy ~code_base ru;
      (match Vcache.find_in ~dir ~fingerprint:"escape-fp" ~strategy ~code_base with
      | None -> Alcotest.fail "unsafe entry not found"
      | Some r' -> check_str "unsafe round-trips" (Vreport.to_json ru) (Vreport.to_json r'));
      (* key separation: a different strategy never sees the entry *)
      check_bool "strategy separates keys" true
        (Vcache.find_in ~dir ~fingerprint ~strategy:Strategy.Hfi ~code_base = None);
      (* a corrupt entry is a miss, not an error *)
      let k = Vcache.key ~fingerprint ~strategy ~code_base in
      let oc = open_out_bin (Filename.concat dir (k ^ ".json")) in
      output_string oc "{ corrupt";
      close_out oc;
      check_bool "corrupt entry is a miss" true
        (Vcache.find_in ~dir ~fingerprint ~strategy ~code_base = None))

(* Reports carry [iterations], which can change without the analysis
   changing meaning, so such changes bump the entry format instead of
   the verifier version. An entry of the previous format is a miss,
   whether it sits at its own address or at the current one. *)
let test_verdict_cache_old_format_miss () =
  with_temp_dir (fun dir ->
      let strategy = Strategy.Guard_pages in
      let code_base = Layout.code_base in
      let prog = Instance.build_program ~strategy (Sightglass.find "sieve") in
      let fingerprint = Program.fingerprint prog in
      let r = Checks.verify ~name:"sieve" { Checks.strategy; code_base } prog in
      let key = Vcache.key ~fingerprint ~strategy ~code_base in
      let old_key =
        Digest.to_hex
          (Digest.string
             (String.concat "\x00"
                [
                  "hfi-verify-v1";
                  Printf.sprintf "verifier-%d" Checks.verifier_version;
                  fingerprint;
                  Strategy.to_string strategy;
                  string_of_int code_base;
                ]))
      in
      check_bool "the format version is part of the address" true (old_key <> key);
      Sys.mkdir dir 0o755;
      let write_v1 k =
        let oc = open_out_bin (Filename.concat dir (k ^ ".json")) in
        Printf.fprintf oc {|{"cache_version":1,"verifier_version":%d,"report":%s}|}
          Checks.verifier_version (Vreport.to_json r);
        close_out oc
      in
      write_v1 old_key;
      check_bool "v1 entry at its own address is a miss" true
        (Vcache.find_in ~dir ~fingerprint ~strategy ~code_base = None);
      write_v1 key;
      check_bool "v1 entry at the current address is a miss" true
        (Vcache.find_in ~dir ~fingerprint ~strategy ~code_base = None);
      Vcache.store_in ~dir ~fingerprint ~strategy ~code_base r;
      check_bool "a current entry is a hit" true
        (Vcache.find_in ~dir ~fingerprint ~strategy ~code_base <> None))

(* ------------------------------------------------------------------ *)
(* Sweep determinism: jobs=1 and jobs=4 produce identical artifacts     *)
(* ------------------------------------------------------------------ *)

let test_sweep_jobs_deterministic () =
  let kernels =
    List.filter (fun (n, _) -> List.mem n [ "base64"; "sieve"; "fib2"; "keccak" ])
      Sightglass.all
  in
  let strategies = [ Strategy.Guard_pages; Strategy.Hfi ] in
  let s1 = Hfi_verify.Sweep.run ~jobs:1 ~strategies kernels in
  let s4 = Hfi_verify.Sweep.run ~jobs:4 ~strategies kernels in
  check_str "json identical" (Hfi_verify.Sweep.to_json s1) (Hfi_verify.Sweep.to_json s4);
  check_str "table identical" (Hfi_verify.Sweep.table s1) (Hfi_verify.Sweep.table s4);
  check_str "summary identical" (Hfi_verify.Sweep.summary s1) (Hfi_verify.Sweep.summary s4);
  check_int "all safe" 0 (Hfi_verify.Sweep.exit_code s1)

(* ------------------------------------------------------------------ *)
(* Golden guard: verification is pure                                   *)
(* ------------------------------------------------------------------ *)

let with_obs f =
  let m0 = !Obs.metrics_enabled and t0 = !Obs.trace_enabled and p0 = !Obs.profile_enabled in
  Obs.set_metrics true;
  Obs.set_trace true;
  Obs.set_profile true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_metrics m0;
      Obs.set_trace t0;
      Obs.set_profile p0)
    f

(* With all observability on AND verifier runs interleaved before the
   measurement, the Fig. 3 golden cycle pins must stay bit-identical:
   the verifier never touches machine, memory, HFI, or engine state. *)
let test_golden_with_verifier () =
  with_obs (fun () ->
      List.iter
        (fun (_, w) ->
          List.iter (fun s -> ignore (Checks.verify_workload ~strategy:s w)) Strategy.all)
        [ ("gimli", Sightglass.find "gimli"); ("keccak", Sightglass.find "keccak") ];
      let actual = Test_golden.compute () in
      List.iter2
        (fun (gb, gs, gc) (ab, as_, ac) ->
          check_str "bench order" gb ab;
          check_str "scheme order" gs as_;
          Alcotest.(check (float 0.0)) (Printf.sprintf "%s/%s cycles" gb gs) gc ac)
        Test_golden.golden actual)

let suite =
  [
    Alcotest.test_case "domain: masked join/normalize/And" `Quick test_domain_masked;
    Alcotest.test_case "domain: widening" `Quick test_domain_widen;
    Alcotest.test_case "domain: overflow at the region boundary" `Quick
      test_domain_overflow_at_boundary;
    Alcotest.test_case "domain: branch refinement" `Quick test_domain_refine;
    Alcotest.test_case "cfg: self-loop" `Quick test_cfg_self_loop;
    Alcotest.test_case "cfg: back edge" `Quick test_cfg_back_edge;
    Alcotest.test_case "cfg: unreachable block" `Quick test_cfg_unreachable_block;
    Alcotest.test_case "cfg: ret without call" `Quick test_cfg_ret_without_call;
    Alcotest.test_case "cfg: ret with call" `Quick test_cfg_ret_with_call;
    Alcotest.test_case "cfg: unresolved indirect" `Quick test_cfg_indirect_unresolved;
    Alcotest.test_case "cfg: resolved indirect (head/mid/non-boundary)" `Quick
      test_cfg_indirect_resolved;
    Alcotest.test_case "cfg: direct branch out of program" `Quick test_cfg_branch_out;
    Alcotest.test_case "corpus: verdicts across strategies" `Quick test_corpus_verdicts;
    Alcotest.test_case "rel: fact inference at a lockstep join" `Quick test_rel_inference;
    Alcotest.test_case "rel: offset compensation and kills" `Quick test_rel_compensation;
    Alcotest.test_case "rel: tighten at use, refine backwards" `Quick
      test_rel_tighten_and_refine;
    Alcotest.test_case "rel: threshold widening ladder" `Quick test_rel_threshold_widening;
    Alcotest.test_case "v2 discharges the two guard-pages unknowns" `Quick
      test_discharged_unknowns;
    Alcotest.test_case "proof: emit, round-trip, revalidate" `Quick test_proof_roundtrip;
    Alcotest.test_case "proof: bound to strategy and verifier version" `Quick
      test_proof_binding;
    Alcotest.test_case "fixpoint: golden iteration counts" `Quick test_fixpoint_golden_iterations;
    Alcotest.test_case "fixpoint: golden proof digests" `Quick test_fixpoint_golden_proofs;
    Alcotest.test_case "bounds-checks: golden optimizer and verifier outputs" `Quick
      test_bounds_checks_golden;
    Alcotest.test_case "bounds-checks: trap invariant is the join of its in-edges" `Quick
      test_trap_sink_invariant;
    Alcotest.test_case "verdict cache: round-trip, separation, corruption" `Quick
      test_verdict_cache_roundtrip;
    Alcotest.test_case "verdict cache: older-format entries are misses" `Quick
      test_verdict_cache_old_format_miss;
    Alcotest.test_case "sweep: jobs=1 == jobs=4" `Quick test_sweep_jobs_deterministic;
    Alcotest.test_case "sfi: raw out-of-window store is unsafe" `Quick test_sfi_escape_unsafe;
    Alcotest.test_case "negative control: in-sandbox region write" `Quick test_negative_control;
    Alcotest.test_case "report: stable strings and json" `Quick test_report_format;
    Alcotest.test_case "golden pins with verifier + obs on" `Quick test_golden_with_verifier;
  ]
