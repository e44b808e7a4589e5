(* Unit tests for the optimizing middle-end (lib/opt): dominators and
   natural loops, the program edit buffer, liveness, the e-graph-style
   rewriter, DCE, the strategy-aware SFI check passes (elision, reuse,
   hoisting) and the linear-scan register allocator.

   The SFI passes are deliberately tested on codegen-shaped workloads
   whose checked index is NOT interval-provable (it comes from a W8 heap
   load, so the abstract domain knows nothing about it): on such
   programs elision cannot fire and reuse/hoisting must carry the win.
   Every optimized program is also pushed through the static verifier
   and must come back [Safe] — the translation-validation contract. *)

open Hfi_isa
open Hfi_memory
open Hfi_pipeline
open Hfi_wasm
module Dom = Hfi_opt.Dom
module Edit = Hfi_opt.Edit
module Liveness = Hfi_opt.Liveness
module Rewrite = Hfi_opt.Rewrite
module Dce = Hfi_opt.Dce
module Regalloc = Hfi_opt.Regalloc
module Driver = Hfi_opt.Driver
module Checks = Hfi_verify.Checks
module Strategy = Hfi_sfi.Strategy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let decode prog = Uop.decode prog ~code_base:Layout.code_base
let layout_of prog = Uop.layout prog ~code_base:Layout.code_base
let decode_fresh_of prog = Uop.decode_fresh prog ~code_base:Layout.code_base
let cfg_of prog = Cfg.build (decode prog) (layout_of prog)

let count_instrs p f = Array.fold_left (fun n i -> if f i then n + 1 else n) 0 (Program.instrs p)

(* Static check instructions of the software schemes: the bound compare
   for bounds checks, the scratch-register AND for masking. *)
let check_count strategy p =
  match strategy with
  | Strategy.Bounds_checks -> count_instrs p (function Instr.Cmp_mem _ -> true | _ -> false)
  | Strategy.Masking ->
    count_instrs p (function
      | Instr.Alu (Instr.And, r, Instr.Imm _) when r = Codegen.scratch -> true
      | _ -> false)
  | Strategy.Guard_pages | Strategy.Hfi -> 0

let assert_safe name strategy prog =
  let r = Checks.verify ~name { Checks.strategy; code_base = Layout.code_base } prog in
  check_bool (name ^ " verifies Safe") true
    (match r.Hfi_verify.Report.verdict with Hfi_verify.Report.Safe -> true | _ -> false)

type measured = { instrs : int; rax : int }

let run_measured ~strategy ~optimize w =
  let inst = Instance.instantiate ~strategy ~optimize w in
  let e = Fast_engine.create (Instance.machine inst) in
  (match Fast_engine.run e with
  | Machine.Halted -> ()
  | Machine.Running | Machine.Faulted _ -> Alcotest.failf "%s did not halt" w.Instance.name);
  { instrs = Fast_engine.instrs e; rax = Instance.result_rax inst }

(* ------------------------------------------------------------------ *)
(* mask_of_size (satellite: hardening + property test)                  *)

let test_mask_of_size_basics () =
  check_int "min window 64K" 65535 (Codegen.mask_of_size 1);
  check_int "exactly one page" 65535 (Codegen.mask_of_size 65536);
  check_int "rounds up" 131071 (Codegen.mask_of_size 65537);
  check_int "pow2 size" ((1 lsl 20) - 1) (Codegen.mask_of_size (1 lsl 20))

let test_mask_of_size_rejects_nonpositive () =
  List.iter
    (fun sz ->
      check_bool
        (Printf.sprintf "size %d rejected" sz)
        true
        (match Codegen.mask_of_size sz with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ 0; -1; min_int ]

let test_mask_of_size_saturates () =
  (* Near max_int the doubling must saturate instead of overflowing to a
     negative window; the call must also terminate. *)
  check_int "max_int saturates" max_int (Codegen.mask_of_size max_int);
  check_int "above 2^61 saturates" max_int (Codegen.mask_of_size ((max_int / 2) + 7));
  check_int "largest pow2" (max_int / 2) (Codegen.mask_of_size ((max_int / 4) + 2))

let test_mask_of_size_covers_window () =
  (* Property: the rounded window always covers [0, size-1] and is a
     power-of-two window (or the saturated all-bits mask). *)
  let sizes = ref [] in
  let s = ref 1 in
  while !s > 0 && !s < max_int / 3 do
    sizes := !s :: (!s + 1) :: ((!s * 3) + 17) :: !sizes;
    s := !s * 7
  done;
  List.iter
    (fun size ->
      let m = Codegen.mask_of_size size in
      check_bool (Printf.sprintf "mask covers size %d" size) true (m >= size - 1);
      check_bool
        (Printf.sprintf "mask %d is a pow2 window" m)
        true
        (m = max_int || (m + 1) land m = 0))
    !sizes

(* ------------------------------------------------------------------ *)
(* Dominators and natural loops                                         *)

(* 0: Mov RAX,0 / 1: Mov RBX,5 / 2: Add RAX,RBX <- header
   3: Sub RBX,1 / 4: Cmp RBX,0 / 5: Jcc Gt 2 / 6: Halt *)
let loop_prog =
  Program.of_instrs
    [|
      Instr.Mov (Reg.RAX, Instr.Imm 0);
      Instr.Mov (Reg.RBX, Instr.Imm 5);
      Instr.Alu (Instr.Add, Reg.RAX, Instr.Reg Reg.RBX);
      Instr.Alu (Instr.Sub, Reg.RBX, Instr.Imm 1);
      Instr.Cmp (Reg.RBX, Instr.Imm 0);
      Instr.Jcc (Instr.Gt, 2);
      Instr.Halt;
    |]

let test_dom_tree () =
  let cfg = cfg_of loop_prog in
  check_int "three blocks" 3 (Array.length cfg.Cfg.blocks);
  let t = Dom.compute cfg in
  check_int "entry has no idom" (-1) t.Dom.idom.(0);
  check_int "loop block idom" 0 t.Dom.idom.(1);
  check_int "exit block idom" 1 t.Dom.idom.(2);
  check_bool "entry dominates exit" true (Dom.dominates t 0 2);
  check_bool "loop dominates exit" true (Dom.dominates t 1 2);
  check_bool "exit does not dominate loop" false (Dom.dominates t 2 1)

let test_natural_loop () =
  let cfg = cfg_of loop_prog in
  let t = Dom.compute cfg in
  match Dom.loops cfg t with
  | [ l ] ->
    check_int "header" 1 l.Dom.header;
    check_bool "self back edge" true (List.mem (1, 1) l.Dom.back_edges);
    check_bool "body is the header block" true (List.sort compare l.Dom.body = [ 1 ])
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls)

(* ------------------------------------------------------------------ *)
(* Edit buffer                                                          *)

let test_edit_branch_to_deleted () =
  (* A branch to a deleted instruction lands on the next surviving one. *)
  let edit =
    Edit.create ~code_base:Layout.code_base
      (Program.of_instrs
         [| Instr.Mov (Reg.RAX, Instr.Imm 1); Instr.Jmp 2; Instr.Mov (Reg.RAX, Instr.Imm 9); Instr.Halt |])
  in
  Edit.delete edit 2;
  let p = Program.instrs (Edit.rebuild edit) in
  check_int "three instrs survive" 3 (Array.length p);
  check_bool "jmp retargeted to halt" true (p.(1) = Instr.Jmp 2);
  check_bool "halt at 2" true (p.(2) = Instr.Halt)

let test_edit_branch_to_replacement () =
  (* A branch to a replaced instruction lands at the replacement body. *)
  let edit =
    Edit.create ~code_base:Layout.code_base
      (Program.of_instrs [| Instr.Jcc (Instr.Eq, 1); Instr.Nop; Instr.Halt |])
  in
  Edit.replace edit 1 [ Instr.Mov (Reg.RCX, Instr.Imm 1); Instr.Nop ];
  let p = Program.instrs (Edit.rebuild edit) in
  check_int "four instrs" 4 (Array.length p);
  check_bool "branch still lands at index 1" true (p.(0) = Instr.Jcc (Instr.Eq, 1));
  check_bool "replacement head" true (p.(1) = Instr.Mov (Reg.RCX, Instr.Imm 1))

let test_edit_insert_before_skipped_by_branch () =
  (* insert_before is fallthrough-only: the branch skips the insertion —
     exactly the loop-preheader shape hoisting relies on. *)
  let edit =
    Edit.create ~code_base:Layout.code_base
      (Program.of_instrs [| Instr.Mov (Reg.RAX, Instr.Imm 1); Instr.Jmp 2; Instr.Halt |])
  in
  Edit.insert_before edit 2 [ Instr.Mov (Reg.RBX, Instr.Imm 7) ];
  let p = Program.instrs (Edit.rebuild edit) in
  check_int "four instrs" 4 (Array.length p);
  check_bool "branch lands past the insertion" true (p.(1) = Instr.Jmp 3);
  check_bool "insertion on the fallthrough path" true (p.(2) = Instr.Mov (Reg.RBX, Instr.Imm 7));
  check_bool "unchanged buffer reports clean" false
    (let e2 = Edit.create ~code_base:Layout.code_base (Program.of_instrs [| Instr.Halt |]) in
     Edit.changed e2)

(* The list-based [Edit.rebuild] the one-array layout replaced, kept as
   the reference: lay out insertions and bodies through a reversed list,
   map each direct target (a deleted instruction's to the next surviving
   body), then retarget. *)
let reference_rebuild (e : Edit.t) =
  let n = Array.length e.Edit.orig in
  let body i = match e.Edit.repl.(i) with Some l -> l | None -> [ e.Edit.orig.(i) ] in
  let out = ref [] and pos = ref 0 in
  let body_start = Array.make (n + 1) 0 and body_len = Array.make n 0 in
  for i = 0 to n - 1 do
    List.iter (fun ins -> out := ins :: !out; incr pos) e.Edit.pre.(i);
    body_start.(i) <- !pos;
    let b = body i in
    body_len.(i) <- List.length b;
    List.iter (fun ins -> out := ins :: !out; incr pos) b
  done;
  let target_map = Array.make (n + 1) !pos in
  for i = n - 1 downto 0 do
    target_map.(i) <- (if body_len.(i) > 0 then body_start.(i) else target_map.(i + 1))
  done;
  let map tgt = if tgt >= 0 && tgt <= n then target_map.(tgt) else tgt in
  let retarget = function
    | Instr.Jmp t -> Instr.Jmp (map t)
    | Instr.Jcc (c, t) -> Instr.Jcc (c, map t)
    | Instr.Call t -> Instr.Call (map t)
    | ins -> ins
  in
  Program.of_instrs (Array.map retarget (Array.of_list (List.rev !out)))

(* A random edit script over [prog]: deletions (likelier at block heads,
   and of the last instruction in about half the scripts), one- and
   multi-instruction replacements whose branches target random original
   indices up to [n], and fallthrough insertions (likelier on branch
   targets). Every script also has a replacement that branches to index
   [n] and to a deleted instruction. *)
let random_script rng prog =
  let instrs = Program.instrs prog in
  let n = Array.length instrs in
  let _, layout = decode_fresh_of prog in
  let is_target = Array.make (n + 1) false in
  Array.iter
    (function
      | Instr.Jmp t | Instr.Jcc (_, t) | Instr.Call t -> if t >= 0 && t <= n then is_target.(t) <- true
      | _ -> ())
    instrs;
  let any () = instrs.(Random.State.int rng n) in
  let branch () =
    let t = Random.State.int rng (n + 1) in
    match Random.State.int rng 3 with
    | 0 -> Instr.Jmp t
    | 1 -> Instr.Jcc (Instr.Ne, t)
    | _ -> Instr.Call t
  in
  let edit = Edit.create prog ~code_base:Layout.code_base in
  for i = 0 to n - 1 do
    let head = Uop.is_block_head layout i in
    (match Random.State.int rng 100 with
    | r when r < 8 || (head && r < 25) -> Edit.delete edit i
    | r when r < 32 -> Edit.replace edit i [ any (); branch (); instrs.(i) ]
    | r when r < 38 -> Edit.replace edit i [ any () ]
    | _ -> ());
    if (is_target.(i) && Random.State.bool rng) || Random.State.int rng 20 = 0 then
      Edit.insert_before edit i [ any (); branch () ]
  done;
  if n > 1 then begin
    let k = Random.State.int rng n in
    let j = (k + 1 + Random.State.int rng (n - 1)) mod n in
    Edit.delete edit k;
    Edit.replace edit j [ Instr.Jcc (Instr.Ne, n); Instr.Jmp k; instrs.(j) ]
  end;
  if n > 0 && Random.State.bool rng then Edit.delete edit (n - 1);
  edit

(* [Edit.rebuild] equals the list-based reference on random edit scripts
   over every Sightglass kernel under every strategy: same instructions,
   same byte offsets. A source with memoized µops hands the rebuilt
   program a memo equal to a fresh decode; a source without one leaves
   the memo empty. *)
let test_edit_rebuild_matches_reference () =
  let rng = Random.State.make [| 18 |] in
  let scripts = ref 0 in
  List.iter
    (fun (name, w) ->
      List.iter
        (fun strategy ->
          let built = Instance.build_program ~strategy ~optimize:false w in
          List.iter
            (fun memo ->
              let prog = Program.of_instrs (Array.copy (Program.instrs built)) in
              if memo then ignore (decode prog);
              let edit = random_script rng prog in
              let got = Edit.rebuild edit and want = reference_rebuild edit in
              let m = Program.length want in
              let id = Printf.sprintf "%s/%s (memo %b)" name (Strategy.to_string strategy) memo in
              if Program.instrs got <> Program.instrs want then Alcotest.failf "%s: instructions differ" id;
              if
                Program.byte_size got <> Program.byte_size want
                || Array.init m (Program.byte_offset got) <> Array.init m (Program.byte_offset want)
              then Alcotest.failf "%s: byte offsets differ" id;
              (match Uop.memoized got ~code_base:Layout.code_base with
              | Some uops when memo ->
                if (uops, layout_of got) <> decode_fresh_of got then Alcotest.failf "%s: carried µops differ from a fresh decode" id
              | None when not memo -> ()
              | Some _ -> Alcotest.failf "%s: memo seeded from a source without one" id
              | None -> Alcotest.failf "%s: rebuilt program arrives without µops" id);
              incr scripts)
            [ true; false ])
        Strategy.all)
    Hfi_workloads.Sightglass.all;
  check_int "scripts run" (2 * List.length Strategy.all * List.length Hfi_workloads.Sightglass.all) !scripts

(* ------------------------------------------------------------------ *)
(* Liveness                                                             *)

let test_liveness_branchy () =
  (* 0: Jcc Eq 3 / 1: Mov RAX,RBX / 2: Jmp 4 / 3: Mov RAX,RCX / 4: Halt *)
  let prog =
    Program.of_instrs
      [|
        Instr.Jcc (Instr.Eq, 3);
        Instr.Mov (Reg.RAX, Instr.Reg Reg.RBX);
        Instr.Jmp 4;
        Instr.Mov (Reg.RAX, Instr.Reg Reg.RCX);
        Instr.Halt;
      |]
  in
  let uops = decode prog in
  let cfg = Cfg.build uops (layout_of prog) in
  let live = Liveness.compute uops cfg in
  let live_in i r = Liveness.is_live live.Liveness.live_in.(i) (Reg.index r) in
  check_bool "RBX live at entry" true (live_in 0 Reg.RBX);
  check_bool "RCX live at entry" true (live_in 0 Reg.RCX);
  check_bool "RAX dead at entry (defined on both paths)" false (live_in 0 Reg.RAX);
  check_bool "RBX live on fall path" true (live_in 1 Reg.RBX);
  check_bool "RCX dead on fall path" false (live_in 1 Reg.RCX);
  check_bool "RCX live on taken path" true (live_in 3 Reg.RCX);
  check_bool "halt keeps the result register live" true (live_in 4 Reg.RAX)

(* The round-robin solver the worklist replaced, kept as the oracle:
   sweep every block in reverse index order, instruction by
   instruction, until no block's live-in changes. The last sweep changes
   nothing, so the arrays it records are the fixpoint's. *)
let oracle_liveness (uops : Uop.t array) (cfg : Cfg.t) =
  let n = Array.length uops and nb = Array.length cfg.Cfg.blocks in
  let live_in = Array.make n 0 and live_out = Array.make n 0 in
  let blk_in = Array.make nb 0 in
  let term_live (b : Cfg.block) =
    match b.Cfg.term with
    | Cfg.Thalt -> Liveness.rax_mask
    | Cfg.Tjump_ind | Cfg.Tcall_ind _ | Cfg.Tout _ | Cfg.Tfall None -> Liveness.all_mask
    | _ -> 0
  in
  let sweep_block b =
    let blk = cfg.Cfg.blocks.(b) in
    let live = ref (List.fold_left (fun acc s -> acc lor blk_in.(s)) (term_live blk) blk.Cfg.succs) in
    for i = blk.Cfg.last downto blk.Cfg.first do
      live_out.(i) <- !live;
      let gen, kill = Liveness.gen_kill uops.(i) in
      live := !live land lnot kill lor gen;
      live_in.(i) <- !live
    done;
    !live
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      let ni = sweep_block b in
      if ni <> blk_in.(b) then begin
        blk_in.(b) <- ni;
        changed := true
      end
    done
  done;
  { Liveness.live_in; live_out }

(* Every example program (hand-written, Sightglass, FaaS catalog) and
   the ten SPEC-like profiles under all four strategies, reference and
   optimized lowering, plus 200 fuzz-generator modules. The SPEC-like
   modules optimized under bounds checks are the largest programs the
   optimizer rewrites, and so the largest memos [Uop.carry] seeds. *)
let liveness_corpus =
  lazy
  (let lowerings = List.concat_map (fun s -> [ (s, false); (s, true) ]) Strategy.all in
  let build lowerings (name, w) =
    List.map
      (fun (strategy, optimize) ->
        ( Printf.sprintf "%s/%s/%s" name (Strategy.to_string strategy)
            (if optimize then "opt" else "ref"),
          Instance.build_program ~strategy ~optimize w ))
      lowerings
  in
  let examples =
    Hfi_workloads.Sightglass.all
    @ List.map
        (fun (f : Hfi_workloads.Faas_workloads.t) ->
          (f.Hfi_workloads.Faas_workloads.name, f.Hfi_workloads.Faas_workloads.workload))
        Hfi_workloads.Faas_workloads.all
  in
  let spec =
    List.concat_map (build lowerings)
      (List.map
         (fun (p : Hfi_workloads.Spec.profile) ->
           (p.Hfi_workloads.Spec.name, Hfi_workloads.Spec.workload p))
         Hfi_workloads.Spec.profiles)
  in
  let fuzzed =
    List.init 200 (fun i ->
        let m = Hfi_experiments.Fuzz.generate (Hfi_util.Prng.create ~seed:i) in
        let strategy = List.nth Strategy.all (i mod 4) in
        ( Printf.sprintf "fuzz-%d" i,
          Instance.build_program ~strategy ~optimize:(i / 4 mod 2 = 1) (Wasm_compile.workload m) ))
  in
  (("loop", loop_prog) :: List.concat_map (build lowerings) examples) @ spec @ fuzzed)

let check_live name (expect : Liveness.t) (actual : Liveness.t) =
  check_bool (name ^ ": live_in") true (expect.Liveness.live_in = actual.Liveness.live_in);
  check_bool (name ^ ": live_out") true (expect.Liveness.live_out = actual.Liveness.live_out)

let test_liveness_matches_round_robin () =
  List.iter
    (fun (name, prog) ->
      let uops = decode prog in
      let cfg = Cfg.build uops (layout_of prog) in
      check_live name (oracle_liveness uops cfg) (Liveness.compute uops cfg))
    (Lazy.force liveness_corpus)

(* Masking instructions as dead must give, instruction for instruction,
   the solution of the program with them deleted: DCE's rounds rely on
   it to skip the intermediate rebuilds. *)
let test_liveness_dead_mask_matches_rebuild () =
  let rng = Random.State.make [| 12 |] in
  List.iter
    (fun (name, prog) ->
      let uops = decode prog in
      let dead = Array.map (fun u -> Dce.deletable u && Random.State.int rng 3 = 0) uops in
      let masked = Liveness.compute ~dead uops (cfg_of prog) in
      let edit = Edit.create prog ~code_base:Layout.code_base in
      Array.iteri (fun i d -> if d then Edit.delete edit i) dead;
      let rebuilt = Edit.rebuild edit in
      let ruops = decode rebuilt in
      let live = Liveness.compute ruops (cfg_of rebuilt) in
      let j = ref 0 in
      Array.iteri
        (fun i d ->
          if not d then begin
            if
              masked.Liveness.live_in.(i) <> live.Liveness.live_in.(!j)
              || masked.Liveness.live_out.(i) <> live.Liveness.live_out.(!j)
            then Alcotest.failf "%s: instr %d (rebuilt %d) liveness differs" name i !j;
            incr j
          end)
        dead;
      check_int (name ^ ": survivors") (Program.length rebuilt) !j)
    (Lazy.force liveness_corpus)

(* Every pass output of [Driver.passes] over the SPEC-like, Sightglass
   and FaaS catalog programs under all four strategies: (cell, pass
   results), each cell starting from the unoptimized lowering. *)
let pass_corpus =
  lazy
    (let spec =
       List.map
         (fun (p : Hfi_workloads.Spec.profile) -> (p.Hfi_workloads.Spec.name, Hfi_workloads.Spec.workload p))
         Hfi_workloads.Spec.profiles
     in
     let faas =
       List.map
         (fun (f : Hfi_workloads.Faas_workloads.t) ->
           (f.Hfi_workloads.Faas_workloads.name, f.Hfi_workloads.Faas_workloads.workload))
         Hfi_workloads.Faas_workloads.all
     in
     List.concat_map
       (fun (name, (w : Instance.workload)) ->
         List.map
           (fun strategy ->
             let conv =
               Instance.opt_conv ~strategy ~heap_size:(Instance.round_to_wasm_page w.Instance.heap_bytes)
             in
             ( Printf.sprintf "%s/%s" name (Strategy.to_string strategy),
               Driver.passes conv (Instance.build_program ~strategy ~optimize:false w) ))
           Strategy.all)
       (spec @ Hfi_workloads.Sightglass.all @ faas))

(* A pass that rebuilds its input hands the output over with its µops
   already memoized ([Edit.rebuild] carries them), and the memo must be
   exactly what a fresh decode gives: on every pass output of the corpus
   above, and on the register allocator's output at 0, 1 and 2 reserved
   registers. One check per program. *)
let test_carried_decode_matches_fresh () =
  let same name prog ~rebuilt =
    if rebuilt && Option.is_none (Uop.memoized prog ~code_base:Layout.code_base) then
      Alcotest.failf "%s: rebuilt program arrives without µops" name;
    if (decode prog, layout_of prog) <> decode_fresh_of prog then Alcotest.failf "%s: memoized µops differ from a fresh decode" name
  in
  let outputs = ref 0 in
  List.iter
    (fun (cell, passes) ->
      List.iter
        (fun (r : Driver.pass_result) ->
          same (cell ^ "/" ^ r.Driver.pass) r.Driver.prog ~rebuilt:(r.Driver.changed > 0);
          incr outputs)
        passes)
    (Lazy.force pass_corpus);
  let module Rp = Hfi_experiments.Register_pressure in
  let allocatable = Hfi_workloads.Spec.pool_for Strategy.Hfi in
  List.iter
    (fun reserved ->
      let prog = Instance.build_program ~strategy:Strategy.Hfi (Hfi_workloads.Spec.workload Rp.profile) in
      match
        Regalloc.allocate ~code_base:Layout.code_base ~allocatable
          ~avail:(List.length allocatable - reserved) ~scratch:Rp.scratch ~spill_base:Rp.spill_base prog
      with
      | Some (prog', _) ->
        same (Printf.sprintf "regalloc/%d reserved" reserved) prog' ~rebuilt:(prog' != prog);
        incr outputs
      | None -> Alcotest.failf "allocator refused the register-pressure workload (%d reserved)" reserved)
    [ 0; 1; 2 ];
  check_int "programs compared" ((30 * 4 * 5) + 3) !outputs

(* DCE prepares liveness once per run and solves it once per round.
   After every round, on the whole corpus plus the Rewrite outputs of
   the pass corpus (the SPEC-like ones still delete in the last round
   the cap allows), re-solving the prepared value must give exactly a
   fresh [Liveness.compute] under the same dead set; and the reference
   rounds replayed here through [Liveness.solve] and [Dce.sweep] must
   delete the same instructions, round by round, as [Dce.rounds], whose
   total [Dce.run_fix] reports. *)
let test_liveness_prepared_reuse () =
  let rewritten =
    List.concat_map
      (fun (cell, passes) ->
        List.filter_map
          (fun (r : Driver.pass_result) ->
            if r.Driver.pass = "rewrite" then Some (cell ^ "/rewrite", r.Driver.prog) else None)
          passes)
      (Lazy.force pass_corpus)
  in
  let capped = ref 0 in
  List.iter
    (fun (name, prog) ->
      let uops = decode prog in
      let prepared = Liveness.prepare uops (cfg_of prog) in
      let dead = Array.make (Array.length uops) false in
      let rec rounds counts round =
        let live = Liveness.solve ~dead prepared in
        let fresh = Liveness.compute ~dead uops (cfg_of prog) in
        if live.Liveness.live_in <> fresh.Liveness.live_in
           || live.Liveness.live_out <> fresh.Liveness.live_out
        then Alcotest.failf "%s: round %d: prepared liveness differs from a fresh solve" name round;
        if round >= Dce.max_rounds then List.rev counts
        else begin
          let count = Dce.sweep uops live dead in
          if count = 0 then List.rev counts else rounds (count :: counts) (round + 1)
        end
      in
      let counts = rounds [] 0 in
      let dce_dead, dce_counts = Dce.rounds prepared in
      if dce_counts <> counts then
        Alcotest.failf "%s: per-round deletions [%s], replayed [%s]" name
          (String.concat "; " (List.map string_of_int dce_counts))
          (String.concat "; " (List.map string_of_int counts));
      if dce_dead <> dead then Alcotest.failf "%s: DCE deletes other instructions than the replay" name;
      if List.length counts = Dce.max_rounds then incr capped;
      let total = List.fold_left ( + ) 0 counts in
      let _, deleted = Dce.run_fix ~code_base:Layout.code_base prog in
      if total <> deleted then
        Alcotest.failf "%s: replayed rounds delete %d, run_fix %d" name total deleted)
    (Lazy.force liveness_corpus @ rewritten);
  check_bool "some program still deletes in the last round" true (!capped > 0)

(* ------------------------------------------------------------------ *)
(* Rewriting and DCE                                                    *)

let rewrite prog = fst (Rewrite.run ~code_base:Layout.code_base prog)

let test_rewrite_const_fold () =
  let p =
    rewrite
      (Program.of_instrs
         [| Instr.Mov (Reg.RAX, Instr.Imm 6); Instr.Alu (Instr.Mul, Reg.RAX, Instr.Imm 7); Instr.Halt |])
  in
  check_bool "6*7 folded to 42" true
    (Array.exists (fun i -> i = Instr.Mov (Reg.RAX, Instr.Imm 42)) (Program.instrs p))

let test_rewrite_strength_reduction () =
  (* Rdtsc makes RBX opaque, so the multiply cannot fold — it must
     strength-reduce to a shift instead. *)
  let p =
    rewrite
      (Program.of_instrs
         [| Instr.Rdtsc Reg.RBX; Instr.Alu (Instr.Mul, Reg.RBX, Instr.Imm 8); Instr.Halt |])
  in
  check_bool "mul pow2 becomes shl" true
    (Array.exists (fun i -> i = Instr.Alu (Instr.Shl, Reg.RBX, Instr.Imm 3)) (Program.instrs p))

let test_rewrite_add_zero_identity () =
  let p =
    rewrite
      (Program.of_instrs
         [| Instr.Rdtsc Reg.RBX; Instr.Alu (Instr.Add, Reg.RBX, Instr.Imm 0); Instr.Halt |])
  in
  check_bool "add 0 removed" false
    (Array.exists
       (function Instr.Alu (Instr.Add, Reg.RBX, _) -> true | _ -> false)
       (Program.instrs p))

(* Block 0 ends in a branch whose two successors each have block 0 as
   their only predecessor, so both inherit its facts (RAX = 6, RBX = 7).
   The first arm processed must get a copy: if it took block 0's state
   itself, its own folds (RAX = 42, RBX = 8) would leak into the other
   arm's facts. *)
let test_rewrite_two_heirs_fold_from_branch_facts () =
  let i c = Instr.Imm c and r x = Instr.Reg x in
  let p, n =
    Rewrite.run ~code_base:Layout.code_base
      (Program.of_instrs
         [|
           Instr.Mov (Reg.RAX, i 6);
           Instr.Mov (Reg.RBX, i 7);
           Instr.Rdtsc Reg.RCX;
           Instr.Cmp (Reg.RCX, i 0);
           Instr.Jcc (Instr.Eq, 8);
           Instr.Alu (Instr.Mul, Reg.RAX, r Reg.RBX);
           Instr.Alu (Instr.Add, Reg.RBX, i 1);
           Instr.Halt;
           Instr.Alu (Instr.Add, Reg.RAX, r Reg.RBX);
           Instr.Alu (Instr.Sub, Reg.RBX, i 2);
           Instr.Halt;
         |])
  in
  check_int "four folds" 4 n;
  check_bool "both arms fold from block 0's facts" true
    (Program.instrs p
    = [|
        Instr.Mov (Reg.RAX, i 6);
        Instr.Mov (Reg.RBX, i 7);
        Instr.Rdtsc Reg.RCX;
        Instr.Cmp (Reg.RCX, i 0);
        Instr.Jcc (Instr.Eq, 8);
        Instr.Mov (Reg.RAX, i 42);
        Instr.Mov (Reg.RBX, i 8);
        Instr.Halt;
        Instr.Mov (Reg.RAX, i 13);
        Instr.Mov (Reg.RBX, i 5);
        Instr.Halt;
      |])

let test_dce_removes_dead_def () =
  let p, n =
    Dce.run_fix ~code_base:Layout.code_base
      (Program.of_instrs
         [| Instr.Mov (Reg.RBX, Instr.Imm 1); Instr.Mov (Reg.RAX, Instr.Imm 2); Instr.Halt |])
  in
  check_bool "one deletion" true (n >= 1);
  check_int "dead def swept" 2 (Program.length p);
  check_bool "live def kept" true
    (Array.exists (fun i -> i = Instr.Mov (Reg.RAX, Instr.Imm 2)) (Program.instrs p))

(* Golden pipeline output on the largest SPEC-like modules: per-pass
   change counts, final length and fingerprint. Any solver or pass
   change that moves one bit of the optimized code shows up here. *)
let opt_pins =
  [
    ("445.gobmk", Strategy.Hfi, [ 0; 0; 0; 132; 2010 ], 29916, "72b891fabb8308ebd0b74c7089974f39");
    ("403.gcc", Strategy.Hfi, [ 0; 0; 0; 62; 1130 ], 17127, "8d19c662bf9d654d8990f091bdd1acb2");
    ( "400.perlbench",
      Strategy.Guard_pages,
      [ 0; 0; 0; 31; 481 ],
      8121,
      "a8664c0603588d4594c4df6ed407c82c" );
  ]

let test_opt_golden_pins () =
  List.iter
    (fun (name, strategy, changed, length, fingerprint) ->
      let tag = name ^ "/" ^ Strategy.to_string strategy in
      let w = Hfi_workloads.Spec.workload (Hfi_workloads.Spec.find name) in
      let conv =
        Instance.opt_conv ~strategy ~heap_size:(Instance.round_to_wasm_page w.Instance.heap_bytes)
      in
      let results = Driver.passes conv (Instance.build_program ~strategy ~optimize:false w) in
      Alcotest.(check (list string))
        (tag ^ ": pass order")
        [ "elide"; "reuse"; "hoist"; "rewrite"; "dce" ]
        (List.map (fun r -> r.Driver.pass) results);
      Alcotest.(check (list int))
        (tag ^ ": changed per pass")
        changed
        (List.map (fun r -> r.Driver.changed) results);
      let final = (List.nth results (List.length results - 1)).Driver.prog in
      check_int (tag ^ ": length") length (Program.length final);
      Alcotest.(check string) (tag ^ ": fingerprint") fingerprint (Program.fingerprint final))
    opt_pins

(* ------------------------------------------------------------------ *)
(* SFI passes on codegen-shaped workloads                               *)

(* One heap load at a constant index: the interval analysis proves it in
   bounds, so elision must strip the check entirely. *)
let elide_workload =
  Instance.workload ~name:"opt-elide" ~heap_bytes:65536
    ~init:(fun mem ~heap_base -> Addr_space.poke mem ~addr:(heap_base + 16) ~bytes:8 123)
    (fun cg ->
      Codegen.emit cg (Instr.Mov (Reg.RCX, Instr.Imm 16));
      Codegen.load_heap cg Instr.W8 ~dst:Reg.RBX ~addr:Reg.RCX ~offset:0;
      Codegen.emit cg (Instr.Mov (Reg.RAX, Instr.Reg Reg.RBX)))

(* Read-modify-write at an index loaded from the heap: the index is
   statically unbounded, so elision cannot fire — the second access has
   the same (reg, scale, disp) key and its check must be reused away. *)
let reuse_workload =
  Instance.workload ~name:"opt-reuse" ~heap_bytes:65536
    ~init:(fun mem ~heap_base ->
      Addr_space.poke mem ~addr:heap_base ~bytes:8 40;
      Addr_space.poke mem ~addr:(heap_base + 40) ~bytes:8 7)
    (fun cg ->
      Codegen.emit cg (Instr.Mov (Reg.RDX, Instr.Imm 0));
      Codegen.load_heap cg Instr.W8 ~dst:Reg.RCX ~addr:Reg.RDX ~offset:0;
      Codegen.load_heap cg Instr.W8 ~dst:Reg.RBX ~addr:Reg.RCX ~offset:0;
      Codegen.emit cg (Instr.Alu (Instr.Add, Reg.RBX, Instr.Imm 1));
      Codegen.store_heap cg Instr.W8 ~addr:Reg.RCX ~offset:0 ~src:(Instr.Reg Reg.RBX);
      Codegen.emit cg (Instr.Mov (Reg.RAX, Instr.Reg Reg.RBX)))

(* A loop that re-reads heap[k] where k is loop-invariant but statically
   unbounded: the per-iteration check must move to the preheader. *)
let hoist_iters = 100

let hoist_workload =
  Instance.workload ~name:"opt-hoist" ~heap_bytes:65536
    ~init:(fun mem ~heap_base ->
      Addr_space.poke mem ~addr:heap_base ~bytes:8 48;
      Addr_space.poke mem ~addr:(heap_base + 48) ~bytes:8 5)
    (fun cg ->
      Codegen.emit cg (Instr.Mov (Reg.RDX, Instr.Imm 0));
      Codegen.load_heap cg Instr.W8 ~dst:Reg.RCX ~addr:Reg.RDX ~offset:0;
      Codegen.emit cg (Instr.Mov (Reg.RAX, Instr.Imm 0));
      Codegen.emit cg (Instr.Mov (Reg.RBX, Instr.Imm hoist_iters));
      Codegen.label cg "loop";
      Codegen.load_heap cg Instr.W8 ~dst:Reg.R8 ~addr:Reg.RCX ~offset:0;
      Codegen.emit cg (Instr.Alu (Instr.Add, Reg.RAX, Instr.Reg Reg.R8));
      Codegen.emit cg (Instr.Alu (Instr.Sub, Reg.RBX, Instr.Imm 1));
      Codegen.emit cg (Instr.Cmp (Reg.RBX, Instr.Imm 0));
      Codegen.jcc cg Instr.Gt "loop")

let checked_strategies = [ Strategy.Bounds_checks; Strategy.Masking ]

let pass_changed name strategy w =
  let heap_size = Instance.round_to_wasm_page w.Instance.heap_bytes in
  let conv = Instance.opt_conv ~strategy ~heap_size in
  let prog = Instance.build_program ~strategy ~optimize:false w in
  match List.find_opt (fun r -> r.Driver.pass = name) (Driver.passes conv prog) with
  | Some r -> r.Driver.changed
  | None -> Alcotest.failf "pass %s missing from the pipeline" name

let test_elide_strips_provable_checks () =
  List.iter
    (fun strategy ->
      let tag = Strategy.to_string strategy in
      let ref_p = Instance.build_program ~strategy ~optimize:false elide_workload in
      let opt_p = Instance.build_program ~strategy ~optimize:true elide_workload in
      check_int (tag ^ ": reference has the check") 1 (check_count strategy ref_p);
      check_int (tag ^ ": check elided") 0 (check_count strategy opt_p);
      let off = run_measured ~strategy ~optimize:false elide_workload in
      let on = run_measured ~strategy ~optimize:true elide_workload in
      check_int (tag ^ ": reference result") 123 off.rax;
      check_int (tag ^ ": optimized result") 123 on.rax;
      check_bool (tag ^ ": fewer dynamic instrs") true (on.instrs < off.instrs);
      assert_safe ("elide/" ^ tag) strategy opt_p)
    checked_strategies

let test_reuse_drops_redundant_check () =
  List.iter
    (fun strategy ->
      let tag = Strategy.to_string strategy in
      let ref_p = Instance.build_program ~strategy ~optimize:false reuse_workload in
      let opt_p = Instance.build_program ~strategy ~optimize:true reuse_workload in
      check_int (tag ^ ": three checks in the reference") 3 (check_count strategy ref_p);
      (* constant-index check elided, store check reused: one survives *)
      check_int (tag ^ ": one check survives") 1 (check_count strategy opt_p);
      check_bool (tag ^ ": reuse pass fired") true (pass_changed "reuse" strategy reuse_workload >= 1);
      let off = run_measured ~strategy ~optimize:false reuse_workload in
      let on = run_measured ~strategy ~optimize:true reuse_workload in
      check_int (tag ^ ": reference result") 8 off.rax;
      check_int (tag ^ ": optimized result") 8 on.rax;
      assert_safe ("reuse/" ^ tag) strategy opt_p)
    checked_strategies

let test_hoist_moves_invariant_check () =
  List.iter
    (fun strategy ->
      let tag = Strategy.to_string strategy in
      check_bool (tag ^ ": hoist pass fired") true (pass_changed "hoist" strategy hoist_workload >= 1);
      let off = run_measured ~strategy ~optimize:false hoist_workload in
      let on = run_measured ~strategy ~optimize:true hoist_workload in
      check_int (tag ^ ": reference result") (5 * hoist_iters) off.rax;
      check_int (tag ^ ": optimized result") (5 * hoist_iters) on.rax;
      (* the hoisted check ran once instead of once per iteration *)
      let per_iter = match strategy with Strategy.Bounds_checks -> 3 | _ -> 2 in
      check_bool
        (Printf.sprintf "%s: saved >= %d dynamic instrs" tag (per_iter * (hoist_iters - 1)))
        true
        (off.instrs - on.instrs >= per_iter * (hoist_iters - 1));
      let opt_p = Instance.build_program ~strategy ~optimize:true hoist_workload in
      assert_safe ("hoist/" ^ tag) strategy opt_p)
    checked_strategies

(* ------------------------------------------------------------------ *)
(* Linear-scan register allocation                                      *)

let regalloc_pool = [ Reg.RBX; Reg.RSI; Reg.RDI; Reg.R8; Reg.R9; Reg.R10; Reg.R11 ]
let regalloc_scratch = [ Reg.R12; Reg.R15 ]
let regalloc_spill_base = Layout.globals_base + 0xC000

(* Seven simultaneously-live accumulators bumped in a loop, summed at
   the end: r_i = (i+1) + iters, so the sum is 28 + 7*iters. *)
let regalloc_iters = 50
let regalloc_expected = 28 + (List.length regalloc_pool * regalloc_iters)

let regalloc_workload =
  Instance.workload ~name:"opt-regalloc" ~heap_bytes:65536 (fun cg ->
      List.iteri (fun i r -> Codegen.emit cg (Instr.Mov (r, Instr.Imm (i + 1)))) regalloc_pool;
      Codegen.emit cg (Instr.Mov (Reg.RCX, Instr.Imm regalloc_iters));
      Codegen.label cg "loop";
      List.iter (fun r -> Codegen.emit cg (Instr.Alu (Instr.Add, r, Instr.Imm 1))) regalloc_pool;
      Codegen.emit cg (Instr.Alu (Instr.Sub, Reg.RCX, Instr.Imm 1));
      Codegen.emit cg (Instr.Cmp (Reg.RCX, Instr.Imm 0));
      Codegen.jcc cg Instr.Gt "loop";
      Codegen.emit cg (Instr.Mov (Reg.RAX, Instr.Imm 0));
      List.iter
        (fun r -> Codegen.emit cg (Instr.Alu (Instr.Add, Reg.RAX, Instr.Reg r)))
        regalloc_pool)

let test_regalloc_spills_preserve_results () =
  let stats = ref None in
  let transform p =
    match
      Regalloc.allocate ~code_base:Layout.code_base ~allocatable:regalloc_pool ~avail:4
        ~scratch:regalloc_scratch ~spill_base:regalloc_spill_base p
    with
    | Some (p', s) ->
      stats := Some s;
      p'
    | None -> Alcotest.fail "allocator refused a closed register loop"
  in
  let inst =
    Instance.instantiate ~strategy:Strategy.Hfi ~optimize:false ~transform regalloc_workload
  in
  let _, status = Instance.run_fast inst in
  check_bool "halted" true (status = Machine.Halted);
  check_int "result identical under spilling" regalloc_expected (Instance.result_rax inst);
  match !stats with
  | None -> Alcotest.fail "no stats captured"
  | Some s ->
    check_int "every pool register has an interval" (List.length regalloc_pool) s.Regalloc.intervals;
    check_int "three ranges lost the pool" 3 (List.length s.Regalloc.spilled);
    check_bool "reloads inserted" true (s.Regalloc.reloads > 0);
    check_bool "writebacks inserted" true (s.Regalloc.writebacks > 0)

let test_regalloc_full_pool_is_identity_on_results () =
  let transform p =
    match
      Regalloc.allocate ~code_base:Layout.code_base ~allocatable:regalloc_pool
        ~avail:(List.length regalloc_pool) ~scratch:regalloc_scratch
        ~spill_base:regalloc_spill_base p
    with
    | Some (p', s) ->
      check_int "nothing spilled with a full pool" 0 (List.length s.Regalloc.spilled);
      p'
    | None -> Alcotest.fail "allocator refused a closed register loop"
  in
  let inst =
    Instance.instantiate ~strategy:Strategy.Hfi ~optimize:false ~transform regalloc_workload
  in
  let _, status = Instance.run_fast inst in
  check_bool "halted" true (status = Machine.Halted);
  check_int "result" regalloc_expected (Instance.result_rax inst)

let test_regalloc_refusals () =
  let alloc prog =
    Regalloc.allocate ~code_base:Layout.code_base ~allocatable:regalloc_pool ~avail:4
      ~scratch:regalloc_scratch ~spill_base:regalloc_spill_base prog
  in
  (* Syscalls observe registers by the kernel ABI: renaming is unsound. *)
  check_bool "refuses syscalls" true
    (alloc (Program.of_instrs [| Instr.Mov (Reg.RBX, Instr.Imm 1); Instr.Syscall; Instr.Halt |])
    = None);
  (* A program READ of a scratch register would observe our clobbers. *)
  check_bool "refuses scratch reads" true
    (alloc (Program.of_instrs [| Instr.Mov (Reg.RAX, Instr.Reg Reg.R12); Instr.Halt |]) = None);
  (* Indirect flow defeats the static CFG. *)
  check_bool "refuses indirect jumps" true
    (alloc (Program.of_instrs [| Instr.Jmp_ind Reg.RBX; Instr.Halt |]) = None)

(* ------------------------------------------------------------------ *)
(* Opt-vs-reference differential over the Sightglass corpus             *)

let test_opt_backend_equivalence_and_reduction () =
  (* measure already fails the run if any optimized kernel's RAX
     diverges from the reference under any strategy; on top of that the
     acceptance bar is a >=15% dynamic-instruction reduction for the
     check-heavy schemes, and no strategy may regress. *)
  let rows = Hfi_experiments.Opt_backend.measure ~quick:true () in
  List.iter
    (fun r ->
      check_bool
        (r.Hfi_experiments.Opt_backend.strategy ^ ": no regression")
        true
        (r.Hfi_experiments.Opt_backend.instrs_on <= r.Hfi_experiments.Opt_backend.instrs_off))
    rows;
  let pct name =
    match List.find_opt (fun r -> r.Hfi_experiments.Opt_backend.strategy = name) rows with
    | Some r ->
      (1.0
      -. (float_of_int r.Hfi_experiments.Opt_backend.instrs_on
         /. float_of_int r.Hfi_experiments.Opt_backend.instrs_off))
      *. 100.0
    | None -> Alcotest.failf "strategy %s missing" name
  in
  check_bool "bounds-checks >= 15% fewer instrs" true (pct "bounds-checks" >= 15.0);
  check_bool "masking >= 15% fewer instrs" true (pct "masking" >= 15.0)

let suite =
  [
    Alcotest.test_case "mask_of_size basics" `Quick test_mask_of_size_basics;
    Alcotest.test_case "mask_of_size rejects non-positive" `Quick test_mask_of_size_rejects_nonpositive;
    Alcotest.test_case "mask_of_size saturates near max_int" `Quick test_mask_of_size_saturates;
    Alcotest.test_case "mask_of_size window covers the heap" `Quick test_mask_of_size_covers_window;
    Alcotest.test_case "dominator tree" `Quick test_dom_tree;
    Alcotest.test_case "natural loop detection" `Quick test_natural_loop;
    Alcotest.test_case "edit: branch to deleted instr" `Quick test_edit_branch_to_deleted;
    Alcotest.test_case "edit: branch to replacement body" `Quick test_edit_branch_to_replacement;
    Alcotest.test_case "edit: insert_before is fallthrough-only" `Quick
      test_edit_insert_before_skipped_by_branch;
    Alcotest.test_case "edit: rebuild == list-based reference, random scripts" `Quick
      test_edit_rebuild_matches_reference;
    Alcotest.test_case "carried decode == fresh decode, every pass output" `Quick
      test_carried_decode_matches_fresh;
    Alcotest.test_case "liveness across branches" `Quick test_liveness_branchy;
    Alcotest.test_case "liveness: worklist == round-robin oracle" `Quick
      test_liveness_matches_round_robin;
    Alcotest.test_case "liveness: dead mask == rebuilt program" `Quick
      test_liveness_dead_mask_matches_rebuild;
    Alcotest.test_case "liveness: prepared once == fresh, every DCE round" `Quick
      test_liveness_prepared_reuse;
    Alcotest.test_case "rewrite: constant folding" `Quick test_rewrite_const_fold;
    Alcotest.test_case "rewrite: strength reduction" `Quick test_rewrite_strength_reduction;
    Alcotest.test_case "rewrite: add-zero identity" `Quick test_rewrite_add_zero_identity;
    Alcotest.test_case "rewrite: two heirs fold from the branch block's facts" `Quick
      test_rewrite_two_heirs_fold_from_branch_facts;
    Alcotest.test_case "dce: dead definition swept" `Quick test_dce_removes_dead_def;
    Alcotest.test_case "pipeline: golden pins (gobmk, gcc, perlbench)" `Quick test_opt_golden_pins;
    Alcotest.test_case "elide: provable checks stripped" `Quick test_elide_strips_provable_checks;
    Alcotest.test_case "reuse: redundant check dropped" `Quick test_reuse_drops_redundant_check;
    Alcotest.test_case "hoist: invariant check to preheader" `Quick test_hoist_moves_invariant_check;
    Alcotest.test_case "regalloc: spills preserve results" `Quick test_regalloc_spills_preserve_results;
    Alcotest.test_case "regalloc: full pool, no spills" `Quick
      test_regalloc_full_pool_is_identity_on_results;
    Alcotest.test_case "regalloc: refuses unsound programs" `Quick test_regalloc_refusals;
    Alcotest.test_case "opt-backend: equivalence + 15% reduction" `Slow
      test_opt_backend_equivalence_and_reduction;
  ]
