type spec = Transfer.spec = { strategy : Hfi_sfi.Strategy.t; code_base : int }

(* Bump whenever the analysis itself changes meaning: persistent
   verdict-cache entries and proof artifacts are keyed/checked against
   it, so a stale result can never be replayed against a newer
   verifier. v2 = relational domain (affine facts, threshold widening,
   fact-directed branch refinement). *)
let verifier_version = 2

(* Widening thresholds harvested from the program under verification:
   the immediates it compares against (the loop bounds that matter),
   the heap-bound invariant, and the window edges. An interval bound
   that grows during the ascending phase parks at the nearest threshold
   instead of infinity, so a later refine against the same immediate
   still has an exact operand (keeping e.g. a doubling multiply exact
   instead of overflow-degrading to top). *)
let collect_thresholds (uops : Uop.t array) wins =
  let acc = ref [ 0 ] in
  let push v = acc := v :: !acc in
  let push3 v =
    if v > min_int then push (v - 1);
    push v;
    if v < max_int then push (v + 1)
  in
  Array.iter
    (fun (u : Uop.t) ->
      match u.Uop.op with
      | Uop.Ocmp { sreg; simm; _ } when sreg < 0 -> push3 simm
      | Uop.Ocmp_mem _ -> push3 Hfi_wasm.Layout.heap_max
      | _ -> ())
    uops;
  List.iter
    (fun { Transfer.wlo; whi } ->
      push3 wlo;
      push3 whi)
    wins;
  Array.of_list (List.sort_uniq compare !acc)

(* Outcome of the fixpoint: the report's raw material plus — when the
   analysis converged — the per-block entry invariants a proof artifact
   records. *)
let verify_internal ?(name = "program") spec prog =
  let ctx = Transfer.make_ctx spec prog in
  let uops = ctx.Transfer.uops in
  let cfg = ctx.Transfer.cfg in
  let thresholds = collect_thresholds uops ctx.Transfer.wins in
  let { Fixpoint.states = in_states; converged; stable; iterations } =
    Fixpoint.solve ~init:(Vstate.initial ()) ~join:Vstate.join
      ~widen:(fun old next -> Vstate.widen ~thresholds old next)
      ~equal:Vstate.equal
      ~transfer:(fun s blk -> Transfer.simulate ctx ~record:false s blk)
      cfg
  in
  if not converged then
    (* states below the fixpoint are not a safe basis for reporting *)
    ctx.Transfer.reasons <-
      { Report.r_index = None; what = "fixpoint budget exhausted" } :: ctx.Transfer.reasons
  else begin
    (* reporting pass over the solved states *)
    Array.iteri
      (fun b st ->
        match st with
        | None -> ()
        | Some s -> ignore (Transfer.simulate ctx ~record:true s cfg.Cfg.blocks.(b)))
      in_states;
    (* returns reachable with an empty call stack *)
    let extra = Hashtbl.fold (fun e () acc -> e :: acc) ctx.Transfer.dyn_edges [] in
    let d0 = Cfg.depth0_reachable ~extra_edges:extra cfg in
    Array.iter
      (fun (blk : Cfg.block) ->
        if blk.term = Cfg.Tret && in_states.(blk.id) <> None then
          if d0.(blk.id) then
            Transfer.reason ctx ~record:true blk.last "ret reachable with an empty call stack"
          else Transfer.count_branch ctx ~record:true)
      cfg.Cfg.blocks
  end;
  let verdict =
    if ctx.Transfer.viols <> [] then
      Report.Unsafe (List.sort_uniq Report.compare_violation ctx.Transfer.viols)
    else if ctx.Transfer.reasons <> [] then
      Report.Unknown (List.sort_uniq Report.compare_reason ctx.Transfer.reasons)
    else Report.Safe
  in
  let report =
    {
      Report.target = name;
      strategy = Hfi_sfi.Strategy.to_string spec.strategy;
      verdict;
      blocks = Array.length cfg.Cfg.blocks;
      instrs = Array.length uops;
      checked_mem = ctx.Transfer.checked_mem;
      checked_branches = ctx.Transfer.checked_branches;
      iterations;
    }
  in
  (report, if stable then Some in_states else None)

let verify ?name spec prog = fst (verify_internal ?name spec prog)

let verify_with_proof ?name spec prog =
  let report, states = verify_internal ?name spec prog in
  let proof =
    match (report.Report.verdict, states) with
    | Report.Safe, Some in_states ->
      let invariants = ref [] in
      for b = Array.length in_states - 1 downto 0 do
        match in_states.(b) with
        | Some st -> invariants := (b, st) :: !invariants
        | None -> ()
      done;
      Some
        {
          Proof.proof_version = Proof.current_version;
          verifier_version;
          target = report.Report.target;
          strategy = report.Report.strategy;
          fingerprint = Program.fingerprint prog;
          code_base = spec.code_base;
          blocks = report.Report.blocks;
          instrs = report.Report.instrs;
          invariants = !invariants;
        }
    | _ -> None
  in
  (report, proof)

let verify_workload ~strategy (w : Hfi_wasm.Instance.workload) =
  let prog = Hfi_wasm.Instance.build_program ~strategy w in
  verify ~name:w.Hfi_wasm.Instance.name
    { strategy; code_base = Hfi_wasm.Layout.code_base }
    prog

let verify_workload_with_proof ~strategy (w : Hfi_wasm.Instance.workload) =
  let prog = Hfi_wasm.Instance.build_program ~strategy w in
  verify_with_proof ~name:w.Hfi_wasm.Instance.name
    { strategy; code_base = Hfi_wasm.Layout.code_base }
    prog
