type spec = Transfer.spec = { strategy : Hfi_sfi.Strategy.t; code_base : int }

(* Bump whenever the analysis itself changes meaning: persistent
   verdict-cache entries and proof artifacts are keyed/checked against
   it, so a stale result can never be replayed against a newer
   verifier. v2 = relational domain (affine facts, threshold widening,
   fact-directed branch refinement). *)
let verifier_version = 2

let widen_threshold = 3

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

(* ------------------------------------------------------------------ *)
(* Fixpoint driver.                                                    *)

(* the recorded contribution of the edge from block [b] *)
let rec edge_from (b : int) = function
  | [] -> None
  | (s, st) :: rest -> if s = b then Some st else edge_from b rest

(* [acc] joined with each edge contribution, left to right *)
let rec join_edges acc = function
  | [] -> acc
  | (_, s) :: rest -> join_edges (Vstate.join acc s) rest

(* Outcome of the fixpoint: the report's raw material plus — when the
   analysis converged — the per-block entry invariants a proof artifact
   records. *)
let verify_internal ?(name = "program") spec prog =
  let ctx = Transfer.make_ctx spec prog in
  let uops = ctx.Transfer.uops in
  let cfg = ctx.Transfer.cfg in
  let n = Array.length uops in
  let thresholds = collect_thresholds uops ctx.Transfer.wins in
  let nb = Array.length cfg.Cfg.blocks in
  let iterations = ref 0 in
  let in_states = Array.make (max nb 1) None in
  let stable = ref (nb = 0) in
  if nb > 0 then begin
    let init = Vstate.initial () in
    let visits = Array.make nb 0 in
    (* per target block: the latest contribution of each incoming edge,
       as a list sorted by source block *)
    let in_edges : (int * Vstate.t) list array = Array.make nb [] in
    let rec set_edge (s : int) st = function
      | ((s', _) as e) :: rest when s' < s -> e :: set_edge s st rest
      | (s', _) :: rest when s' = s -> (s, st) :: rest
      | edges -> (s, st) :: edges
    in
    (* Sinks (see [Cfg.is_sink]) — chiefly the shared Wasm trap block,
       which every bounds check branches to — stay off the worklist.
       Their edge contributions are recorded as usual, but nothing
       reads a sink's in-state during the fixpoint, so re-folding its
       hundreds of in-edges on every change would be pure waste. Each
       sink is solved once, after the narrowing drain, as the sorted
       join of its final contributions. That is exactly where the
       worklist would have left it: narrowing first installs the pure
       join over every block, and each later narrowing recompute
       installs the join directly, so verdicts and proof invariants are
       unchanged; only [iterations] drops by the sink pops it skips. *)
    let sink = Array.map (Cfg.is_sink cfg) cfg.Cfg.blocks in
    let queue = Queue.create () in
    let on_queue = Array.make nb false in
    let enqueue b =
      if not on_queue.(b) then begin
        on_queue.(b) <- true;
        Queue.push b queue
      end
    in
    let narrowing = ref false in
    (* Fold the incoming edges in sorted order: fact inference at joins
       makes the join only associative-commutative up to which fact is
       born first, so a fixed edge order keeps reports byte-identical
       run to run (and across --jobs shardings). *)
    let joined_in b =
      match in_edges.(b) with
      | [] -> if b = 0 then Some init else None
      | (_, s) :: rest -> Some (join_edges (if b = 0 then Vstate.join init s else s) rest)
    in
    let recompute b =
      match joined_in b with
      | None -> ()
      | Some j -> (
        match in_states.(b) with
        | None ->
          in_states.(b) <- Some j;
          enqueue b
        | Some cur ->
          if !narrowing then begin
            (* states only shrink here and stay above the fixpoint, so a
               bounded budget keeps this sound wherever it stops *)
            if not (Vstate.equal j cur) then begin
              in_states.(b) <- Some j;
              enqueue b
            end
          end
          else begin
            let u = Vstate.join cur j in
            if not (Vstate.equal u cur) then begin
              visits.(b) <- visits.(b) + 1;
              in_states.(b) <-
                Some (if visits.(b) > widen_threshold then Vstate.widen ~thresholds cur u else u);
              enqueue b
            end
          end)
    in
    let process b =
      on_queue.(b) <- false;
      incr iterations;
      match in_states.(b) with
      | None -> ()
      | Some s ->
        List.iter
          (fun (t, contrib) ->
            match edge_from b in_edges.(t) with
            | Some old when Vstate.equal old contrib -> ()
            | _ ->
              in_edges.(t) <- set_edge b contrib in_edges.(t);
              if not sink.(t) then recompute t)
          (Transfer.simulate ctx ~record:false s cfg.Cfg.blocks.(b))
    in
    let drain budget =
      let left = ref budget in
      while (not (Queue.is_empty queue)) && !left > 0 do
        decr left;
        process (Queue.pop queue)
      done;
      Queue.is_empty queue
    in
    in_states.(0) <- Some init;
    enqueue 0;
    let converged = drain ((200 * nb) + 1000) in
    if not converged then
      (* states below the fixpoint are not a safe basis for reporting *)
      ctx.Transfer.reasons <-
        { Report.r_index = None; what = "fixpoint budget exhausted" } :: ctx.Transfer.reasons
    else begin
      narrowing := true;
      Queue.clear queue;
      Array.fill on_queue 0 nb false;
      (* Drop the widened in-states: replace each with the pure join of
         its edge contributions, which the ascending phase left at (or
         above) the fixpoint — e.g. a loop head widened to [0,+inf]
         whose back edge already carries the tight refined bound. The
         contributions themselves have not changed, so [recompute]
         alone would never fire; install directly, then re-simulate
         every block so downstream contributions shrink too. *)
      for b = 0 to nb - 1 do
        match (in_states.(b), joined_in b) with
        | Some cur, Some j when not (Vstate.equal j cur) -> in_states.(b) <- Some j
        | _ -> ()
      done;
      for b = 0 to nb - 1 do
        if Option.is_some in_states.(b) then enqueue b
      done;
      (* At quiescence (ascending or descending), every recorded edge
         contribution equals the transfer of its source's in-state and
         every in-state covers the join of its incoming contributions —
         exactly the inclusion property the independent proof checker
         revalidates. A narrowing pass cut short by the budget can break
         the mutual consistency, so only a fully drained queue yields
         proof-quality states. *)
      stable := drain (32 * nb);
      Queue.clear queue;
      Array.iteri (fun b is_sink -> if is_sink then in_states.(b) <- joined_in b) sink;
      (* reporting pass over the stable states *)
      for b = 0 to nb - 1 do
        match in_states.(b) with
        | None -> ()
        | Some s -> ignore (Transfer.simulate ctx ~record:true s cfg.Cfg.blocks.(b))
      done;
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
    end
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
      blocks = nb;
      instrs = n;
      checked_mem = ctx.Transfer.checked_mem;
      checked_branches = ctx.Transfer.checked_branches;
      iterations = !iterations;
    }
  in
  (report, if !stable then Some in_states else None)

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
