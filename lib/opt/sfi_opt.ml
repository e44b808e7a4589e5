(* Strategy-aware SFI check optimization.

   Three sub-passes over the exact check shapes [lib/wasm/codegen.ml]
   emits, each one legal for its strategy:

   - [elide]: interval-proved check elision. A Bounds_checks group
       lea r15, [idx*scale + disp]
       cmp r15, [heap_bound_cell]
       jae __wasm_trap
       op  [r14 + r15]
     collapses to [op [r14 + idx*scale + disp]] when the fixpoint
     interval of [idx*scale + disp] fits below the INITIAL heap size:
     the bound cell starts there and only grows (memory.grow), so the
     compare can never take the trap edge and the checked address equals
     the unchecked one. A Masking group's [and r15, mask] drops when the
     address interval already fits inside the mask (the AND is the
     identity, so the masked address is bit-identical). Guard_pages and
     HFI accesses carry no software check to elide.

   - [reuse]: dominance-based redundant-check elimination as a forward
     must-analysis of the one fact the scratch register can carry:
     "r15 holds the checked (or masked) value of key (idx, scale,
     disp)". A later group with the same key whose fact survives — no
     write to r15 or idx in between, control reaching it only from the
     point that established the fact — drops its whole check; the
     access keeps reading r15, whose dynamic value is unchanged, and
     the verifier keeps the branch-refined interval it proved at the
     first check.

   - [hoist]: loop-invariant check hoisting. A group in a natural-loop
     header whose index register is never written inside the loop moves
     to the preheader ([Edit.insert_before]: back edges skip it, the
     fallthrough entry runs it). Legal because loop headers execute on
     every trip including the first, the instructions skipped over are
     register-pure and non-trapping, and a grow can only widen the
     bound mid-loop — a check that passed once passes forever.

   Every rewrite keeps the optimizer inside what the PR 5 verifier can
   re-prove on the output: elision leaves addresses the window check
   covers by interval reasoning alone, reuse and hoisting leave the
   refined scratch interval flowing to the access unchanged. *)

type conv = {
  strategy : Hfi_sfi.Strategy.t;
  code_base : int;
  heap_base : int;
  heap_size : int;  (* initial heap size: invariant lower bound of the bound cell *)
  heap_limit : int;  (* architectural 4 GiB ceiling of the bound cell *)
  bound_cell : int;
  mask : int;  (* masking window mask (mask_of_size heap_size) *)
  base_reg : int;  (* Reg.index of the heap base register *)
  scratch : int;  (* Reg.index of the check scratch register *)
}

type group = {
  g_first : int;  (* index of the lea *)
  g_access : int;  (* index of the access instruction *)
  g_midx : int;
  g_mscale : int;
  g_mdisp : int;
}

let group_key g = (g.g_midx, g.g_mscale, g.g_mdisp)

(* The checked access: a plain load/store of [r14 + r15*1] that does
   not otherwise involve the scratch register. *)
let is_checked_access conv (uops : Uop.t array) i =
  i < Array.length uops
  &&
  match uops.(i).Uop.op with
  | Uop.Oload { mbase; midx; mscale; mdisp; _ } ->
    mbase = conv.base_reg && midx = conv.scratch && mscale = 1 && mdisp = 0
  | Uop.Ostore { mbase; midx; mscale; mdisp; sreg; _ } ->
    mbase = conv.base_reg && midx = conv.scratch && mscale = 1 && mdisp = 0
    && sreg <> conv.scratch
  | _ -> false

let group_at conv (uops : Uop.t array) i =
  let n = Array.length uops in
  match conv.strategy with
  | Hfi_sfi.Strategy.Bounds_checks ->
    if i + 3 >= n then None
    else begin
      match (uops.(i).Uop.op, uops.(i + 1).Uop.op, uops.(i + 2).Uop.op) with
      | ( Uop.Olea { d; mbase = -1; midx; mscale; mdisp },
          Uop.Ocmp_mem { d = dc; mbase = -1; midx = -1; mdisp = cell; _ },
          Uop.Ojcc { cond = Instr.Uge; _ } )
        when d = conv.scratch && dc = conv.scratch && cell = conv.bound_cell
             && midx <> conv.scratch && is_checked_access conv uops (i + 3) ->
        Some { g_first = i; g_access = i + 3; g_midx = midx; g_mscale = mscale; g_mdisp = mdisp }
      | _ -> None
    end
  | Hfi_sfi.Strategy.Masking ->
    if i + 2 >= n then None
    else begin
      match (uops.(i).Uop.op, uops.(i + 1).Uop.op) with
      | ( Uop.Olea { d; mbase = -1; midx; mscale; mdisp },
          Uop.Oalu { op = Instr.And; d = da; sreg = -1; simm } )
        when d = conv.scratch && da = conv.scratch && simm = conv.mask && midx <> conv.scratch
             && is_checked_access conv uops (i + 2) ->
        Some { g_first = i; g_access = i + 2; g_midx = midx; g_mscale = mscale; g_mdisp = mdisp }
      | _ -> None
    end
  | Hfi_sfi.Strategy.Guard_pages | Hfi_sfi.Strategy.Hfi -> None

(* Rebuild the access to address [idx*scale + disp] directly off the
   heap base register, from the original AST instruction. *)
let direct_access conv (edit : Edit.t) g =
  let m =
    match Edit.original edit g.g_first with
    | Instr.Lea (_, m) -> { m with Instr.base = Some (Reg.of_index conv.base_reg) }
    | _ -> assert false
  in
  match Edit.original edit g.g_access with
  | Instr.Load (w, d, _) -> Instr.Load (w, d, m)
  | Instr.Store (w, _, src) -> Instr.Store (w, m, src)
  | _ -> assert false

let decoded conv prog =
  let uops = Uop.decode prog ~code_base:conv.code_base in
  (uops, Cfg.build uops (Uop.layout prog ~code_base:conv.code_base))

(* ------------------------------------------------------------------ *)
(* Elision.                                                            *)

let elide conv prog =
  match conv.strategy with
  | Hfi_sfi.Strategy.Guard_pages | Hfi_sfi.Strategy.Hfi -> (prog, 0)
  | Hfi_sfi.Strategy.Bounds_checks | Hfi_sfi.Strategy.Masking ->
    let uops, cfg = decoded conv prog in
    let analysis =
      Analysis.compute ~bound_cell:conv.bound_cell ~heap_limit:conv.heap_limit uops cfg
    in
    let preds = Dom.preds_of cfg in
    let edit = Edit.create prog ~code_base:conv.code_base in
    let count = ref 0 in
    let provable_limit =
      match conv.strategy with
      | Hfi_sfi.Strategy.Bounds_checks -> conv.heap_size - 1
      | Hfi_sfi.Strategy.Masking -> conv.mask
      | Hfi_sfi.Strategy.Guard_pages | Hfi_sfi.Strategy.Hfi -> -1
    in
    let nb = Array.length cfg.Cfg.blocks in
    for b = 0 to nb - 1 do
      Analysis.iter_block ~bound_cell:conv.bound_cell ~heap_limit:conv.heap_limit analysis b
        ~f:(fun i regs ->
          match group_at conv uops i with
          | None -> ()
          | Some g ->
            (* the whole group must sit in block [b] except (for bounds)
               the access, which may only be entered through the check *)
            let bi = cfg.Cfg.block_of_instr in
            let access_ok =
              if bi.(g.g_access) = b then true
              else
                bi.(g.g_access - 1) = b
                && List.sort_uniq Int.compare preds.(bi.(g.g_access)) = [ b ]
            in
            if access_ok && bi.(g.g_access - 1) = b then begin
              let av = Analysis.ea_value regs ~midx:g.g_midx ~mscale:g.g_mscale ~mdisp:g.g_mdisp in
              if Domain.has_bounds av && Domain.lower av >= 0 && Domain.upper av <= provable_limit
              then begin
                for k = g.g_first to g.g_access - 1 do
                  Edit.delete edit k
                done;
                Edit.replace edit g.g_access [ direct_access conv edit g ];
                incr count
              end
            end)
    done;
    if Edit.changed edit then (Edit.rebuild edit, !count) else (prog, 0)

(* ------------------------------------------------------------------ *)
(* Redundant-check reuse.                                              *)

let reuse conv prog =
  match conv.strategy with
  | Hfi_sfi.Strategy.Guard_pages | Hfi_sfi.Strategy.Hfi -> (prog, 0)
  | Hfi_sfi.Strategy.Bounds_checks | Hfi_sfi.Strategy.Masking ->
    let uops, cfg = decoded conv prog in
    let layout = Uop.layout prog ~code_base:conv.code_base in
    let n = Array.length uops in
    let preds = Dom.preds_of cfg in
    let edit = Edit.create prog ~code_base:conv.code_base in
    let count = ref 0 in
    let fact = ref None in
    let writes_reg (u : Uop.t) r = Array.exists (fun w -> w = r) u.Uop.writes in
    let kill_on u =
      match !fact with
      | None -> ()
      | Some (midx, _, _) ->
        if writes_reg u conv.scratch || writes_reg u midx || Liveness.reads_everything u then
          fact := None
    in
    let i = ref 0 in
    while !i < n do
      let at = !i in
      (* crossing into a block head: the fact survives only if every
         path into the block comes from the block we just scanned *)
      (if at > 0 && Uop.is_block_head layout at then
         let b = cfg.Cfg.block_of_instr.(at) in
         if List.sort_uniq Int.compare preds.(b) <> [ cfg.Cfg.block_of_instr.(at - 1) ] then fact := None);
      (match group_at conv uops at with
      | Some g ->
        let key = group_key g in
        (if !fact = Some key then begin
           for k = g.g_first to g.g_access - 1 do
             Edit.delete edit k
           done;
           incr count
         end
         else fact := Some key);
        (* the fact is only valid past the access if control can reach
           it solely through this check *)
        (if Uop.is_block_head layout g.g_access then
           let ab = cfg.Cfg.block_of_instr.(g.g_access) in
           if List.sort_uniq Int.compare preds.(ab) <> [ cfg.Cfg.block_of_instr.(g.g_access - 1) ]
           then fact := None);
        (* the access itself may clobber the scratch (load into r15) *)
        kill_on uops.(g.g_access);
        i := g.g_access + 1
      | None ->
        kill_on uops.(at);
        incr i)
    done;
    if Edit.changed edit then (Edit.rebuild edit, !count) else (prog, 0)

(* ------------------------------------------------------------------ *)
(* Loop-invariant check hoisting.                                      *)

(* Register-pure, non-trapping: safe to reorder after a hoisted trap. *)
let pure_prefix_instr (u : Uop.t) =
  match u.Uop.op with
  | Uop.Omov _ | Uop.Olea _ | Uop.Ocmp _ | Uop.Onop -> true
  | Uop.Oalu { op = Instr.Div; _ } -> false
  | Uop.Oalu _ -> true
  | _ -> false

let hoist_once conv prog =
  match conv.strategy with
  | Hfi_sfi.Strategy.Guard_pages | Hfi_sfi.Strategy.Hfi -> (prog, 0)
  | Hfi_sfi.Strategy.Bounds_checks | Hfi_sfi.Strategy.Masking ->
    let uops, cfg = decoded conv prog in
    let dom = Dom.compute cfg in
    let loops = Dom.loops cfg dom in
    let edit = Edit.create prog ~code_base:conv.code_base in
    let count = ref 0 in
    let blocks = cfg.Cfg.blocks in
    let try_loop (l : Dom.loop) =
      let h = blocks.(l.Dom.header) in
      let in_body b = List.mem b l.Dom.body in
      (* single outside predecessor, entering by falling through *)
      let outside = List.filter (fun p -> not (in_body p)) dom.Dom.preds.(l.Dom.header) in
      let fallthrough_entry =
        match List.sort_uniq Int.compare outside with
        | [ p ] -> (
          p = l.Dom.header - 1
          &&
          match blocks.(p).Cfg.term with
          | Cfg.Tfall (Some f) | Cfg.Tcond { fall = Some f; _ } -> f = l.Dom.header
          | _ -> false)
        | _ -> false
      in
      if fallthrough_entry then begin
        (* find a group whose check part lies in the header *)
        let found = ref None in
        let gi = ref h.Cfg.first in
        while !found = None && !gi <= h.Cfg.last do
          (match group_at conv uops !gi with
          | Some g when cfg.Cfg.block_of_instr.(g.g_access - 1) = l.Dom.header -> found := Some g
          | _ -> ());
          incr gi
        done;
        match !found with
        | None -> ()
        | Some g ->
          let idx_ok = g.g_midx >= 0 in
          (* header prefix before the check: register-pure, no writes to
             the index or scratch *)
          let prefix_ok = ref true in
          for k = h.Cfg.first to g.g_first - 1 do
            let u = uops.(k) in
            if
              (not (pure_prefix_instr u))
              || Array.exists (fun w -> w = g.g_midx || w = conv.scratch) u.Uop.writes
            then prefix_ok := false
          done;
          (* inside the whole loop: the index register is never written,
             the scratch is written only by this group's lea and read
             only by this group's access, and control never leaves
             through calls/syscalls *)
          let body_ok = ref true in
          List.iter
            (fun b ->
              let blk = blocks.(b) in
              (* every conditional branch in the loop except the hoisted
                 check must read its own adjacent compare: after the
                 move, the preheader compare may not become the pending
                 snapshot of an unrelated branch *)
              (match blk.Cfg.term with
              | Cfg.Tcond _ when blk.Cfg.last <> g.g_access - 1 -> (
                if blk.Cfg.last = blk.Cfg.first then body_ok := false
                else
                  match uops.(blk.Cfg.last - 1).Uop.op with
                  | Uop.Ocmp _ | Uop.Ocmp_mem _ -> ()
                  | _ -> body_ok := false)
              | _ -> ());
              for k = blk.Cfg.first to blk.Cfg.last do
                if k < g.g_first || k > g.g_access then begin
                  let u = uops.(k) in
                  if
                    Array.exists (fun w -> w = g.g_midx || w = conv.scratch) u.Uop.writes
                    || Array.exists (fun r -> r = conv.scratch) u.Uop.reads
                    || Liveness.reads_everything u
                  then body_ok := false;
                  match u.Uop.op with
                  | Uop.Ocall _ | Uop.Ocall_ind _ | Uop.Oret -> body_ok := false
                  (* a static store to the heap-bound cell (memory.grow)
                     would let the bound move under the hoisted check *)
                  | Uop.Ostore { mbase = -1; midx = -1; mdisp; _ } when mdisp = conv.bound_cell ->
                    body_ok := false
                  | _ -> ()
                end
              done)
            l.Dom.body;
          if idx_ok && !prefix_ok && !body_ok then begin
            let moved = ref [] in
            for k = g.g_access - 1 downto g.g_first do
              moved := Edit.original edit k :: !moved;
              Edit.delete edit k
            done;
            Edit.insert_before edit h.Cfg.first !moved;
            incr count
          end
      end
    in
    List.iter try_loop loops;
    if Edit.changed edit then (Edit.rebuild edit, !count) else (prog, 0)

(* Nested loops interact through the scratch register: hoisting into an
   inner preheader puts a scratch write inside the outer body, which the
   outer loop's legality scan must then see. Iterating to a fixpoint
   (bounded) keeps each step checked against the current program. *)
let hoist conv prog =
  let rec go prog total round =
    if round >= 8 then (prog, total)
    else begin
      let prog', n = hoist_once conv prog in
      if n = 0 then (prog, total) else go prog' (total + n) (round + 1)
    end
  in
  go prog 0 0
