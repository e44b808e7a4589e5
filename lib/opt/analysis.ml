(* Forward interval analysis over the µop CFG — the optimizer's copy of
   the static verifier's register-state fixpoint (lib/verify/checks.ml),
   restricted to registers and the pending-compare snapshot. Both copies
   share the worklist shape: per-target edge lists folded in source
   order, and the sink rule ([Cfg.is_sink] blocks are solved once after
   the narrowing drain, never re-joined on the worklist). Transfer
   functions deliberately mirror the verifier instruction for
   instruction: every bound this analysis proves, the verifier re-proves
   on the optimized output, which is what makes check elision
   translation-validated by construction.

   [bound_cell] is the address of the trusted heap-size cell (written
   only by the prologue and memory.grow, never exceeding [heap_limit]);
   a [Cmp_mem] against it yields the same [0, heap_limit] right-hand
   interval the verifier assumes. *)

type state = { regs : Domain.t array; cmp_reg : int; cmp_rhs : Domain.t }

type t = {
  uops : Uop.t array;
  cfg : Cfg.t;
  in_states : state option array;  (* per block; None = unreachable *)
  converged : bool;
}

let join_cmp a b =
  if a.cmp_reg >= 0 && a.cmp_reg = b.cmp_reg then (a.cmp_reg, Domain.join a.cmp_rhs b.cmp_rhs)
  else (-1, Domain.top)

let join_st a b =
  let cmp_reg, cmp_rhs = join_cmp a b in
  { regs = Array.init (Array.length a.regs) (fun i -> Domain.join a.regs.(i) b.regs.(i)); cmp_reg; cmp_rhs }

let widen_st old next =
  let cmp_reg, cmp_rhs = join_cmp old next in
  {
    regs = Array.init (Array.length old.regs) (fun i -> Domain.widen old.regs.(i) next.regs.(i));
    cmp_reg;
    cmp_rhs;
  }

let initial_state () =
  let regs = Array.make Reg.count (Domain.const 0) in
  regs.(Reg.index Reg.RSP) <- Domain.Stackish;
  { regs; cmp_reg = -1; cmp_rhs = Domain.top }

let rsp_i = Reg.index Reg.RSP
let rbp_i = Reg.index Reg.RBP

(* One-instruction transfer on a mutable register array; shared by the
   block simulation and the per-instruction replay that passes use. *)
let step ~bound_cell ~heap_limit regs cmp_reg cmp_rhs (u : Uop.t) =
  let set_reg d v =
    regs.(d) <- v;
    if !cmp_reg = d then begin
      cmp_reg := -1;
      cmp_rhs := Domain.top
    end
  in
  let src_val sreg simm = if sreg >= 0 then regs.(sreg) else Domain.const simm in
  let eval_mem ~mbase ~midx ~mscale ~mdisp =
    let base = if mbase >= 0 then regs.(mbase) else Domain.const 0 in
    let idx =
      if midx >= 0 then Domain.alu Instr.Mul regs.(midx) (Domain.const mscale) else Domain.const 0
    in
    Domain.add (Domain.add base idx) (Domain.const mdisp)
  in
  let bump_rsp delta = set_reg rsp_i (Domain.add regs.(rsp_i) (Domain.const delta)) in
  match u.Uop.op with
  | Uop.Omov { d; sreg; simm } -> set_reg d (src_val sreg simm)
  | Uop.Oload { bytes; d; _ } -> set_reg d (Domain.load_result ~bytes)
  | Uop.Ostore _ -> ()
  | Uop.Ohload { bytes; d; _ } -> set_reg d (Domain.load_result ~bytes)
  | Uop.Ohstore _ -> ()
  | Uop.Olea { d; mbase; midx; mscale; mdisp } -> set_reg d (eval_mem ~mbase ~midx ~mscale ~mdisp)
  | Uop.Oalu { op; d; sreg; simm } ->
    let v =
      if sreg = d && (op = Instr.Xor || op = Instr.Sub) then Domain.const 0
      else Domain.alu op regs.(d) (src_val sreg simm)
    in
    set_reg d v
  | Uop.Ocmp { d; sreg; simm } ->
    cmp_reg := d;
    cmp_rhs := src_val sreg simm
  | Uop.Ocmp_mem { d; mbase; midx; mdisp; _ } ->
    cmp_reg := d;
    cmp_rhs :=
      (if mbase < 0 && midx < 0 && Some mdisp = bound_cell then Domain.itv 0 heap_limit
       else Domain.top)
  | Uop.Opush _ -> bump_rsp (-8)
  | Uop.Opop d ->
    bump_rsp 8;
    set_reg d (if d = rsp_i || d = rbp_i then Domain.Stackish else Domain.top)
  | Uop.Ocall _ | Uop.Ocall_ind _ -> bump_rsp (-8)
  | Uop.Oret -> bump_rsp 8
  | Uop.Osyscall -> set_reg (Reg.index Reg.RAX) Domain.top
  | Uop.Ohfi_get_region { d; _ } -> set_reg d Domain.top
  | Uop.Ocpuid ->
    List.iter (fun r -> set_reg (Reg.index r) (Domain.const 0)) [ Reg.RAX; Reg.RBX; Reg.RCX; Reg.RDX ]
  | Uop.Ordtsc d | Uop.Ordmsr d -> set_reg d Domain.top
  | Uop.Ohfi_enter _ | Uop.Ohfi_exit | Uop.Ohfi_reenter | Uop.Ohfi_set_region _
  | Uop.Ohfi_clear_region _ | Uop.Ohfi_clear_all | Uop.Oclflush _ | Uop.Omfence | Uop.Onop
  | Uop.Ojmp _ | Uop.Ojcc _ | Uop.Ojmp_ind _ | Uop.Ohalt ->
    ()

let simulate ~bound_cell ~heap_limit uops (cfg : Cfg.t) st0 (b : Cfg.block) =
  let regs = Array.copy st0.regs in
  let cmp_reg = ref st0.cmp_reg in
  let cmp_rhs = ref st0.cmp_rhs in
  for i = b.Cfg.first to b.Cfg.last do
    step ~bound_cell ~heap_limit regs cmp_reg cmp_rhs uops.(i)
  done;
  let out = { regs; cmp_reg = !cmp_reg; cmp_rhs = !cmp_rhs } in
  match b.Cfg.term with
  | Cfg.Tfall None | Cfg.Thalt | Cfg.Tjump_ind | Cfg.Tcall_ind _ | Cfg.Tout _ -> []
  | Cfg.Tfall (Some next) -> [ (next, out) ]
  | Cfg.Tjump t -> [ (t, out) ]
  | Cfg.Tcall { target; _ } -> [ (target, out) ]
  | Cfg.Tret -> List.map (fun rp -> (rp, out)) cfg.Cfg.ret_points
  | Cfg.Tcond { taken; fall } ->
    let cond =
      match uops.(b.Cfg.last).Uop.op with Uop.Ojcc { cond; _ } -> cond | _ -> assert false
    in
    let refined c =
      if !cmp_reg < 0 then Some out
      else begin
        let r = Domain.refine c regs.(!cmp_reg) ~rhs:!cmp_rhs in
        if Domain.is_bot r then None
        else begin
          let regs' = Array.copy regs in
          regs'.(!cmp_reg) <- r;
          Some { out with regs = regs' }
        end
      end
    in
    let taken_edge = match refined cond with Some s -> [ (taken, s) ] | None -> [] in
    let fall_edge =
      match fall with
      | None -> []
      | Some f -> (
        match refined (Instr.negate_cond cond) with Some s -> [ (f, s) ] | None -> [])
    in
    taken_edge @ fall_edge

let widen_threshold = 3

let compute ?bound_cell ~heap_limit (uops : Uop.t array) (cfg : Cfg.t) =
  let nb = Array.length cfg.Cfg.blocks in
  let in_states = Array.make nb None in
  let converged = ref true in
  if nb > 0 then begin
    let init = initial_state () in
    let visits = Array.make nb 0 in
    (* per target block: the latest contribution of each incoming edge,
       as a list sorted by source block *)
    let in_edges : (int * state) list array = Array.make nb [] in
    let rec set_edge s st = function
      | ((s', _) as e) :: rest when s' < s -> e :: set_edge s st rest
      | (s', _) :: rest when s' = s -> (s, st) :: rest
      | edges -> (s, st) :: edges
    in
    (* sinks stay off the worklist and are solved once after narrowing,
       by the verifier's rule and exactness argument (lib/verify/checks.ml) *)
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
    let joined_in b =
      let acc = if b = 0 then Some init else None in
      List.fold_left
        (fun acc (_, s) -> Some (match acc with None -> s | Some a -> join_st a s))
        acc in_edges.(b)
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
            if j <> cur then begin
              in_states.(b) <- Some j;
              enqueue b
            end
          end
          else begin
            let u = join_st cur j in
            if u <> cur then begin
              visits.(b) <- visits.(b) + 1;
              in_states.(b) <- Some (if visits.(b) > widen_threshold then widen_st cur u else u);
              enqueue b
            end
          end)
    in
    let process b =
      on_queue.(b) <- false;
      match in_states.(b) with
      | None -> ()
      | Some s ->
        List.iter
          (fun (t, contrib) ->
            match List.assoc_opt b in_edges.(t) with
            | Some old when old = contrib -> ()
            | _ ->
              in_edges.(t) <- set_edge b contrib in_edges.(t);
              if not sink.(t) then recompute t)
          (simulate ~bound_cell ~heap_limit uops cfg s cfg.Cfg.blocks.(b))
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
    if not (drain ((200 * nb) + 1000)) then begin
      (* below the fixpoint: states are not sound facts, drop them all
         so no pass acts on them (the program is left unoptimized) *)
      converged := false;
      Array.fill in_states 0 nb None
    end
    else begin
      narrowing := true;
      Queue.clear queue;
      Array.fill on_queue 0 nb false;
      for b = 0 to nb - 1 do
        match (in_states.(b), joined_in b) with
        | Some cur, Some j when j <> cur -> in_states.(b) <- Some j
        | _ -> ()
      done;
      for b = 0 to nb - 1 do
        if in_states.(b) <> None then enqueue b
      done;
      ignore (drain (8 * nb));
      Array.iteri (fun b is_sink -> if is_sink then in_states.(b) <- joined_in b) sink
    end
  end;
  { uops; cfg; in_states; converged = !converged }

(* Replay a block from its fixpoint in-state, presenting the register
   state just BEFORE each instruction to [f]. *)
let iter_block ?bound_cell ~heap_limit t b ~f =
  match t.in_states.(b) with
  | None -> ()
  | Some st ->
    let blk = t.cfg.Cfg.blocks.(b) in
    let regs = Array.copy st.regs in
    let cmp_reg = ref st.cmp_reg in
    let cmp_rhs = ref st.cmp_rhs in
    for i = blk.Cfg.first to blk.Cfg.last do
      f i regs;
      step ~bound_cell ~heap_limit regs cmp_reg cmp_rhs t.uops.(i)
    done

(* Abstract value of [idx*scale + disp] under a register state. *)
let ea_value regs ~midx ~mscale ~mdisp =
  let idx =
    if midx >= 0 then Domain.alu Instr.Mul regs.(midx) (Domain.const mscale) else Domain.const 0
  in
  Domain.add idx (Domain.const mdisp)
