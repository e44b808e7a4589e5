(* Single-basic-block abstract transfer, shared verbatim by the
   fixpoint driver ({!Checks}) and the independent proof validator
   ({!Proofcheck}): simulate one block from an in-state, discharging or
   recording every safety obligation, and return the per-edge out-state
   contributions. Keeping exactly one copy of the transfer is what
   makes a proof artifact meaningful — the validator re-runs the same
   semantics with inclusion checks in place of the worklist. *)

type spec = { strategy : Hfi_sfi.Strategy.t; code_base : int }

(* ------------------------------------------------------------------ *)
(* Per-strategy plain-access windows.                                  *)

type window = { wlo : int; whi : int }  (* inclusive *)

let windows strategy =
  let module L = Hfi_wasm.Layout in
  let stack = { wlo = L.stack_region_base; whi = L.stack_region_base + L.stack_region_size - 1 } in
  let globals = { wlo = L.globals_base; whi = L.globals_base + L.globals_size - 1 } in
  (* Heap slack beyond [heap_max]: guard pages contain any access that
     lands in the reservation's guard; bounds/masking confine the first
     byte, so only the access width can spill past the window. *)
  let slack =
    match (strategy : Hfi_sfi.Strategy.t) with
    | Guard_pages -> Hfi_sfi.Strategy.guard_region_bytes Guard_pages
    | Bounds_checks | Masking -> 8
    | Hfi -> 0
  in
  let heap = { wlo = L.heap_base; whi = L.heap_base + L.heap_max + slack - 1 } in
  [ stack; globals; heap ]

(* ------------------------------------------------------------------ *)
(* Verification context.                                               *)

type ctx = {
  spec : spec;
  prog : Program.t;
  uops : Uop.t array;
  cfg : Cfg.t;
  byte_size : int;
  imm : Domain.t array;  (* per instruction: its immediate operand as a constant *)
  wins : window list;
  dyn_edges : (int * int, unit) Hashtbl.t;  (* resolved indirect edges *)
  mutable viols : Report.violation list;
  mutable reasons : Report.reason list;
  mutable checked_mem : int;
  mutable checked_branches : int;
}

(* The constant a µop's immediate operand denotes: the source immediate
   of a register/immediate form, the displacement of a memory operand.
   Built once per verification so block visits share it. *)
let imm_of (u : Uop.t) =
  match u.Uop.op with
  | Uop.Omov { sreg; simm; _ } | Uop.Oalu { sreg; simm; _ } | Uop.Ocmp { sreg; simm; _ } ->
    if sreg < 0 then Domain.const simm else Domain.Bot
  | Uop.Oload { mdisp; _ } | Uop.Ostore { mdisp; _ } | Uop.Olea { mdisp; _ }
  | Uop.Ocmp_mem { mdisp; _ } ->
    Domain.const mdisp
  | _ -> Domain.Bot

let make_ctx spec prog =
  let uops = Uop.decode prog ~code_base:spec.code_base in
  {
    spec;
    prog;
    uops;
    cfg = Cfg.build uops (Uop.layout prog ~code_base:spec.code_base);
    byte_size = Program.byte_size prog;
    imm = Array.map imm_of uops;
    wins = windows spec.strategy;
    dyn_edges = Hashtbl.create 8;
    viols = [];
    reasons = [];
    checked_mem = 0;
    checked_branches = 0;
  }

let viol ctx ~record property i detail =
  if record then
    ctx.viols <-
      {
        Report.property;
        index = i;
        addr = ctx.spec.code_base + Program.byte_offset ctx.prog i;
        instr = Instr.to_string ctx.uops.(i).Uop.instr;
        detail;
      }
      :: ctx.viols

let reason ctx ~record i what =
  if record then ctx.reasons <- { Report.r_index = Some i; what } :: ctx.reasons

let count_mem ctx ~record = if record then ctx.checked_mem <- ctx.checked_mem + 1
let count_branch ctx ~record = if record then ctx.checked_branches <- ctx.checked_branches + 1

(* A plain (non-hmov) data access at instruction [i] with abstract
   effective address [ea]. *)
let check_plain ctx ~record ~sandbox i ea ~bytes =
  match (ea : Domain.t) with
  | Stackish -> count_mem ctx ~record  (* protected-stack assumption *)
  | _ ->
    if ctx.spec.strategy = Hfi_sfi.Strategy.Hfi && sandbox = Vstate.Sin then
      (* inside the sandbox the implicit data regions confine every
         plain access dynamically: a miss traps before touching memory *)
      count_mem ctx ~record
    else begin
      let fits w = Domain.within ea ~lo:w.wlo ~hi:(w.whi - (bytes - 1)) in
      if List.exists fits ctx.wins then count_mem ctx ~record
      else if ctx.spec.strategy = Hfi_sfi.Strategy.Hfi then
        (* out-of-sandbox = trusted context; an access we cannot place
           is suspicious but not a sandbox escape *)
        reason ctx ~record i
          (Printf.sprintf "trusted-context access %s not within a known window"
             (Domain.to_string ea))
      else if List.for_all (fun w -> Domain.disjoint ea ~lo:w.wlo ~hi:w.whi) ctx.wins then
        viol ctx ~record Report.Sfi_discipline i
          (Printf.sprintf "effective address %s escapes every sandbox window"
             (Domain.to_string ea))
      else
        reason ctx ~record i
          (Printf.sprintf "confinement of effective address %s unproven" (Domain.to_string ea))
    end

let check_hmov ctx ~record (st_regions : Vstate.rstate array) i ~region ~write =
  if region < 0 || region > 3 then
    viol ctx ~record Report.Hfi_invariant i
      (Printf.sprintf "hmov region number %d has no explicit-region slot" region)
  else begin
    match st_regions.(region + 6) with
    | Vstate.Rknown (Hfi_iface.Explicit_data r) ->
      if if write then r.permission_write else r.permission_read then count_mem ctx ~record
      else
        viol ctx ~record Report.Hfi_invariant i
          (Printf.sprintf "hmov %s denied by the declared region's permissions"
             (if write then "store" else "load"))
    | Vstate.Rknown _ ->
      (* slot kinds make this unreachable through set_region, but the
         state join can only produce it from such states anyway *)
      viol ctx ~record Report.Hfi_invariant i "explicit slot holds a non-explicit region"
    | Vstate.Runset ->
      viol ctx ~record Report.Hfi_invariant i
        (Printf.sprintf "hmov region %d is never declared" region)
    | Vstate.Runknown -> reason ctx ~record i "hmov region state unknown (possibly tampered)"
  end

(* ------------------------------------------------------------------ *)
(* Block transfer: simulate one basic block from an in-state, returning
   per-edge contributions. With [~record] it also logs every discharged
   or failed obligation (the final reporting pass).                     *)

let rsp_i = Reg.index Reg.RSP
let rbp_i = Reg.index Reg.RBP
let zero = Domain.const 0
let small_consts = Array.init 9 Domain.const
let scale_const k = if k >= 0 && k < Array.length small_consts then small_consts.(k) else Domain.const k

(* The block simulation's working state: [regs] and [facts] are private
   copies of the in-state's arrays; [regions] stays the in-state's own
   array until the block first writes a region register. *)
type sim = {
  regs : Domain.t array;
  facts : Rel.fact option array;
  mutable regions : Vstate.rstate array;
  mutable regions_own : bool;
  mutable cmp_reg : int;
  mutable cmp_rhs : Domain.t;
  mutable sandbox : Vstate.sandbox;
}

let set_region sm slot v =
  if not sm.regions_own then begin
    sm.regions <- Array.copy sm.regions;
    sm.regions_own <- true
  end;
  sm.regions.(slot) <- v

(* write [d]'s value without touching facts: the caller has already
   applied the matching fact transfer (compensation, copy, lea, kill) *)
let set_val sm d v =
  sm.regs.(d) <- v;
  if sm.cmp_reg = d then begin
    sm.cmp_reg <- -1;
    sm.cmp_rhs <- Domain.top
  end

(* write [d] with an arbitrary value: facts about and based on [d] die *)
let set_reg sm d v =
  Rel.kill sm.facts d;
  set_val sm d v

let src_val ctx sm i sreg = if sreg >= 0 then sm.regs.(sreg) else ctx.imm.(i)

(* register read at a memory operand: meet the interval with the affine
   fact's concretization — this is where a loop counter's compare bound
   transfers to a derived pointer *)
let eval_mem ctx sm i ~mbase ~midx ~mscale =
  let base = if mbase >= 0 then Rel.tighten sm.facts sm.regs mbase else zero in
  let idx =
    if midx >= 0 then
      Domain.alu Instr.Mul (Rel.tighten sm.facts sm.regs midx) (scale_const mscale)
    else zero
  in
  Domain.add (Domain.add base idx) ctx.imm.(i)

(* push/pop/call/ret traffic goes through RSP: exempt while RSP is
   stack-derived, an ordinary checked access once the program has
   repointed it *)
let stack_access ctx ~record sm i =
  check_plain ctx ~record ~sandbox:sm.sandbox i sm.regs.(rsp_i) ~bytes:8

let push_delta = Domain.const (-8)
let pop_delta = Domain.const 8

(* RSP moves by [delta] = -8 (push/call) or +8 (pop/ret) *)
let bump_rsp sm delta =
  Rel.add_imm sm.facts rsp_i delta;
  set_val sm rsp_i (Domain.add sm.regs.(rsp_i) (if delta < 0 then push_delta else pop_delta))

let region_write_gate ctx ~record sm i =
  match sm.sandbox with
  | Vstate.Sout -> `Trusted
  | Vstate.Sin ->
    viol ctx ~record Report.Hfi_invariant i "region register written inside the sandbox";
    `Untrusted
  | Vstate.Smaybe ->
    reason ctx ~record i "region register write with unknown sandbox state";
    `Untrusted

let step ctx ~record sm i =
  let u = ctx.uops.(i) in
  match u.Uop.op with
  | Uop.Omov { d; sreg; _ } ->
    if sreg >= 0 then Rel.assign_copy sm.facts d sreg else Rel.kill sm.facts d;
    set_val sm d (src_val ctx sm i sreg)
  | Uop.Oload { bytes; d; mbase; midx; mscale; _ } ->
    check_plain ctx ~record ~sandbox:sm.sandbox i (eval_mem ctx sm i ~mbase ~midx ~mscale) ~bytes;
    set_reg sm d (Domain.load_result ~bytes)
  | Uop.Ostore { bytes; mbase; midx; mscale; _ } ->
    check_plain ctx ~record ~sandbox:sm.sandbox i (eval_mem ctx sm i ~mbase ~midx ~mscale) ~bytes
  | Uop.Ohload { region; bytes; d; _ } ->
    check_hmov ctx ~record sm.regions i ~region ~write:false;
    set_reg sm d (Domain.load_result ~bytes)
  | Uop.Ohstore { region; _ } -> check_hmov ctx ~record sm.regions i ~region ~write:true
  | Uop.Olea { d; mbase; midx; mscale; mdisp } ->
    let v = eval_mem ctx sm i ~mbase ~midx ~mscale in
    (if mbase < 0 && midx >= 0 && midx <> d then
       Rel.assign_affine sm.facts d ~base:midx ~k:mscale ~off:mdisp
     else if mbase >= 0 && midx < 0 && mbase <> d then
       Rel.assign_affine sm.facts d ~base:mbase ~k:1 ~off:mdisp
     else Rel.kill sm.facts d);
    set_val sm d v
  | Uop.Oalu { op; d; sreg; simm } ->
    if sreg = d && (op = Instr.Xor || op = Instr.Sub) then set_reg sm d zero
    else begin
      let v = Domain.alu op sm.regs.(d) (src_val ctx sm i sreg) in
      (match op with
      | Instr.Add when sreg < 0 -> Rel.add_imm sm.facts d simm
      | Instr.Sub when sreg < 0 && simm <> min_int -> Rel.add_imm sm.facts d (-simm)
      | Instr.Add when sreg >= 0 -> Rel.add_reg sm.facts d sreg
      | _ -> Rel.kill sm.facts d);
      set_val sm d v
    end
  | Uop.Ocmp { d; sreg; _ } ->
    sm.cmp_reg <- d;
    sm.cmp_rhs <- src_val ctx sm i sreg
  | Uop.Ocmp_mem { d; mbase; midx; mscale; mdisp } ->
    check_plain ctx ~record ~sandbox:sm.sandbox i (eval_mem ctx sm i ~mbase ~midx ~mscale) ~bytes:8;
    sm.cmp_reg <- d;
    (* The heap bound cell is written by the trusted prologue and
       memory.grow only, and never exceeds the 4 GiB Wasm limit: the
       exact invariant wasm2c-style bounds checks rely on. *)
    sm.cmp_rhs <-
      (if mbase < 0 && midx < 0 && mdisp = Hfi_wasm.Layout.heap_bound_cell then
         Domain.itv 0 Hfi_wasm.Layout.heap_max
       else Domain.top)
  | Uop.Opush _ ->
    stack_access ctx ~record sm i;
    bump_rsp sm (-8)
  | Uop.Opop d ->
    stack_access ctx ~record sm i;
    bump_rsp sm 8;
    (* frame discipline: values popped into the stack/frame pointer
       are saved stack pointers (push rbp ... pop rbp) *)
    set_reg sm d (if d = rsp_i || d = rbp_i then Domain.Stackish else Domain.top)
  | Uop.Ocall _ | Uop.Ocall_ind _ ->
    stack_access ctx ~record sm i;
    bump_rsp sm (-8)
  | Uop.Oret ->
    stack_access ctx ~record sm i;
    bump_rsp sm 8
  | Uop.Osyscall -> set_reg sm (Reg.index Reg.RAX) Domain.top
  | Uop.Ohfi_enter spec ->
    if record && ctx.spec.strategy = Hfi_sfi.Strategy.Hfi then begin
      let covers slot =
        match sm.regions.(slot) with
        | Vstate.Rknown (Hfi_iface.Implicit_code r) ->
          r.permission_exec
          && ctx.spec.code_base land lnot r.lsb_mask = r.base_prefix
          && (ctx.byte_size = 0
             || (ctx.spec.code_base + ctx.byte_size - 1) land lnot r.lsb_mask = r.base_prefix)
        | _ -> false
      in
      if not (List.exists covers Hfi_iface.code_region_slots) then
        reason ctx ~record i "entering the sandbox without a code region covering the program"
    end;
    if spec.Hfi_iface.switch_on_exit || spec.Hfi_iface.exit_handler <> None then
      reason ctx ~record i "exit-handler redirection / bank switching not modeled";
    sm.sandbox <- Vstate.Sin
  | Uop.Ohfi_exit -> sm.sandbox <- Vstate.Sout
  | Uop.Ohfi_reenter -> sm.sandbox <- Vstate.Sin
  | Uop.Ohfi_set_region { slot; region } -> begin
    let gate = region_write_gate ctx ~record sm i in
    if slot >= 0 && slot < Hfi_iface.region_count then begin
      match Hfi_core.Region.validate ~slot region with
      | Error e ->
        reason ctx ~record i
          ("invalid region descriptor (traps at runtime): " ^ Hfi_core.Region.error_to_string e);
        set_region sm slot Vstate.Runknown
      | Ok () ->
        set_region sm slot (if gate = `Trusted then Vstate.Rknown region else Vstate.Runknown)
    end
    else if slot >= Hfi_iface.region_count && slot < 2 * Hfi_iface.region_count then
      (* inactive bank; harmless while bank switching stays unmodeled
         (any switch_on_exit enter already degrades to Unknown) *)
      ()
    else reason ctx ~record i "region slot out of range (traps at runtime)"
  end
  | Uop.Ohfi_clear_region slot -> begin
    let gate = region_write_gate ctx ~record sm i in
    if slot >= 0 && slot < Hfi_iface.region_count then
      set_region sm slot (if gate = `Trusted then Vstate.Runset else Vstate.Runknown)
  end
  | Uop.Ohfi_clear_all -> begin
    let gate = region_write_gate ctx ~record sm i in
    let v = if gate = `Trusted then Vstate.Runset else Vstate.Runknown in
    for slot = 0 to Hfi_iface.region_count - 1 do
      set_region sm slot v
    done
  end
  | Uop.Ohfi_get_region { d; _ } -> set_reg sm d Domain.top
  | Uop.Ocpuid ->
    List.iter (fun r -> set_reg sm (Reg.index r) zero) [ Reg.RAX; Reg.RBX; Reg.RCX; Reg.RDX ]
  | Uop.Ordtsc d | Uop.Ordmsr d -> set_reg sm d Domain.top
  | Uop.Oclflush _ (* cache maintenance, not a data access *)
  | Uop.Omfence | Uop.Onop | Uop.Ojmp _ | Uop.Ojcc _ | Uop.Ojmp_ind _ | Uop.Ohalt ->
    ()

(* The out-state refined by assuming [cond] held at the block's final
   compare; [None] when that is impossible. [out] itself when the
   refinement moves nothing. *)
let refine_edge (out : Vstate.t) cond =
  let c = out.Vstate.cmp_reg in
  if c < 0 then Some out
  else begin
    let regs = out.Vstate.regs in
    let r = Domain.refine cond regs.(c) ~rhs:out.Vstate.cmp_rhs in
    if Domain.is_bot r then None
    else begin
      (* loop-aware range recovery: a compare on a derived value
         ([cmp 2*i, n]) bounds the underlying counter through the
         affine fact *)
      let fb, nb =
        match out.Vstate.facts.(c) with
        | Some f when f.base <> c -> (f.base, Rel.refine_base f ~refined:r regs.(f.base))
        | _ -> (-1, Domain.Bot)
      in
      if r == regs.(c) && (fb < 0 || nb == regs.(fb)) then Some out
      else begin
        let regs' = Array.copy regs in
        regs'.(c) <- r;
        if fb >= 0 then regs'.(fb) <- nb;
        Some { out with Vstate.regs = regs' }
      end
    end
  end

let simulate ctx ~record (st0 : Vstate.t) (b : Cfg.block) =
  let sm =
    {
      regs = Array.copy st0.Vstate.regs;
      facts = Array.copy st0.Vstate.facts;
      regions = st0.Vstate.regions;
      regions_own = false;
      cmp_reg = st0.Vstate.cmp_reg;
      cmp_rhs = st0.Vstate.cmp_rhs;
      sandbox = st0.Vstate.sandbox;
    }
  in
  for i = b.first to b.last do
    step ctx ~record sm i
  done;
  let out =
    {
      Vstate.regs = sm.regs;
      facts = sm.facts;
      cmp_reg = sm.cmp_reg;
      cmp_rhs = sm.cmp_rhs;
      sandbox = sm.sandbox;
      regions = sm.regions;
    }
  in
  match b.term with
  | Cfg.Tfall None | Cfg.Thalt -> []
  | Cfg.Tfall (Some next) -> [ (next, out) ]
  | Cfg.Tjump t ->
    count_branch ctx ~record;
    [ (t, out) ]
  | Cfg.Tcall { target; _ } ->
    count_branch ctx ~record;
    [ (target, out) ]
  | Cfg.Tcond { taken; fall } -> (
    count_branch ctx ~record;
    let cond =
      match ctx.uops.(b.last).Uop.op with Uop.Ojcc { cond; _ } -> cond | _ -> assert false
    in
    let fall_edge =
      match fall with
      | None -> []
      | Some f -> (
        match refine_edge out (Instr.negate_cond cond) with Some s -> [ (f, s) ] | None -> [])
    in
    match refine_edge out cond with Some s -> (taken, s) :: fall_edge | None -> fall_edge)
  | Cfg.Tjump_ind | Cfg.Tcall_ind _ -> begin
    let r =
      match ctx.uops.(b.last).Uop.op with
      | Uop.Ojmp_ind r | Uop.Ocall_ind r -> r
      | _ -> assert false
    in
    if not (Domain.is_singleton sm.regs.(r)) then begin
      reason ctx ~record b.last "unresolved indirect branch target";
      []
    end
    else begin
      let addr = Domain.lower sm.regs.(r) in
      let target =
        if addr < ctx.spec.code_base then None
        else Program.index_of_byte ctx.prog (addr - ctx.spec.code_base)
      in
      match target with
      | None ->
        viol ctx ~record Report.Cfi b.last
          (Printf.sprintf "indirect target 0x%x is not an instruction boundary" addr);
        []
      | Some t ->
        let layout = Uop.layout ctx.prog ~code_base:ctx.spec.code_base in
        if Uop.is_block_head layout t then begin
          count_branch ctx ~record;
          let tb = ctx.cfg.Cfg.block_of_instr.(t) in
          Hashtbl.replace ctx.dyn_edges (b.id, tb) ();
          [ (tb, out) ]
        end
        else begin
          reason ctx ~record b.last "indirect target lands mid-block (not analyzed)";
          []
        end
    end
  end
  | Cfg.Tret -> List.map (fun rp -> (rp, out)) ctx.cfg.Cfg.ret_points
  | Cfg.Tout t ->
    viol ctx ~record Report.Cfi b.last
      (Printf.sprintf "direct branch target %d outside the program (%d instructions)" t
         (Array.length ctx.uops));
    []
