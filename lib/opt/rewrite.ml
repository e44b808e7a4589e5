(* E-graph-style local rewriting: constant folding, strength reduction,
   copy propagation and CSE over hash-consed value numbers.

   Every SSA-less register is mapped to a value number; syntactically
   distinct computations producing the same value share a number through
   the congruence table [expr : (op, vn, vn) -> vn], and the
   constant table makes folding a lookup. Alongside each register's
   value number rides its [Domain] interval — the same abstract values
   the verifier computes — which drives the semantic rules (and-mask
   identity, nonnegative div-to-shift) that pure syntax cannot justify.

   Value numbers are flow-sensitive per register but globally allocated:
   the congruence and constant tables are value facts, valid everywhere;
   register assignments are inherited only along single-predecessor
   edges (extended blocks), everything else restarts opaque.

   Rewrites are 1-to-1 or deletions, so block structure is preserved
   while scanning; the program is rebuilt once at the end with branch
   retargeting. Folding calls [Machine.alu] itself, so folded constants
   are bit-identical to what the interpreter would commit. *)

type vstate = { reg_vn : int array; av : Domain.t array }

type ctx = {
  mutable nextvn : int;
  vn_of_const : (int, int) Hashtbl.t;
  const_of_vn : (int, int) Hashtbl.t;
  expr : (Instr.alu_op * int * int, int) Hashtbl.t;
  holder : (int, int) Hashtbl.t;  (* vn -> register that held it (validate before use) *)
}

let fresh ctx =
  let v = ctx.nextvn in
  ctx.nextvn <- v + 1;
  v

let vn_const ctx c =
  match Hashtbl.find_opt ctx.vn_of_const c with
  | Some v -> v
  | None ->
    let v = fresh ctx in
    Hashtbl.replace ctx.vn_of_const c v;
    Hashtbl.replace ctx.const_of_vn v c;
    v

let opaque_state ctx =
  let reg_vn = Array.make Reg.count 0 in
  for r = 0 to Reg.count - 1 do
    reg_vn.(r) <- fresh ctx
  done;
  { reg_vn; av = Array.make Reg.count Domain.top }

let entry_state ctx =
  let st = { reg_vn = Array.make Reg.count (vn_const ctx 0); av = Array.make Reg.count (Domain.const 0) } in
  st.reg_vn.(Reg.index Reg.RSP) <- fresh ctx;
  st.av.(Reg.index Reg.RSP) <- Domain.Stackish;
  st

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go k v = if v <= 1 then k else go (k + 1) (v asr 1) in
  go 0 x

let commutative = function
  | Instr.Add | Instr.And | Instr.Or | Instr.Xor | Instr.Mul -> true
  | Instr.Sub | Instr.Shl | Instr.Shr | Instr.Sar | Instr.Div -> false

let expr_vn ctx op va vb =
  let va, vb = if commutative op && vb < va then (vb, va) else (va, vb) in
  match Hashtbl.find_opt ctx.expr (op, va, vb) with
  | Some e -> e
  | None ->
    let e = fresh ctx in
    Hashtbl.replace ctx.expr (op, va, vb) e;
    e

(* A register currently holding value [vn], other than [avoid]. *)
let valid_holder ctx st vn ~avoid =
  match Hashtbl.find_opt ctx.holder vn with
  | Some h when h <> avoid && st.reg_vn.(h) = vn -> Some h
  | _ -> None

let record_holder ctx st vn r =
  match valid_holder ctx st vn ~avoid:(-1) with
  | Some _ -> ()
  | None -> Hashtbl.replace ctx.holder vn r

let run ~code_base prog =
  let uops = Uop.decode prog ~code_base in
  let cfg = Cfg.build uops (Uop.layout prog ~code_base) in
  let nb = Array.length cfg.Cfg.blocks in
  let preds = Dom.preds_of cfg in
  let order = Dom.rpo cfg in
  let rpo_index = Array.make nb (-1) in
  Array.iteri (fun k b -> rpo_index.(b) <- k) order;
  let edit = Edit.create prog ~code_base in
  let ctx =
    {
      nextvn = 0;
      vn_of_const = Hashtbl.create 64;
      const_of_vn = Hashtbl.create 64;
      expr = Hashtbl.create 64;
      holder = Hashtbl.create 64;
    }
  in
  let count = ref 0 in
  (* A block inherits the out-state of its single predecessor when that
     comes earlier in RPO: [parent.(b)] is that predecessor (-1 when [b]
     starts opaque) and [heirs.(p)] counts the blocks inheriting from
     [p]. Only states with an heir still to come are kept: every heir
     but the last copies, the last takes the state itself. *)
  let parent = Array.make nb (-1) and heirs = Array.make nb 0 in
  Array.iter
    (fun b ->
      if b <> 0 then
        match List.sort_uniq Int.compare preds.(b) with
        | [ p ] when rpo_index.(p) >= 0 && rpo_index.(p) < rpo_index.(b) ->
          parent.(b) <- p;
          heirs.(p) <- heirs.(p) + 1
        | _ -> ())
    order;
  let out_states = Array.make nb None in
  let process_block b =
    let blk = cfg.Cfg.blocks.(b) in
    let st =
      if b = 0 then entry_state ctx
      else begin
        let p = parent.(b) in
        match if p >= 0 then out_states.(p) else None with
        | Some (s : vstate) ->
          heirs.(p) <- heirs.(p) - 1;
          if heirs.(p) > 0 then { reg_vn = Array.copy s.reg_vn; av = Array.copy s.av }
          else begin
            out_states.(p) <- None;
            s
          end
        | None -> opaque_state ctx
      end
    in
    let set_reg d vn av =
      st.reg_vn.(d) <- vn;
      st.av.(d) <- av;
      record_holder ctx st vn d
    in
    let set_opaque d =
      st.reg_vn.(d) <- fresh ctx;
      st.av.(d) <- Domain.top
    in
    let src_vn sreg simm = if sreg >= 0 then st.reg_vn.(sreg) else vn_const ctx simm in
    let src_av sreg simm = if sreg >= 0 then st.av.(sreg) else Domain.const simm in
    let reg r = Reg.of_index r in
    (* fold a known-constant index register into the displacement; the
       movi that fed it then dies in DCE *)
    let fold_mem midx mscale (m : Instr.mem) =
      if midx >= 0 && Domain.is_singleton st.av.(midx) && m.Instr.index <> None then
        let c = Domain.lower st.av.(midx) in
        Some { m with Instr.index = None; scale = 1; disp = m.Instr.disp + (c * mscale) }
      else None
    in
    let replace1 i ins =
      Edit.replace edit i [ ins ];
      incr count
    in
    for i = blk.Cfg.first to blk.Cfg.last do
      let u = uops.(i) in
      match u.Uop.op with
      | Uop.Omov { d; sreg; simm } ->
        let vn = src_vn sreg simm in
        if st.reg_vn.(d) = vn then begin
          Edit.delete edit i;
          incr count
        end
        else set_reg d vn (src_av sreg simm)
      | Uop.Oalu { op; d; sreg; simm } ->
        let self_zero = sreg = d && (op = Instr.Xor || op = Instr.Sub) in
        let a_av = st.av.(d) and b_av = src_av sreg simm in
        (* constant values of the operands, syntactic or proven:
           [a_c]/[b_c] are meaningful only under [a_k]/[b_k] *)
        let a_k = Domain.is_singleton a_av and b_k = Domain.is_singleton b_av in
        let a_c = if a_k then Domain.lower a_av else 0
        and b_c = if b_k then Domain.lower b_av else 0 in
        let result_av =
          if self_zero then Domain.const 0 else Domain.alu op a_av b_av
        in
        let identity =
          (* dst op src = dst, for this operand *)
          b_k
          &&
          match op with
          | Instr.Add | Instr.Sub | Instr.Or | Instr.Xor -> b_c = 0
          | Instr.Shl | Instr.Shr | Instr.Sar -> b_c land 63 = 0
          | Instr.Mul | Instr.Div -> b_c = 1
          | Instr.And ->
            b_c = -1
            || (b_c >= 0 && is_pow2 (b_c + 1) && Domain.within a_av ~lo:0 ~hi:b_c)
        in
        if identity then begin
          Edit.delete edit i;
          incr count
        end
        else begin
          let finish_const c =
            let vn = vn_const ctx c in
            if st.reg_vn.(d) = vn then begin
              Edit.delete edit i;
              incr count
            end
            else begin
              replace1 i (Instr.Mov (reg d, Instr.Imm c));
              set_reg d vn (Domain.const c)
            end
          in
          if self_zero then finish_const 0
          else if a_k && b_k && (op <> Instr.Div || b_c <> 0) then
            finish_const (Machine.alu op a_c b_c)
          else if b_k && b_c = 0 && op = Instr.Mul then finish_const 0
          else begin
            let vb = src_vn sreg simm in
            let e = expr_vn ctx op st.reg_vn.(d) vb in
            if st.reg_vn.(d) = e then begin
              (* recomputing the value it already holds *)
              Edit.delete edit i;
              incr count
            end
            else begin
              (match valid_holder ctx st e ~avoid:d with
              | Some h -> replace1 i (Instr.Mov (reg d, Instr.Reg (reg h)))
              | None -> (
                (* strength reduction *)
                match op with
                | Instr.Mul when b_k && is_pow2 b_c ->
                  replace1 i (Instr.Alu (Instr.Shl, reg d, Instr.Imm (log2 b_c)))
                | Instr.Div when b_k && is_pow2 b_c && Domain.within a_av ~lo:0 ~hi:max_int ->
                  replace1 i (Instr.Alu (Instr.Shr, reg d, Instr.Imm (log2 b_c)))
                | _ -> ()));
              set_reg d e result_av
            end
          end
        end
      | Uop.Olea { d; mbase; midx; mscale; mdisp } -> (
        let av =
          let base = if mbase >= 0 then st.av.(mbase) else Domain.const 0 in
          Domain.add (Domain.add base (Analysis.ea_value st.av ~midx ~mscale ~mdisp)) (Domain.const 0)
        in
        if Domain.is_singleton av then begin
          let c = Domain.lower av in
          let vn = vn_const ctx c in
          if st.reg_vn.(d) = vn then begin
            Edit.delete edit i;
            incr count
          end
          else begin
            replace1 i (Instr.Mov (reg d, Instr.Imm c));
            set_reg d vn (Domain.const c)
          end
        end
        else begin
          if mbase < 0 && midx >= 0 && mscale = 1 && mdisp = 0 then begin
            (* lea d, [idx] is a copy *)
            let vn = st.reg_vn.(midx) in
            if st.reg_vn.(d) = vn then begin
              Edit.delete edit i;
              incr count
            end
            else begin
              replace1 i (Instr.Mov (reg d, Instr.Reg (reg midx)));
              set_reg d vn st.av.(midx)
            end
          end
          else begin
            (match Edit.original edit i with
            | Instr.Lea (r, m) -> (
              match fold_mem midx mscale m with
              | Some m' -> replace1 i (Instr.Lea (r, m'))
              | None -> ())
            | _ -> ());
            set_reg d (fresh ctx) av
          end
        end)
      | Uop.Oload { bytes; d; midx; mscale; _ } ->
        (match Edit.original edit i with
        | Instr.Load (w, r, m) -> (
          match fold_mem midx mscale m with
          | Some m' -> replace1 i (Instr.Load (w, r, m'))
          | None -> ())
        | _ -> ());
        set_reg d (fresh ctx) (Domain.load_result ~bytes)
      | Uop.Ostore { midx; mscale; sreg; _ } -> (
        match Edit.original edit i with
        | Instr.Store (w, m, src) ->
          (* [fold_mem] and the immediate substitution allocate exactly
             when they change something, so [!=] detects a change *)
          let m' = match fold_mem midx mscale m with Some m' -> m' | None -> m in
          let src' =
            match src with
            | Instr.Reg _ when sreg >= 0 -> (
              if Domain.is_singleton st.av.(sreg) then Instr.Imm (Domain.lower st.av.(sreg))
              else src)
            | _ -> src
          in
          if m' != m || src' != src then replace1 i (Instr.Store (w, m', src'))
        | _ -> ())
      | Uop.Ohload { bytes; d; midx; mscale; _ } ->
        (match Edit.original edit i with
        | Instr.Hload (n, w, r, m) -> (
          match fold_mem midx mscale m with
          | Some m' -> replace1 i (Instr.Hload (n, w, r, m'))
          | None -> ())
        | _ -> ());
        set_reg d (fresh ctx) (Domain.load_result ~bytes)
      | Uop.Ohstore { midx; mscale; sreg; _ } -> (
        match Edit.original edit i with
        | Instr.Hstore (n, w, m, src) ->
          let m' = match fold_mem midx mscale m with Some m' -> m' | None -> m in
          let src' =
            match src with
            | Instr.Reg _ when sreg >= 0 -> (
              if Domain.is_singleton st.av.(sreg) then Instr.Imm (Domain.lower st.av.(sreg))
              else src)
            | _ -> src
          in
          if m' != m || src' != src then replace1 i (Instr.Hstore (n, w, m', src'))
        | _ -> ())
      | Uop.Ocmp { d; sreg; _ } ->
        if sreg >= 0 && Domain.is_singleton st.av.(sreg) then
          replace1 i (Instr.Cmp (reg d, Instr.Imm (Domain.lower st.av.(sreg))))
      | Uop.Ocmp_mem { midx; mscale; _ } -> (
        match Edit.original edit i with
        | Instr.Cmp_mem (r, m) -> (
          match fold_mem midx mscale m with
          | Some m' -> replace1 i (Instr.Cmp_mem (r, m'))
          | None -> ())
        | _ -> ())
      | Uop.Oclflush { midx; mscale; _ } -> (
        match Edit.original edit i with
        | Instr.Clflush m -> (
          match fold_mem midx mscale m with
          | Some m' -> replace1 i (Instr.Clflush m')
          | None -> ())
        | _ -> ())
      | Uop.Opop d ->
        set_opaque d;
        if d = Reg.index Reg.RSP || d = Reg.index Reg.RBP then st.av.(d) <- Domain.Stackish;
        set_opaque (Reg.index Reg.RSP)
      | Uop.Opush _ | Uop.Ocall _ | Uop.Ocall_ind _ | Uop.Oret ->
        set_opaque (Reg.index Reg.RSP)
      | Uop.Osyscall -> set_opaque (Reg.index Reg.RAX)
      | Uop.Ocpuid ->
        List.iter
          (fun r -> set_reg (Reg.index r) (vn_const ctx 0) (Domain.const 0))
          [ Reg.RAX; Reg.RBX; Reg.RCX; Reg.RDX ]
      | Uop.Ordtsc d | Uop.Ordmsr d | Uop.Ohfi_get_region { d; _ } -> set_opaque d
      | Uop.Ohfi_enter _ | Uop.Ohfi_exit | Uop.Ohfi_reenter | Uop.Ohfi_set_region _
      | Uop.Ohfi_clear_region _ | Uop.Ohfi_clear_all | Uop.Omfence | Uop.Onop | Uop.Ojmp _
      | Uop.Ojcc _ | Uop.Ojmp_ind _ | Uop.Ohalt ->
        ()
    done;
    if heirs.(b) > 0 then out_states.(b) <- Some st
  in
  Array.iter process_block order;
  if Edit.changed edit then (Edit.rebuild edit, !count) else (prog, 0)
