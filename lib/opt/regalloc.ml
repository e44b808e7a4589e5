(* Linear-scan register allocation over live intervals.

   The allocator renames a declared pool of [allocatable] registers onto
   its first [avail] members, spilling the rest to fixed 8-byte slots:
   live intervals are built from the dataflow liveness solution, sorted
   by start, and assigned greedily with the classic furthest-end spill
   heuristic. Spilled registers are rewritten per instruction — reloads
   into scratch registers before, writeback after — with [Edit] doing
   the branch retargeting (a branch to a rewritten instruction must run
   its reloads, so the expansion is a replacement, not an insertion).

   This intentionally allocates an already-register-allocated program
   DOWN onto a smaller pool: it is the measurement instrument for the
   register-pressure experiment (how much does reserving registers for
   SFI metadata really cost?), replacing the fixed reservation model
   with real allocator behavior. [allocate] refuses programs whose
   control flow or register usage it cannot reason about (calls,
   syscalls, indirect jumps, scratch conflicts) by returning [None]. *)

type stats = {
  intervals : int;  (* allocatable registers with a live range *)
  spilled : Reg.t list;  (* ranges that lost the pool *)
  reloads : int;  (* static reload loads inserted *)
  writebacks : int;  (* static writeback stores inserted *)
}

type interval = { reg : int; start_ : int; end_ : int }

(* A register's interval spans every instruction where it is live on
   entry or written. Reads need no test of their own: an instruction's
   reads are part of its gen mask, hence of its live-in. *)
let intervals_of (p : Liveness.prepared) (live : Liveness.t) ~allocatable =
  let n = Array.length p.Liveness.uops in
  List.filter_map
    (fun r ->
      let ri = Reg.index r in
      let start_ = ref max_int and end_ = ref (-1) in
      for i = 0 to n - 1 do
        let here =
          Liveness.is_live live.Liveness.live_in.(i) ri || Liveness.is_live p.Liveness.kill.(i) ri
        in
        if here then begin
          if i < !start_ then start_ := i;
          if i > !end_ then end_ := i
        end
      done;
      if !end_ < 0 then None else Some { reg = ri; start_ = !start_; end_ = !end_ })
    allocatable

(* Greedy linear scan; returns assignments (reg -> phys) and spills. *)
let scan intervals ~phys =
  let ivs = List.sort (fun a b -> compare (a.start_, a.reg) (b.start_, b.reg)) intervals in
  let assign = Hashtbl.create 16 in
  let spills = ref [] in
  let active = ref [] in  (* (interval, phys), sorted by end_ *)
  let free = ref phys in
  let expire point =
    let keep, dead = List.partition (fun (iv, _) -> iv.end_ >= point) !active in
    active := keep;
    List.iter (fun (_, p) -> free := p :: !free) dead
  in
  List.iter
    (fun iv ->
      expire iv.start_;
      match !free with
      | p :: rest ->
        free := rest;
        Hashtbl.replace assign iv.reg p;
        active := List.sort (fun (a, _) (b, _) -> compare a.end_ b.end_) ((iv, p) :: !active)
      | [] -> (
        (* furthest end loses its register *)
        match List.rev !active with
        | (victim, p) :: _ when victim.end_ > iv.end_ ->
          Hashtbl.remove assign victim.reg;
          spills := victim.reg :: !spills;
          Hashtbl.replace assign iv.reg p;
          active :=
            List.sort
              (fun (a, _) (b, _) -> compare a.end_ b.end_)
              ((iv, p) :: List.filter (fun (a, _) -> a.reg <> victim.reg) !active)
        | _ -> spills := iv.reg :: !spills))
    ivs;
  (assign, List.sort_uniq compare !spills)

(* Substitute every register occurrence of an instruction. *)
let subst_src f = function Instr.Imm i -> Instr.Imm i | Instr.Reg r -> Instr.Reg (f r)

let subst_mem f (m : Instr.mem) =
  { m with Instr.base = Option.map f m.Instr.base; index = Option.map f m.Instr.index }

let subst f (ins : Instr.t) =
  match ins with
  | Instr.Mov (r, s) -> Instr.Mov (f r, subst_src f s)
  | Instr.Load (w, r, m) -> Instr.Load (w, f r, subst_mem f m)
  | Instr.Store (w, m, s) -> Instr.Store (w, subst_mem f m, subst_src f s)
  | Instr.Hload (n, w, r, m) -> Instr.Hload (n, w, f r, subst_mem f m)
  | Instr.Hstore (n, w, m, s) -> Instr.Hstore (n, w, subst_mem f m, subst_src f s)
  | Instr.Lea (r, m) -> Instr.Lea (f r, subst_mem f m)
  | Instr.Alu (op, r, s) -> Instr.Alu (op, f r, subst_src f s)
  | Instr.Cmp (r, s) -> Instr.Cmp (f r, subst_src f s)
  | Instr.Cmp_mem (r, m) -> Instr.Cmp_mem (f r, subst_mem f m)
  | Instr.Jmp_ind r -> Instr.Jmp_ind (f r)
  | Instr.Call_ind r -> Instr.Call_ind (f r)
  | Instr.Push r -> Instr.Push (f r)
  | Instr.Pop r -> Instr.Pop (f r)
  | Instr.Rdtsc r -> Instr.Rdtsc (f r)
  | Instr.Rdmsr r -> Instr.Rdmsr (f r)
  | Instr.Hfi_get_region (n, r) -> Instr.Hfi_get_region (n, f r)
  | Instr.Clflush m -> Instr.Clflush (subst_mem f m)
  | Instr.Jmp _ | Instr.Jcc _ | Instr.Call _ | Instr.Ret | Instr.Syscall | Instr.Hfi_enter _
  | Instr.Hfi_exit | Instr.Hfi_reenter | Instr.Hfi_set_region _ | Instr.Hfi_clear_region _
  | Instr.Hfi_clear_all_regions | Instr.Cpuid | Instr.Mfence | Instr.Nop | Instr.Halt ->
    ins

let allocate ~code_base ~allocatable ~avail ~scratch ~spill_base prog =
  let uops = Uop.decode prog ~code_base in
  let n = Array.length uops in
  let alloc_idx = List.map Reg.index allocatable in
  let scratch_idx = List.map Reg.index scratch in
  let usable = ref (avail >= 0 && avail <= List.length allocatable) in
  if List.exists (fun s -> List.mem s alloc_idx) scratch_idx then usable := false;
  (* the program must be a closed single-procedure region whose scratch
     registers are genuinely free *)
  for i = 0 to n - 1 do
    let u = uops.(i) in
    (* HFI transitions and region configuration are fine: they touch no
       GPRs architecturally (liveness treats them as reading everything
       only to be conservative, which here just lengthens intervals).
       Syscalls and cpuid DO observe/clobber registers by name — the
       kernel ABI and the RAX..RDX outputs — so renaming across them is
       unsound. *)
    (match u.Uop.op with
    | Uop.Ocall _ | Uop.Ocall_ind _ | Uop.Oret | Uop.Ojmp_ind _ | Uop.Osyscall | Uop.Ocpuid ->
      usable := false
    | _ -> ());
    (* Scratch values never live across instructions (reload, use,
       writeback inside one replacement), so program WRITES to a scratch
       register are harmless — only a program READ of one would observe
       our clobbering. *)
    if List.exists (fun s -> Array.exists (fun x -> x = s) u.Uop.reads) scratch_idx then
      usable := false
  done;
  if not !usable then None
  else begin
    let live_p = Liveness.prepare uops (Cfg.build uops (Uop.layout prog ~code_base)) in
    let ivs = intervals_of live_p (Liveness.solve live_p) ~allocatable in
    let phys = List.filteri (fun k _ -> k < avail) alloc_idx in
    let assign, spilled = scan ivs ~phys in
    let slot_of =
      let tbl = Hashtbl.create 8 in
      List.iteri (fun k r -> Hashtbl.replace tbl r (spill_base + (8 * k))) spilled;
      tbl
    in
    let is_spilled r = Hashtbl.mem slot_of r
    and phys_of r = Hashtbl.find_opt assign r in
    let reloads = ref 0 and writebacks = ref 0 in
    let edit = Edit.create prog ~code_base in
    let overflow = ref false in
    for i = 0 to n - 1 do
      let u = uops.(i) in
      let reads = Array.to_list u.Uop.reads and writes = Array.to_list u.Uop.writes in
      let spilled_here =
        List.sort_uniq compare (List.filter is_spilled (reads @ writes))
      in
      let touched_alloc =
        List.exists (fun r -> List.mem r alloc_idx) (reads @ writes)
      in
      if spilled_here = [] && not touched_alloc then ()
      else if List.length spilled_here > List.length scratch_idx then overflow := true
      else begin
        let scratch_of = Hashtbl.create 4 in
        List.iteri (fun k r -> Hashtbl.replace scratch_of r (List.nth scratch_idx k)) spilled_here;
        let f r =
          let ri = Reg.index r in
          match Hashtbl.find_opt scratch_of ri with
          | Some s -> Reg.of_index s
          | None -> (
            match phys_of ri with Some p -> Reg.of_index p | None -> r)
        in
        let pre =
          List.filter_map
            (fun ri ->
              if List.mem ri reads then begin
                incr reloads;
                Some
                  (Instr.Load
                     ( Instr.W8,
                       Reg.of_index (Hashtbl.find scratch_of ri),
                       Instr.mem ~disp:(Hashtbl.find slot_of ri) () ))
              end
              else None)
            spilled_here
        in
        let post =
          List.filter_map
            (fun ri ->
              if List.mem ri writes then begin
                incr writebacks;
                Some
                  (Instr.Store
                     ( Instr.W8,
                       Instr.mem ~disp:(Hashtbl.find slot_of ri) (),
                       Instr.Reg (Reg.of_index (Hashtbl.find scratch_of ri)) ))
              end
              else None)
            spilled_here
        in
        let body = subst f (Edit.original edit i) in
        Edit.replace edit i (pre @ [ body ] @ post)
      end
    done;
    if !overflow then None
    else begin
      let prog' = if Edit.changed edit then Edit.rebuild edit else prog in
      Some
        ( prog',
          {
            intervals = List.length ivs;
            spilled = List.map Reg.of_index spilled;
            reloads = !reloads;
            writebacks = !writebacks;
          } )
    end
  end
