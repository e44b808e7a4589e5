type entry = {
  seq : int;
  index : int;
  disasm : string;
  reg_writes : (Reg.t * int) list;
  mem : Machine.access option;
  signal : Msr.t option;
}

let pp_entry ppf e =
  Format.fprintf ppf "%6d  @%-5d %-40s" e.seq e.index e.disasm;
  List.iter (fun (r, v) -> Format.fprintf ppf " %s=%d" (Reg.to_string r) v) e.reg_writes;
  (match e.mem with
  | Some a ->
    Format.fprintf ppf "  [%s 0x%x/%d%s]"
      (if a.Machine.write then "store" else "load")
      a.Machine.addr a.Machine.bytes
      (if a.Machine.via_hmov then " hmov" else "")
  | None -> ());
  match e.signal with
  | Some s -> Format.fprintf ppf "  !! signal: %a" Msr.pp s
  | None -> ()

let trace ?(limit = 200) m =
  let entries = ref [] in
  let seq = ref 0 in
  let continue = ref true in
  while !continue && !seq < limit do
    let before = Array.copy (Machine.regs m) in
    let recorded = ref None in
    (match
       Machine.run ~fuel:1 m (fun u ev ->
           incr seq;
           let instr = u.Uop.instr in
           let writes =
             List.filter_map
               (fun r ->
                 let v = Machine.get_reg m r in
                 if v <> before.(Reg.index r) then Some (r, v) else None)
               (Instr.writes instr)
           in
           (* copied out: the event slot is reused by the next step *)
           recorded :=
             Some
               {
                 seq = !seq;
                 index = ev.Machine.index;
                 disasm = Instr.to_string instr;
                 reg_writes = writes;
                 mem = Machine.access ev;
                 signal = (if ev.Machine.signalled then Machine.last_signal m else None);
               })
     with
    | Machine.Running -> ()
    | Machine.Halted | Machine.Faulted _ -> continue := false);
    match !recorded with Some e -> entries := e :: !entries | None -> continue := false
  done;
  List.rev !entries

(* hits / (hits + misses) as a percentage; 100% when the structure was
   never exercised so idle structures don't read as pathological. *)
let rate_pct hits misses =
  let total = hits + misses in
  if total = 0 then 100.0 else 100.0 *. float_of_int hits /. float_of_int total

let pp_result ppf (r : Cycle_engine.result) =
  let ipc = if r.Cycle_engine.cycles > 0.0 then float_of_int r.Cycle_engine.instrs /. r.Cycle_engine.cycles else 0.0 in
  let mispredict_pct miss lookups =
    if lookups = 0 then 0.0 else 100.0 *. float_of_int miss /. float_of_int lookups
  in
  let transient_per_instr =
    if r.Cycle_engine.instrs = 0 then 0.0
    else float_of_int r.Cycle_engine.transient_instrs /. float_of_int r.Cycle_engine.instrs
  in
  Format.fprintf ppf
    "cycles: %s@ instructions: %d (IPC %.2f)@ i-cache misses: %d (%.1f%% hit)@ d-cache misses: \
     %d (%.1f%% hit)@ dTLB misses: %d (%.1f%% hit)@ mispredicts: %d cond (%.1f%%) + %d indirect \
     (%.1f%%)@ drains: %d@ transient instructions: %d (%.2f per committed)@ status: %s"
    (Hfi_util.Units.pp_cycles r.Cycle_engine.cycles)
    r.Cycle_engine.instrs ipc r.Cycle_engine.icache_misses
    (rate_pct r.Cycle_engine.icache_hits r.Cycle_engine.icache_misses)
    r.Cycle_engine.dcache_misses
    (rate_pct r.Cycle_engine.dcache_hits r.Cycle_engine.dcache_misses)
    r.Cycle_engine.dtlb_misses
    (rate_pct r.Cycle_engine.dtlb_hits r.Cycle_engine.dtlb_misses)
    r.Cycle_engine.cond_mispredicts
    (mispredict_pct r.Cycle_engine.cond_mispredicts r.Cycle_engine.cond_lookups)
    r.Cycle_engine.indirect_mispredicts
    (mispredict_pct r.Cycle_engine.indirect_mispredicts r.Cycle_engine.indirect_lookups)
    r.Cycle_engine.drains r.Cycle_engine.transient_instrs transient_per_instr
    (match r.Cycle_engine.status with
    | Machine.Halted -> "halted"
    | Machine.Running -> "running"
    | Machine.Faulted m -> "faulted: " ^ Msr.to_string m)
