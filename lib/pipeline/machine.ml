type access = { addr : int; bytes : int; write : bool; via_hmov : bool }

type branch_kind = No_branch | Cond | Uncond | Indirect | Call_k | Ret_k

type event = {
  mutable index : int;
  mutable fetch_addr : int;
  mutable has_mem : bool;
  mutable mem_addr : int;
  mutable mem_bytes : int;
  mutable mem_write : bool;
  mutable mem_hmov : bool;
  mutable branch : branch_kind;
  mutable taken : bool;
  mutable target : int;
  mutable fallthrough : int;
  mutable serializing : bool;
  kernel_cycles : float array;
  mutable signalled : bool;
}

let access ev =
  if ev.has_mem then
    Some { addr = ev.mem_addr; bytes = ev.mem_bytes; write = ev.mem_write; via_hmov = ev.mem_hmov }
  else None

type status = Running | Halted | Faulted of Msr.t

type t = {
  regs : int array;  (* the [Reg.count] GPRs, then the last compare's two operands *)
  mutable pc : int;
  prog : Program.t;
  code_base : int;
  uops : Uop.t array;  (* pre-decoded, shared per program via Uop.decode *)
  block_last : int array;  (* the program's Uop.layout *)
  fetch_addr : int array;
  mem_ : Addr_space.t;
  kernel : Kernel.t;
  hfi : Hfi.t;
  signal_handler : int option;
  mutable status_ : status;
  mutable instr_count : int;
  mutable last_signal : Msr.t option;
  mutable last_fault : Hfi_util.Fault.t option;
  mutable now : unit -> int;
  mutable on_flush : int -> unit;
  mutable resume : int option;
      (* instruction to resume at after hfi_reenter (set when a syscall
         is redirected to the exit handler) *)
  ev : event;  (* the one event slot every committed step overwrites *)
  spec_ev : event;  (* the slot transient steps write instead *)
  shadow : int array;  (* [speculate]'s copy of [regs], reused per call *)
  mutable spec_checks : bool;  (* the wrong path's view of the HFI enable bit *)
}

(* The compare operands live in [regs] past the GPRs, so [speculate]'s
   shadow copy is one blit and [Ocmp]/[Ojcc] have one form. *)
let cmp_a_i = Reg.count
let cmp_b_i = Reg.count + 1

(* Dispatch selection. One fast path and one reference:

     uop  (default)             pre-decoded µop records, a block at a time
     ast  (HFI_DECODE_CACHE=0)  reference match-on-AST interpreter

   Both must produce bit-identical modeled results — the equivalence
   tests flip [decode_dispatch] in-process. *)
let decode_dispatch =
  ref (match Sys.getenv_opt "HFI_DECODE_CACHE" with Some "0" -> false | _ -> true)

let dispatch_tier () = if !decode_dispatch then "uop" else "ast"

let new_event () =
  {
    index = 0;
    fetch_addr = 0;
    has_mem = false;
    mem_addr = 0;
    mem_bytes = 0;
    mem_write = false;
    mem_hmov = false;
    branch = No_branch;
    taken = false;
    target = 0;
    fallthrough = 0;
    serializing = false;
    kernel_cycles = [| 0.0 |];
    signalled = false;
  }

let create ?signal_handler ~prog ~code_base ~mem ~kernel ~hfi ~entry () =
  let layout = Uop.layout prog ~code_base in
  {
    regs = Array.make (Reg.count + 2) 0;
    pc = entry;
    prog;
    code_base;
    uops = Uop.decode prog ~code_base;
    block_last = layout.Uop.block_last;
    fetch_addr = layout.Uop.fetch_addr;
    mem_ = mem;
    kernel;
    hfi;
    signal_handler;
    status_ = Running;
    instr_count = 0;
    last_signal = None;
    last_fault = None;
    now = (fun () -> 0);
    on_flush = ignore;
    resume = None;
    ev = new_event ();
    spec_ev = new_event ();
    shadow = Array.make (Reg.count + 2) 0;
    spec_checks = false;
  }

let set_now t f = t.now <- f
let set_on_flush t f = t.on_flush <- f
let regs t = t.regs
(* [Reg.index] is total into [0, Reg.count) and [regs] has more slots
   than that, so the bounds checks are provably dead — and these two run
   several times per simulated instruction. *)
let get_reg t r = Array.unsafe_get t.regs (Reg.index r)
let set_reg t r v = Array.unsafe_set t.regs (Reg.index r) v
let pc t = t.pc
let status t = t.status_
let hfi t = t.hfi
let kernel t = t.kernel
let mem t = t.mem_
let program t = t.prog
let code_base t = t.code_base
let instr_count t = t.instr_count
let last_signal t = t.last_signal
let last_fault t = t.last_fault

let addr_of_index t i = t.fetch_addr.(i)

let index_of_addr t a =
  if a < t.code_base then None else Program.index_of_byte t.prog (a - t.code_base)

let src_value t = function Instr.Imm i -> i | Instr.Reg r -> get_reg t r

let effective_address t (m : Instr.mem) =
  let base = match m.base with Some r -> get_reg t r | None -> 0 in
  let index = match m.index with Some r -> get_reg t r | None -> 0 in
  base + (index * m.scale) + m.disp

let mask_width w v =
  match w with
  | Instr.W1 -> v land 0xff
  | Instr.W2 -> v land 0xffff
  | Instr.W4 -> v land 0xffffffff
  | Instr.W8 -> v

(* Signals: deliver to the runtime's handler if one is registered,
   otherwise end the run. *)
exception Trap_exn of Msr.t

let alu op a b =
  match op with
  | Instr.Add -> a + b
  | Instr.Sub -> a - b
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Shl -> a lsl (b land 63)
  | Instr.Shr -> a lsr (b land 63)
  | Instr.Sar -> a asr (b land 63)
  | Instr.Mul -> a * b
  | Instr.Div -> if b = 0 then raise (Trap_exn (Msr.Hardware_fault 0)) else a / b

(* Committed load or store through the page table; a page fault traps. *)
let paged_access t ~addr ~bytes ~write ~value =
  try
    if write then begin
      Addr_space.store t.mem_ ~addr ~bytes value;
      0
    end
    else Addr_space.load t.mem_ ~addr ~bytes
  with Addr_space.Fault f ->
    Hfi.on_hardware_fault t.hfi ~addr:f.addr;
    raise (Trap_exn (Msr.Hardware_fault f.addr))

(* Committed data access: the HFI implicit-region check, then paging. *)
let data_access t ~addr ~bytes ~write ~value =
  (match Hfi.check_data_access t.hfi ~addr ~bytes (if write then `Write else `Read) with
  | Ok () -> ()
  | Error v ->
    ignore (Hfi.record_violation t.hfi v);
    raise (Trap_exn (Msr.Bounds_violation v)));
  paged_access t ~addr ~bytes ~write ~value

(* Committed hmov address: the allocation-free check, and on failure the
   full one, which builds the violation the trap reports. *)
let hmov_commit_addr t ~region ~index_value ~scale ~disp ~bytes ~write =
  let ea = Hfi.check_hmov_ea t.hfi ~region ~index_value ~scale ~disp ~bytes ~write in
  if ea >= 0 then ea
  else begin
    match Hfi.check_hmov t.hfi ~region ~index_value ~scale ~disp ~bytes ~write with
    | Ok ea -> ea
    | Error v ->
      ignore (Hfi.record_violation t.hfi v);
      raise (Trap_exn (Msr.Bounds_violation v))
  end

let out_of_range_fault t =
  let reason = Msr.Hardware_fault (addr_of_index t 0) in
  t.status_ <- Faulted reason;
  t.last_fault <- Some (Msr.to_fault ~cycle:t.instr_count reason);
  t.status_

let check_ifetch t ~addr =
  match Hfi.check_ifetch t.hfi ~addr with
  | Ok () -> ()
  | Error v ->
    ignore (Hfi.record_violation t.hfi v);
    raise (Trap_exn (Msr.Bounds_violation v))

(* ------------------------------------------------------------------ *)
(* Structured event trace: one event per committed instruction when
   tracing is on. Out of line so the hot path pays only the flag test at
   the call site; [ts] is the modeled clock via the installed rdtsc. *)
let trace_commit t (u : Uop.t) =
  let ts = float_of_int (t.now ()) in
  (match u.Uop.instr with
   | Instr.Hfi_enter _ -> Hfi_obs.Trace.(emit Transition ~ts ~a:0)
   | Instr.Hfi_exit -> Hfi_obs.Trace.(emit Transition ~ts ~a:1)
   | Instr.Hfi_reenter -> Hfi_obs.Trace.(emit Transition ~ts ~a:2)
   | Instr.Syscall -> Hfi_obs.Trace.(emit Syscall ~ts ~a:t.ev.index)
   | _ -> Hfi_obs.Trace.(emit Commit ~ts ~a:t.ev.index));
  match t.last_signal with
  | Some reason when t.ev.signalled -> Hfi_obs.Trace.(emit Fault ~ts ~a:(Msr.encode reason))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Event-slot writers shared by both interpreters. Every field is an int,
   a bool or a constant constructor, so the stores need no write barrier
   and a step allocates nothing for its event. *)

let[@inline] begin_event ev ~index ~fetch_addr ~serializing =
  ev.index <- index;
  ev.fetch_addr <- fetch_addr;
  ev.has_mem <- false;
  ev.branch <- No_branch;
  ev.serializing <- serializing;
  Array.unsafe_set ev.kernel_cycles 0 0.0;
  ev.signalled <- false

let[@inline] note_mem ev ~addr ~bytes ~write ~via_hmov =
  ev.has_mem <- true;
  ev.mem_addr <- addr;
  ev.mem_bytes <- bytes;
  ev.mem_write <- write;
  ev.mem_hmov <- via_hmov

let[@inline] note_branch ev kind ~taken ~target ~fallthrough =
  ev.branch <- kind;
  ev.taken <- taken;
  ev.target <- target;
  ev.fallthrough <- fallthrough

(* Only the HFI transition and region instructions drain the pipeline,
   so only their cases read the drain counter, around the call. *)
let drains t = (Hfi.stats t.hfi).Hfi.drains
let note_drain t d0 = if drains t > d0 then t.ev.serializing <- true

(* Next instruction after an HFI transition's effect. *)
let hfi_next t effect ~next =
  match effect with
  | Hfi.Continue -> next
  | Hfi.Jump a -> begin
    match index_of_addr t a with
    | Some i -> i
    | None -> raise (Trap_exn (Msr.Hardware_fault a))
  end
  | Hfi.Trap r -> raise (Trap_exn r)

let hfi_reenter_next t effect ~next =
  match effect with
  | Hfi.Continue -> begin
    match t.resume with
    | Some i ->
      t.resume <- None;
      i
    | None -> next
  end
  | effect -> hfi_next t effect ~next

(* Region updates never redirect control; only a trap matters. *)
let hfi_region_effect = function Hfi.Trap r -> raise (Trap_exn r) | Hfi.Continue | Hfi.Jump _ -> ()

(* A syscall the sandbox permits. Only [Kernel.dispatch] charges kernel
   time, so the clock is read around it alone. *)
let kernel_syscall t ~number ~arg0 ~arg1 ~arg2 =
  let k0 = Kernel.cycles t.kernel in
  let result = Kernel.dispatch t.kernel ~number ~arg0 ~arg1 ~arg2 in
  let k1 = Kernel.cycles t.kernel in
  if k1 <> k0 then Array.unsafe_set t.ev.kernel_cycles 0 (k1 -. k0);
  result

(* Signal delivery: record the trap, then redirect to the runtime's
   handler if one is registered, otherwise end the run. Fault path only —
   the no-trap hot path never touches this, so modeled cycle counts are
   unchanged by the fault plumbing. Returns the next instruction. *)
let deliver t ~pc_addr ~next reason =
  t.ev.signalled <- true;
  t.last_signal <- Some reason;
  t.last_fault <- Some (Msr.to_fault ~pc:pc_addr ~cycle:t.instr_count reason);
  match t.signal_handler with
  | Some h -> h
  | None ->
    t.status_ <- Faulted reason;
    next

(* ------------------------------------------------------------------ *)
(* Reference interpreter: match on the instruction AST. Kept as the
   semantic baseline the µop path is tested against; only [run_ast]
   (selected by HFI_DECODE_CACHE=0) calls it. *)

let hmov_resolve t ~region (m : Instr.mem) ~bytes ~write =
  let index_value = match m.index with Some r -> get_reg t r | None -> 0 in
  hmov_commit_addr t ~region ~index_value ~scale:m.scale ~disp:m.disp ~bytes ~write

let step t (observe : Uop.t -> event -> unit) =
  match t.status_ with
  | Halted | Faulted _ -> t.status_
  | Running ->
    if t.pc < 0 || t.pc >= Program.length t.prog then out_of_range_fault t
    else begin
      let index = t.pc in
      let ins = Program.get t.prog index in
      let pc_addr = addr_of_index t index in
      let ev = t.ev in
      begin_event ev ~index ~fetch_addr:pc_addr
        ~serializing:(match ins with Instr.Cpuid | Instr.Mfence -> true | _ -> false);
      let fallthrough = index + 1 in
      let next = ref fallthrough in
      t.instr_count <- t.instr_count + 1;
      (try
         (* Decode-stage code-region check (§4.1). *)
         check_ifetch t ~addr:pc_addr;
         match ins with
         | Instr.Mov (d, s) -> set_reg t d (src_value t s)
         | Instr.Load (w, d, m) ->
           let addr = effective_address t m in
           let bytes = Instr.width_bytes w in
           note_mem ev ~addr ~bytes ~write:false ~via_hmov:false;
           set_reg t d (data_access t ~addr ~bytes ~write:false ~value:0)
         | Instr.Store (w, m, s) ->
           let addr = effective_address t m in
           let bytes = Instr.width_bytes w in
           note_mem ev ~addr ~bytes ~write:true ~via_hmov:false;
           ignore
             (data_access t ~addr ~bytes ~write:true ~value:(mask_width w (src_value t s)))
         | Instr.Hload (n, w, d, m) ->
           let bytes = Instr.width_bytes w in
           let addr = hmov_resolve t ~region:n m ~bytes ~write:false in
           note_mem ev ~addr ~bytes ~write:false ~via_hmov:true;
           set_reg t d (paged_access t ~addr ~bytes ~write:false ~value:0)
         | Instr.Hstore (n, w, m, s) ->
           let bytes = Instr.width_bytes w in
           let addr = hmov_resolve t ~region:n m ~bytes ~write:true in
           note_mem ev ~addr ~bytes ~write:true ~via_hmov:true;
           ignore
             (paged_access t ~addr ~bytes ~write:true ~value:(mask_width w (src_value t s)))
         | Instr.Lea (d, m) -> set_reg t d (effective_address t m)
         | Instr.Alu (op, d, s) -> set_reg t d (alu op (get_reg t d) (src_value t s))
         | Instr.Cmp (d, s) ->
           t.regs.(cmp_b_i) <- src_value t s;
           t.regs.(cmp_a_i) <- get_reg t d
         | Instr.Cmp_mem (d, m) ->
           let addr = effective_address t m in
           note_mem ev ~addr ~bytes:8 ~write:false ~via_hmov:false;
           let b = data_access t ~addr ~bytes:8 ~write:false ~value:0 in
           t.regs.(cmp_b_i) <- b;
           t.regs.(cmp_a_i) <- get_reg t d
         | Instr.Jmp tgt ->
           next := tgt;
           note_branch ev Uncond ~taken:true ~target:tgt ~fallthrough
         | Instr.Jcc (c, tgt) ->
           let taken = Instr.eval_cond c t.regs.(cmp_a_i) t.regs.(cmp_b_i) in
           if taken then next := tgt;
           note_branch ev Cond ~taken ~target:!next ~fallthrough
         | Instr.Jmp_ind r -> begin
           let a = get_reg t r in
           match index_of_addr t a with
           | Some i ->
             next := i;
             note_branch ev Indirect ~taken:true ~target:i ~fallthrough
           | None -> raise (Trap_exn (Msr.Hardware_fault a))
         end
         | Instr.Call tgt ->
           let rsp = get_reg t Reg.RSP - 8 in
           set_reg t Reg.RSP rsp;
           note_mem ev ~addr:rsp ~bytes:8 ~write:true ~via_hmov:false;
           ignore
             (data_access t ~addr:rsp ~bytes:8 ~write:true ~value:(addr_of_index t fallthrough));
           next := tgt;
           note_branch ev Call_k ~taken:true ~target:tgt ~fallthrough
         | Instr.Call_ind r -> begin
           let a = get_reg t r in
           match index_of_addr t a with
           | Some i ->
             let rsp = get_reg t Reg.RSP - 8 in
             set_reg t Reg.RSP rsp;
             note_mem ev ~addr:rsp ~bytes:8 ~write:true ~via_hmov:false;
             ignore
               (data_access t ~addr:rsp ~bytes:8 ~write:true
                  ~value:(addr_of_index t fallthrough));
             next := i;
             note_branch ev Call_k ~taken:true ~target:i ~fallthrough
           | None -> raise (Trap_exn (Msr.Hardware_fault a))
         end
         | Instr.Ret -> begin
           let rsp = get_reg t Reg.RSP in
           note_mem ev ~addr:rsp ~bytes:8 ~write:false ~via_hmov:false;
           let ra = data_access t ~addr:rsp ~bytes:8 ~write:false ~value:0 in
           set_reg t Reg.RSP (rsp + 8);
           match index_of_addr t ra with
           | Some i ->
             next := i;
             note_branch ev Ret_k ~taken:true ~target:i ~fallthrough
           | None -> raise (Trap_exn (Msr.Hardware_fault ra))
         end
         | Instr.Push r ->
           let rsp = get_reg t Reg.RSP - 8 in
           set_reg t Reg.RSP rsp;
           note_mem ev ~addr:rsp ~bytes:8 ~write:true ~via_hmov:false;
           ignore (data_access t ~addr:rsp ~bytes:8 ~write:true ~value:(get_reg t r))
         | Instr.Pop r ->
           let rsp = get_reg t Reg.RSP in
           note_mem ev ~addr:rsp ~bytes:8 ~write:false ~via_hmov:false;
           set_reg t r (data_access t ~addr:rsp ~bytes:8 ~write:false ~value:0);
           set_reg t Reg.RSP (rsp + 8)
         | Instr.Syscall -> begin
           let number = get_reg t Reg.RAX in
           match Hfi.on_syscall t.hfi ~number with
           | `Allow ->
             let result =
               kernel_syscall t ~number ~arg0:(get_reg t Reg.RDI) ~arg1:(get_reg t Reg.RSI)
                 ~arg2:(get_reg t Reg.RDX)
             in
             set_reg t Reg.RAX result
           | `Redirect h -> begin
             (* §4.4: the syscall becomes a jump to the exit handler; the
                resume point is preserved for hfi_reenter. *)
             t.resume <- Some fallthrough;
             match index_of_addr t h with
             | Some i -> next := i
             | None -> raise (Trap_exn (Msr.Hardware_fault h))
           end
           | `Fault -> raise (Trap_exn (Msr.Syscall_trap number))
         end
         | Instr.Hfi_enter spec ->
           let d0 = drains t in
           let e = Hfi.exec_enter t.hfi spec in
           note_drain t d0;
           next := hfi_next t e ~next:!next
         | Instr.Hfi_exit ->
           let d0 = drains t in
           let e = Hfi.exec_exit t.hfi in
           note_drain t d0;
           next := hfi_next t e ~next:!next
         | Instr.Hfi_reenter ->
           let d0 = drains t in
           let e = Hfi.exec_reenter t.hfi in
           note_drain t d0;
           next := hfi_reenter_next t e ~next:!next
         | Instr.Hfi_set_region (slot, r) ->
           let d0 = drains t in
           let e = Hfi.exec_set_region t.hfi ~slot r in
           note_drain t d0;
           hfi_region_effect e
         | Instr.Hfi_clear_region slot ->
           let d0 = drains t in
           let e = Hfi.exec_clear_region t.hfi ~slot in
           note_drain t d0;
           hfi_region_effect e
         | Instr.Hfi_clear_all_regions ->
           let d0 = drains t in
           let e = Hfi.exec_clear_all t.hfi in
           note_drain t d0;
           hfi_region_effect e
         | Instr.Hfi_get_region (slot, d) -> begin
           match Hfi.exec_get_region t.hfi ~slot with
           | Ok v -> set_reg t d v
           | Error reason -> raise (Trap_exn reason)
         end
         | Instr.Cpuid ->
           set_reg t Reg.RAX 0;
           set_reg t Reg.RBX 0;
           set_reg t Reg.RCX 0;
           set_reg t Reg.RDX 0
         | Instr.Rdtsc d -> set_reg t d (t.now ())
         | Instr.Rdmsr d -> set_reg t d (Msr.encode (Hfi.exit_reason t.hfi))
         | Instr.Clflush m -> t.on_flush (effective_address t m)
         | Instr.Mfence | Instr.Nop -> ()
         | Instr.Halt -> t.status_ <- Halted
       with Trap_exn reason -> next := deliver t ~pc_addr ~next:!next reason);
      (match t.status_ with Running -> t.pc <- !next | Halted | Faulted _ -> ());
      let u = Array.unsafe_get t.uops index in
      if !Hfi_obs.Obs.trace_enabled then trace_commit t u;
      observe u ev;
      t.status_
    end

(* ------------------------------------------------------------------ *)
(* µop semantics, written once for commit and for the wrong path, over
   the pre-decoded form (register indices and immediates: no option
   matches, [Reg.index] calls or width decoding on the hot path).
   [exec t fx ~spec u ~index] runs the µop [u] at [index] and returns the
   next index.
   - Commit ([~spec:false]) runs over the architectural registers,
     fills [t.ev], and raises [Trap_exn] for its caller to deliver.
   - The wrong path ([~spec:true]) runs over the shadow registers and
     fills [t.spec_ev]. Stores are checked but stay in the store buffer;
     reads report to [fx.spec_mem], then peek committed memory. Wherever
     commit would fail the HFI check, trap, serialize or leave the
     sandbox, the window stops ([Stop], or [Trap_exn] from shared code).
   [exec] and its mode helpers are [@inline] and every caller passes a
   literal [~spec], so ocamlopt compiles one copy per mode with the
   [if spec] tests folded away. *)

exception Stop

type spec_effects = { spec_fetch : int -> unit; spec_mem : int -> unit }

let no_effects = { spec_fetch = ignore; spec_mem = ignore }

let rsp_i = Reg.index Reg.RSP
let rax_i = Reg.index Reg.RAX
let rbx_i = Reg.index Reg.RBX
let rcx_i = Reg.index Reg.RCX
let rdx_i = Reg.index Reg.RDX
let rdi_i = Reg.index Reg.RDI
let rsi_i = Reg.index Reg.RSI

(* Decoded register slots come from [Reg.index], so unsafe access is as
   provably in-bounds as in [get_reg]/[set_reg]; -1 (absent operand) is
   always guarded before use. *)
let[@inline] rget (regs : int array) i = Array.unsafe_get regs i
let[@inline] rset (regs : int array) i v = Array.unsafe_set regs i v
let[@inline] srcv regs sreg simm = if sreg >= 0 then rget regs sreg else simm

let[@inline] ea_parts regs ~mbase ~midx ~mscale ~mdisp =
  (if mbase >= 0 then rget regs mbase else 0)
  + ((if midx >= 0 then rget regs midx else 0) * mscale)
  + mdisp

let data_ok t ~addr ~bytes acc =
  match Hfi.check_data_access t.hfi ~addr ~bytes acc with Ok () -> true | Error _ -> false

(* A data read. [implicit] reads take the implicit-region check; hmov
   reads were checked by [hmov_addr]. *)
let[@inline] read t fx ~spec ~implicit ~addr ~bytes =
  if spec then begin
    if (implicit && t.spec_checks && not (data_ok t ~addr ~bytes `Read))
       || not (Addr_space.is_mapped t.mem_ addr)
    then raise_notrace Stop;
    fx.spec_mem addr;
    Addr_space.peek t.mem_ ~addr ~bytes
  end
  else if implicit then data_access t ~addr ~bytes ~write:false ~value:0
  else paged_access t ~addr ~bytes ~write:false ~value:0

(* A data write. The wrong path only checks it: the store stays in the
   store buffer, with no cache effect. *)
let[@inline] write t ~spec ~implicit ~addr ~bytes value =
  if spec then begin
    if implicit && t.spec_checks && not (data_ok t ~addr ~bytes `Write) then raise_notrace Stop
  end
  else if implicit then ignore (data_access t ~addr ~bytes ~write:true ~value)
  else ignore (paged_access t ~addr ~bytes ~write:true ~value)

let[@inline] hmov_addr t regs ~spec ~region ~midx ~mscale ~mdisp ~bytes ~write =
  let index_value = if midx >= 0 then rget regs midx else 0 in
  if spec then begin
    (* the allocation-free check: -1 exactly when [check_hmov] fails *)
    let ea = Hfi.check_hmov_ea t.hfi ~region ~index_value ~scale:mscale ~disp:mdisp ~bytes ~write in
    if ea < 0 then raise_notrace Stop;
    ea
  end
  else hmov_commit_addr t ~region ~index_value ~scale:mscale ~disp:mdisp ~bytes ~write

(* The instruction at code address [a], for indirect transfers. *)
let[@inline] code_index t ~spec a =
  match index_of_addr t a with
  | Some i -> i
  | None -> if spec then raise_notrace Stop else raise (Trap_exn (Msr.Hardware_fault a))

(* [push] and [call]: an 8-byte store below RSP of [sreg] (or [simm]),
   read after RSP moves. *)
let[@inline] push t ev regs ~spec ~sreg ~simm =
  let rsp = rget regs rsp_i - 8 in
  rset regs rsp_i rsp;
  note_mem ev ~addr:rsp ~bytes:8 ~write:true ~via_hmov:false;
  write t ~spec ~implicit:true ~addr:rsp ~bytes:8 (srcv regs sreg simm)

(* A call pushes the address of [fallthrough]. Only commit computes it:
   on the wrong path a call in the last slot has none. *)
let[@inline] push_return t ev regs ~spec ~fallthrough =
  push t ev regs ~spec ~sreg:(-1) ~simm:(if spec then 0 else addr_of_index t fallthrough)

(* µops the wrong path never executes: they trap, serialize or leave
   the sandbox, so the window stops at them. *)
let[@inline] commit_only ~spec = if spec then raise_notrace Stop

let[@inline] exec t fx ~spec (u : Uop.t) ~index =
  let regs = if spec then t.shadow else t.regs in
  let ev = if spec then t.spec_ev else t.ev in
  let fallthrough = index + 1 in
  match u.Uop.op with
  | Uop.Omov { d; sreg; simm } ->
    rset regs d (srcv regs sreg simm);
    fallthrough
  | Uop.Oload { bytes; d; mbase; midx; mscale; mdisp } ->
    let addr = ea_parts regs ~mbase ~midx ~mscale ~mdisp in
    note_mem ev ~addr ~bytes ~write:false ~via_hmov:false;
    rset regs d (read t fx ~spec ~implicit:true ~addr ~bytes);
    fallthrough
  | Uop.Ostore { bytes; mask; mbase; midx; mscale; mdisp; sreg; simm } ->
    let addr = ea_parts regs ~mbase ~midx ~mscale ~mdisp in
    note_mem ev ~addr ~bytes ~write:true ~via_hmov:false;
    write t ~spec ~implicit:true ~addr ~bytes (srcv regs sreg simm land mask);
    fallthrough
  | Uop.Ohload { region; bytes; d; midx; mscale; mdisp } ->
    let addr = hmov_addr t regs ~spec ~region ~midx ~mscale ~mdisp ~bytes ~write:false in
    note_mem ev ~addr ~bytes ~write:false ~via_hmov:true;
    rset regs d (read t fx ~spec ~implicit:false ~addr ~bytes);
    fallthrough
  | Uop.Ohstore { region; bytes; mask; midx; mscale; mdisp; sreg; simm } ->
    let addr = hmov_addr t regs ~spec ~region ~midx ~mscale ~mdisp ~bytes ~write:true in
    note_mem ev ~addr ~bytes ~write:true ~via_hmov:true;
    write t ~spec ~implicit:false ~addr ~bytes (srcv regs sreg simm land mask);
    fallthrough
  | Uop.Olea { d; mbase; midx; mscale; mdisp } ->
    rset regs d (ea_parts regs ~mbase ~midx ~mscale ~mdisp);
    fallthrough
  | Uop.Oalu { op; d; sreg; simm } ->
    rset regs d (alu op (rget regs d) (srcv regs sreg simm));
    fallthrough
  | Uop.Ocmp { d; sreg; simm } ->
    rset regs cmp_b_i (srcv regs sreg simm);
    rset regs cmp_a_i (rget regs d);
    fallthrough
  | Uop.Ocmp_mem { d; mbase; midx; mscale; mdisp } ->
    let addr = ea_parts regs ~mbase ~midx ~mscale ~mdisp in
    note_mem ev ~addr ~bytes:8 ~write:false ~via_hmov:false;
    rset regs cmp_b_i (read t fx ~spec ~implicit:true ~addr ~bytes:8);
    rset regs cmp_a_i (rget regs d);
    fallthrough
  | Uop.Ojmp tgt ->
    note_branch ev Uncond ~taken:true ~target:tgt ~fallthrough;
    tgt
  | Uop.Ojcc { cond; target } ->
    let taken = Instr.eval_cond cond (rget regs cmp_a_i) (rget regs cmp_b_i) in
    let next = if taken then target else fallthrough in
    note_branch ev Cond ~taken ~target:next ~fallthrough;
    next
  | Uop.Ojmp_ind r ->
    let i = code_index t ~spec (rget regs r) in
    note_branch ev Indirect ~taken:true ~target:i ~fallthrough;
    i
  | Uop.Ocall tgt ->
    push_return t ev regs ~spec ~fallthrough;
    note_branch ev Call_k ~taken:true ~target:tgt ~fallthrough;
    tgt
  | Uop.Ocall_ind r ->
    let i = code_index t ~spec (rget regs r) in
    push_return t ev regs ~spec ~fallthrough;
    note_branch ev Call_k ~taken:true ~target:i ~fallthrough;
    i
  | Uop.Oret ->
    let rsp = rget regs rsp_i in
    note_mem ev ~addr:rsp ~bytes:8 ~write:false ~via_hmov:false;
    let ra = read t fx ~spec ~implicit:true ~addr:rsp ~bytes:8 in
    rset regs rsp_i (rsp + 8);
    let i = code_index t ~spec ra in
    note_branch ev Ret_k ~taken:true ~target:i ~fallthrough;
    i
  | Uop.Opush r ->
    push t ev regs ~spec ~sreg:r ~simm:0;
    fallthrough
  | Uop.Opop r ->
    let rsp = rget regs rsp_i in
    note_mem ev ~addr:rsp ~bytes:8 ~write:false ~via_hmov:false;
    rset regs r (read t fx ~spec ~implicit:true ~addr:rsp ~bytes:8);
    rset regs rsp_i (rsp + 8);
    fallthrough
  | Uop.Osyscall -> begin
    commit_only ~spec;
    let number = rget regs rax_i in
    match Hfi.on_syscall t.hfi ~number with
    | `Allow ->
      let result =
        kernel_syscall t ~number ~arg0:(rget regs rdi_i) ~arg1:(rget regs rsi_i)
          ~arg2:(rget regs rdx_i)
      in
      rset regs rax_i result;
      fallthrough
    | `Redirect h ->
      (* §4.4: the syscall becomes a jump to the exit handler; the
         resume point is preserved for hfi_reenter. *)
      t.resume <- Some fallthrough;
      code_index t ~spec h
    | `Fault -> raise (Trap_exn (Msr.Syscall_trap number))
  end
  | Uop.Ohfi_enter s ->
    if spec then begin
      if s.Hfi_iface.is_serialized then raise_notrace Stop;
      t.spec_checks <- true;
      fallthrough
    end
    else begin
      let d0 = drains t in
      let e = Hfi.exec_enter t.hfi s in
      note_drain t d0;
      hfi_next t e ~next:fallthrough
    end
  | Uop.Ohfi_exit ->
    if spec then begin
      (* The §3.4 risk: an unserialized transient hfi_exit turns checking
         off for the rest of the window. Serialization (or
         switch-on-exit) stops speculation here instead. *)
      (match Hfi.current_spec t.hfi with
      | Some s when s.Hfi_iface.is_serialized || s.Hfi_iface.switch_on_exit -> raise_notrace Stop
      | _ -> t.spec_checks <- false);
      fallthrough
    end
    else begin
      let d0 = drains t in
      let e = Hfi.exec_exit t.hfi in
      note_drain t d0;
      hfi_next t e ~next:fallthrough
    end
  | Uop.Ohfi_reenter ->
    commit_only ~spec;
    let d0 = drains t in
    let e = Hfi.exec_reenter t.hfi in
    note_drain t d0;
    hfi_reenter_next t e ~next:fallthrough
  | Uop.Ohfi_set_region { slot; region } ->
    commit_only ~spec;
    let d0 = drains t in
    let e = Hfi.exec_set_region t.hfi ~slot region in
    note_drain t d0;
    hfi_region_effect e;
    fallthrough
  | Uop.Ohfi_clear_region slot ->
    commit_only ~spec;
    let d0 = drains t in
    let e = Hfi.exec_clear_region t.hfi ~slot in
    note_drain t d0;
    hfi_region_effect e;
    fallthrough
  | Uop.Ohfi_clear_all ->
    commit_only ~spec;
    let d0 = drains t in
    let e = Hfi.exec_clear_all t.hfi in
    note_drain t d0;
    hfi_region_effect e;
    fallthrough
  | Uop.Ohfi_get_region { slot; d } ->
    (* speculation reads no region register: the value is 0 *)
    (if spec then rset regs d 0
     else
       match Hfi.exec_get_region t.hfi ~slot with
       | Ok v -> rset regs d v
       | Error reason -> raise (Trap_exn reason));
    fallthrough
  | Uop.Ocpuid ->
    commit_only ~spec;
    rset regs rax_i 0;
    rset regs rbx_i 0;
    rset regs rcx_i 0;
    rset regs rdx_i 0;
    fallthrough
  | Uop.Ordtsc d ->
    rset regs d (t.now ());
    fallthrough
  | Uop.Ordmsr d ->
    rset regs d (Msr.encode (Hfi.exit_reason t.hfi));
    fallthrough
  | Uop.Oclflush { mbase; midx; mscale; mdisp } ->
    if not spec then t.on_flush (ea_parts regs ~mbase ~midx ~mscale ~mdisp);
    fallthrough
  | Uop.Omfence ->
    commit_only ~spec;
    fallthrough
  | Uop.Onop -> fallthrough
  | Uop.Ohalt ->
    commit_only ~spec;
    t.status_ <- Halted;
    fallthrough

(* One committed step over the µop [u] at [index] (the caller validated
   the pc): the decode-stage code-region check (§4.1), [exec], and trap
   delivery. Fills the same event slot as [step]. *)
let step_uop t (u : Uop.t) ~index (observe : Uop.t -> event -> unit) =
  let pc_addr = Array.unsafe_get t.fetch_addr index in
  begin_event t.ev ~index ~fetch_addr:pc_addr ~serializing:u.Uop.base_serializing;
  t.instr_count <- t.instr_count + 1;
  let next =
    try
      check_ifetch t ~addr:pc_addr;
      exec t no_effects ~spec:false u ~index
    with Trap_exn reason -> deliver t ~pc_addr ~next:(index + 1) reason
  in
  (match t.status_ with Running -> t.pc <- next | Halted | Faulted _ -> ());
  if !Hfi_obs.Obs.trace_enabled then trace_commit t u;
  observe u t.ev;
  t.status_

(* Basic-block dispatch: fetch the block extent once, then run straight-
   line instructions in a tight inner loop that only re-checks block
   membership — not the status match, pc bounds, or the AST — per
   instruction. Any divergence (branch, trap redirect, halt, fuel) falls
   back to the outer loop. *)
let run_uop t ~fuel observe =
  let uops = t.uops in
  let block_last = t.block_last in
  let len = Array.length uops in
  let remaining = ref fuel in
  let rec outer () =
    if !remaining <= 0 then t.status_
    else begin
      match t.status_ with
      | (Halted | Faulted _) as s -> s
      | Running ->
        if t.pc < 0 || t.pc >= len then out_of_range_fault t
        else begin
          (* t.pc is validated above and the inner loop only advances to
             indices <= block_last < len, so unsafe_get is in bounds. *)
          let last = Array.unsafe_get block_last t.pc in
          let i = ref t.pc in
          let inner = ref true in
          while !inner do
            let u = Array.unsafe_get uops !i in
            match step_uop t u ~index:!i observe with
            | Running ->
              decr remaining;
              if !remaining > 0 && !i < last && t.pc = !i + 1 then incr i
              else inner := false
            | Halted | Faulted _ -> inner := false
          done;
          outer ()
        end
    end
  in
  outer ()

let run_ast t ~fuel observe =
  let remaining = ref fuel in
  let rec go () =
    if !remaining <= 0 then t.status_
    else begin
      match step t observe with
      | Running ->
        decr remaining;
        go ()
      | (Halted | Faulted _) as s -> s
    end
  in
  go ()

let run ?(fuel = max_int) t observe =
  if !decode_dispatch then run_uop t ~fuel observe else run_ast t ~fuel observe

let ifetch_ok t ~addr = match Hfi.check_ifetch t.hfi ~addr with Ok () -> true | Error _ -> false

(* Wrong-path (transient) execution after a misprediction: [exec] in its
   speculative mode behind the decode-stage gate, which turns an
   out-of-region transient instruction into a faulting NOP that never
   executes (§4.1). The window starts from the committed registers and
   HFI enable bit, and ends at [fuel] µops or at the first stop. *)
let speculate t ~start ~fuel fx =
  Array.blit t.regs 0 t.shadow 0 (Array.length t.shadow);
  t.spec_checks <- Hfi.enabled t.hfi;
  let uops = t.uops in
  let len = Array.length uops in
  let executed = ref 0 in
  let pc = ref start in
  (try
     while !executed < fuel && !pc >= 0 && !pc < len do
       let addr = Array.unsafe_get t.fetch_addr !pc in
       if t.spec_checks && not (ifetch_ok t ~addr) then raise_notrace Stop;
       fx.spec_fetch addr;
       incr executed;
       pc := exec t fx ~spec:true (Array.unsafe_get uops !pc) ~index:!pc
     done
   with Stop | Trap_exn _ -> ());
  !executed
