type config = {
  issue_width : float;
  mispredict_penalty : int;
  drain_penalty : int;
  spec_window : int;
  icache : Cache.config;
  dcache : Cache.config;
  dtlb : Tlb.config;
  hfi_checks_in_parallel : bool;
}

let skylake =
  {
    issue_width = 4.0;
    mispredict_penalty = 14;
    drain_penalty = Cost.serialization_drain;
    spec_window = 64;
    icache = Cache.skylake_l1i;
    dcache = Cache.skylake_l1d;
    dtlb = Tlb.skylake_dtlb;
    hfi_checks_in_parallel = true;
  }

type result = {
  cycles : float;
  instrs : int;
  icache_hits : int;
  icache_misses : int;
  dcache_hits : int;
  dcache_misses : int;
  dtlb_hits : int;
  dtlb_misses : int;
  cond_lookups : int;
  cond_mispredicts : int;
  indirect_lookups : int;
  indirect_mispredicts : int;
  drains : int;
  transient_instrs : int;
  status : Machine.status;
}

type t = {
  cfg : config;
  mutable m : Machine.t;  (* mutable so [reset] can rebind to a new run *)
  icache : Cache.t;
  dcache : Cache.t;
  dtlb : Tlb.t;
  pred : Predictor.t;
  spec_fx : Machine.spec_effects;
      (* wrong-path cache-effect callbacks, built once over the engine's
         own caches — allocated at [create], not per mispredict *)
  (* scoreboard: cycle at which each architectural register's value is
     available to consumers *)
  ready : float array;
  (* stall-attribution cause (a Profile bucket code) of each register's
     producer; only written while profiling is on *)
  blame : int array;
  (* scratch for [account]'s per-instruction memory-stall cause — a
     field rather than a local [ref] so the profiling-off hot path
     allocates nothing *)
  mutable mem_blame : int;
  (* One-element float arrays, so the per-instruction updates store
     unboxed floats instead of allocating a box each time. *)
  clock : float array;  (* issue front: time the next uop can issue *)
  done_at : float array;  (* completion time of the instruction being accounted *)
  mutable committed : int;
  mutable drains : int;
  mutable transient : int;
  mutable last_fetch_line : int;
  mutable l2_stream_line : int;  (* line currently streaming in from L2 *)
  mutable l2_stream_remaining : int;  (* bytes of that line still in flight *)
}

let attach t m =
  Machine.set_now m (fun () -> int_of_float (Array.unsafe_get t.clock 0));
  Machine.set_on_flush m (fun addr -> Cache.flush_line t.dcache addr)

let create ?(config = skylake) m =
  let icache = Cache.create config.icache in
  let dcache = Cache.create config.dcache in
  let dtlb = Tlb.create config.dtlb in
  let spec_fx =
    {
      Machine.spec_fetch = (fun addr -> ignore (Cache.access icache addr));
      Machine.spec_mem =
        (fun addr ->
          ignore (Tlb.access dtlb addr);
          ignore (Cache.access dcache addr));
    }
  in
  let t =
    {
      cfg = config;
      m;
      icache;
      dcache;
      dtlb;
      pred = Predictor.create ();
      spec_fx;
      ready = Array.make Reg.count 0.0;
      blame = Array.make Reg.count 0;
      mem_blame = 0;
      clock = [| 0.0 |];
      done_at = [| 0.0 |];
      committed = 0;
      drains = 0;
      transient = 0;
      last_fetch_line = -10;
      l2_stream_line = -10;
      l2_stream_remaining = 0;
    }
  in
  attach t m;
  t

(* Rebind to a fresh machine with all timing state back at zero. The
   caches, TLB, predictor, scoreboard and closures are reused, so inner
   experiment loops (fig2/fig3 matrices, fuzz) stop re-running [create]
   per simulation. *)
let reset t m =
  t.m <- m;
  Cache.reset t.icache;
  Cache.reset t.dcache;
  Tlb.reset t.dtlb;
  Predictor.reset t.pred;
  Array.fill t.ready 0 (Array.length t.ready) 0.0;
  Array.fill t.blame 0 (Array.length t.blame) 0;
  t.mem_blame <- 0;
  t.clock.(0) <- 0.0;
  t.done_at.(0) <- 0.0;
  t.committed <- 0;
  t.drains <- 0;
  t.transient <- 0;
  t.last_fetch_line <- -10;
  t.l2_stream_line <- -10;
  t.l2_stream_remaining <- 0;
  attach t m;
  t

let cycles t = t.clock.(0)
let dcache t = t.dcache
let dtlb t = t.dtlb
let machine t = t.m

(* [1 /. w], the issue-front advance per instruction. Every config in
   the tree uses width 4, whose reciprocal 0.25 is exact, so the common
   case costs a compare instead of a division on each committed
   instruction, with the same bits. It is recomputed rather than stored:
   one more word in each engine record moved repro-quick's GC-paced peak
   RSS from 61 to 77 MB. *)
let[@inline] issue_step (w : float) = if w = 4.0 then 0.25 else 1.0 /. w

(* [Float.max] with its exact semantics (NaN-propagating, +0 above -0),
   local so the compiler inlines it and keeps both operands unboxed.
   Ordered operands decide by one or two compares; the sign-bit calls
   run only for equal operands (+0 against -0) or a NaN, where the last
   branch is [Float.max]'s own expression. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x then y
  else if x > y then x
  else if (not (Float.sign_bit y)) && Float.sign_bit x then if x <> x then x else y
  else if y <> y then y
  else x

(* Every destination register of the accounted instruction is ready at
   its completion time [t.done_at] (read from the slot, so no float is
   boxed to pass it). *)
let set_ready t (dsts : int array) =
  let at = Array.unsafe_get t.done_at 0 in
  for i = 0 to Array.length dsts - 1 do
    Array.unsafe_set t.ready (Array.unsafe_get dsts i) at
  done

(* ---- observability hooks (Hfi_obs) -------------------------------- *)

module Obs = Hfi_obs.Obs
module Profile = Hfi_obs.Profile
module Trace = Hfi_obs.Trace

(* Per-register producer blame, stored as small ints so the scoreboard
   sidecar stays a flat array. Only meaningful while profiling. *)
let blame_exec = 0
let blame_dcache = 1
let blame_dtlb = 2
let blame_hfi = 3

let cause_of_blame = function
  | 1 -> Profile.Dcache_miss
  | 2 -> Profile.Dtlb_miss
  | 3 -> Profile.Hfi_serialization
  | _ -> Profile.Exec_dep

let set_blame t (dsts : int array) code =
  for i = 0 to Array.length dsts - 1 do
    Array.unsafe_set t.blame (Array.unsafe_get dsts i) code
  done

(* ------------------------------------------------------------------- *)

(* Squash and wrong-path execution after a mispredicted transfer, from
   the accounted instruction's completion time [t.done_at]. A top-level
   function (not a closure in [account]) so branch-heavy workloads do
   not allocate per committed branch. *)
let wrong_path_from t ~actual predicted =
  if predicted <> actual then begin
    let clock0 = Array.unsafe_get t.clock 0 in
    let transient = Machine.speculate t.m ~start:predicted ~fuel:t.cfg.spec_window t.spec_fx in
    t.transient <- t.transient + transient;
    Array.unsafe_set t.clock 0
      (Array.unsafe_get t.done_at 0 +. float_of_int t.cfg.mispredict_penalty);
    if !Obs.profile_enabled then begin
      let pen = float_of_int t.cfg.mispredict_penalty in
      Profile.note Profile.global Profile.Mispredict_refill pen;
      Profile.note Profile.global Profile.Wrong_path (t.clock.(0) -. clock0 -. pen)
    end;
    if !Obs.trace_enabled then
      Trace.emit Trace.Squash ~ts:t.done_at.(0)
        ~dur:(float_of_int t.cfg.mispredict_penalty)
        ~a:transient
  end

(* Front-end stall on a BTB/RAS miss: the pipeline waits for the branch
   to resolve (no wrong path), then pays half a refill. The [Wrong_path]
   bucket also carries this resolution wait. *)
let btb_stall t =
  let clock0 = Array.unsafe_get t.clock 0 in
  Array.unsafe_set t.clock 0
    (Array.unsafe_get t.done_at 0 +. float_of_int (t.cfg.mispredict_penalty / 2));
  if !Obs.profile_enabled then begin
    let pen = float_of_int (t.cfg.mispredict_penalty / 2) in
    Profile.note Profile.global Profile.Mispredict_refill pen;
    Profile.note Profile.global Profile.Wrong_path (t.clock.(0) -. clock0 -. pen)
  end

(* Timing for one committed instruction, given what architecturally
   happened. All static properties (length, operand registers, latency,
   criticality) come pre-decoded from the µop, and the position and the
   dynamic ones from the machine's event slot; the dynamic hooks
   (caches, TLB, predictor, wrong-path speculation) still fire per
   committed instruction, so modeled cycles are unchanged. *)
let account t (u : Uop.t) (ev : Machine.event) =
  (* One flag load each per committed instruction; with observability off
     everything below behaves exactly as before (same arithmetic, same
     order), so modeled cycles are bit-identical either way. *)
  let profiling = !Obs.profile_enabled in
  let tracing = !Obs.trace_enabled in
  let clock = t.clock in
  let clock0 = Array.unsafe_get clock 0 in
  let issue_step = issue_step t.cfg.issue_width in
  (* Fetch: i-cache miss stalls the front end. *)
  let fetch_addr = ev.Machine.fetch_addr in
  let fetch_line = fetch_addr / 64 in
  let fetch_penalty =
    match Cache.access t.icache fetch_addr with
    | `Hit ->
      (* Instructions on a line still streaming in from L2 pay for its
         fetch bandwidth — longer encodings consume more of it (the
         445.gobmk effect for hmov, §6.1). The charge lasts one line's
         worth of bytes, then the line is fully resident. *)
      if fetch_line = t.l2_stream_line && t.l2_stream_remaining > 0 then begin
        t.l2_stream_remaining <- t.l2_stream_remaining - u.Uop.length;
        float_of_int u.Uop.length /. 16.0
      end
      else 0.0
    | `Miss ->
      t.l2_stream_line <- fetch_line;
      t.l2_stream_remaining <- 64 - u.Uop.length;
      (* Next-line prefetch hides sequential fetch misses. *)
      if fetch_line = t.last_fetch_line + 1 then 1.0 +. (float_of_int u.Uop.length /. 16.0)
      else float_of_int t.cfg.icache.Cache.miss_latency
  in
  t.last_fetch_line <- fetch_line;
  (* Issue when sources are ready. Compares, conditional branches, and
     stores do not stall the issue front: out-of-order execution resolves
     them off the critical path (their results gate nothing until
     retirement) — this is why a predicted-not-taken bounds check is
     cheap while a pointer-chasing load chain is not. *)
  let issue =
    if u.Uop.off_critical then clock0 +. issue_step +. fetch_penalty
    else begin
      (* Latest source-ready time, folded over the pre-resolved reads in
         their [Instr.reads] order. Inline so the float stays unboxed. *)
      let srcs = u.Uop.reads in
      let ready = ref clock0 in
      for i = 0 to Array.length srcs - 1 do
        ready := fmax !ready (Array.unsafe_get t.ready (Array.unsafe_get srcs i))
      done;
      fmax (clock0 +. issue_step) !ready +. fetch_penalty
    end
  in
  (* Profiling: find the binding source register (the one whose ready
     time gated issue) *before* set_ready may overwrite its slot — its
     recorded producer blame classifies the stall. *)
  let wait_blame =
    if not profiling || u.Uop.off_critical then blame_exec
    else begin
      let srcs = u.Uop.reads in
      let best = ref (-1) and best_t = ref clock0 in
      for i = 0 to Array.length srcs - 1 do
        let r = Array.unsafe_get srcs i in
        let rt = Array.unsafe_get t.ready r in
        if rt > !best_t then begin
          best_t := rt;
          best := r
        end
      done;
      if !best >= 0 then Array.unsafe_get t.blame !best else blame_exec
    end
  in
  (* Execution latency (pre-decoded per static instruction). *)
  let latency = u.Uop.latency in
  if profiling then t.mem_blame <- blame_exec;
  let mem_latency =
    if not ev.Machine.has_mem then 0.0
    else begin
      let addr = ev.Machine.mem_addr in
      let write = ev.Machine.mem_write in
      let tlb_cycles = Tlb.timed_access t.dtlb addr in
      let cache_cycles = Cache.timed_access t.dcache addr in
      (* §4.2: HFI region/bound checks complete in parallel with the dtb
         lookup, so they contribute max(check, tlb) = tlb. The ablation
         places them after translation instead. *)
      let hfi_extra =
        if t.cfg.hfi_checks_in_parallel then 0.0
        else if Hfi.enabled (Machine.hfi t.m) || ev.Machine.mem_hmov then 1.0
        else 0.0
      in
      if profiling then
        t.mem_blame <-
          (if tlb_cycles > t.cfg.dtlb.Tlb.hit_latency then blame_dtlb
           else if (not write) && cache_cycles > t.cfg.dcache.Cache.hit_latency then
             blame_dcache
           else if hfi_extra > 0.0 then blame_hfi
           else blame_exec);
      if write then float_of_int tlb_cycles +. hfi_extra
      else float_of_int (tlb_cycles + cache_cycles) +. hfi_extra
    end
  in
  let done_at = issue +. latency +. mem_latency in
  Array.unsafe_set t.done_at 0 done_at;
  set_ready t u.Uop.writes;
  if profiling then set_blame t u.Uop.writes t.mem_blame;
  Array.unsafe_set clock 0 issue;
  if profiling then begin
    (* Decompose this instruction's front-end advance exactly: the issue
       slot, the fetch penalty, and whatever remains is the wait on the
       binding producer, classified by its recorded blame. *)
    Profile.note Profile.global Profile.Issue issue_step;
    if fetch_penalty <> 0.0 then Profile.note Profile.global Profile.Icache_miss fetch_penalty;
    let wait = issue -. clock0 -. issue_step -. fetch_penalty in
    if wait <> 0.0 then Profile.note Profile.global (cause_of_blame wait_blame) wait
  end;
  (* Branch prediction and wrong-path execution. *)
  let pc = ev.Machine.index in
  (match ev.Machine.branch with
  | Machine.No_branch | Machine.Uncond -> ()
  | Machine.Cond ->
    let taken = ev.Machine.taken in
    let predicted_taken = Predictor.predict_cond t.pred ~pc in
    let predicted =
      if predicted_taken then ev.Machine.target (* static target *) else ev.Machine.fallthrough
    in
    (* For a conditional, the taken target comes from the decoder, so a
       correct taken-prediction lands on the right path even on a BTB
       cold miss. *)
    let predicted =
      if predicted_taken && not taken then
        (* predicted taken, actually fell through: wrong path = the
           encoded target *)
        (match u.Uop.op with Uop.Ojcc { target; _ } -> target | _ -> predicted)
      else predicted
    in
    if predicted_taken <> taken then Predictor.note_cond_mispredict t.pred;
    wrong_path_from t ~actual:ev.Machine.target predicted;
    Predictor.update_cond t.pred ~pc ~taken
  | Machine.Indirect ->
    let target = ev.Machine.target in
    let predicted = Predictor.predict_indirect t.pred ~pc in
    if predicted >= 0 then begin
      if predicted <> target then Predictor.note_indirect_mispredict t.pred;
      wrong_path_from t ~actual:target predicted
    end
    else
      (* BTB miss: the front end waits for resolution — a stall but no
         wrong-path execution. *)
      btb_stall t;
    Predictor.update_indirect t.pred ~pc ~target
  | Machine.Call_k ->
    let target = ev.Machine.target in
    Predictor.push_ras t.pred ev.Machine.fallthrough;
    (* Indirect calls are BTB-predicted: a mistrained BTB sends the
       front end down an attacker-chosen path (Spectre-BTB). *)
    (match u.Uop.op with
    | Uop.Ocall_ind _ ->
      let predicted = Predictor.predict_indirect t.pred ~pc in
      if predicted >= 0 then begin
        if predicted <> target then Predictor.note_indirect_mispredict t.pred;
        wrong_path_from t ~actual:target predicted
      end
      else btb_stall t
    | _ -> ());
    Predictor.update_indirect t.pred ~pc ~target
  | Machine.Ret_k ->
    let target = ev.Machine.target in
    let predicted = Predictor.pop_ras t.pred in
    if predicted < 0 then btb_stall t
    else if predicted <> target then begin
      Predictor.note_indirect_mispredict t.pred;
      wrong_path_from t ~actual:target predicted
    end);
  (* Serialization: drain — all in-flight results must complete, then pay
     the drain penalty. *)
  if ev.Machine.serializing then begin
    t.drains <- t.drains + 1;
    let penalty = if u.Uop.is_cpuid then Cost.cpuid_drain else t.cfg.drain_penalty in
    let drain_from = Array.unsafe_get clock 0 in
    let all_done = ref drain_from in
    for i = 0 to Array.length t.ready - 1 do
      all_done := fmax !all_done (Array.unsafe_get t.ready i)
    done;
    Array.unsafe_set clock 0 (fmax drain_from !all_done +. float_of_int penalty);
    (* Drains the HFI transition machinery forced are the §3.4
       serialization cost; cpuid/mfence drains are architectural. *)
    let hfi_caused = not u.Uop.base_serializing in
    if profiling then
      Profile.note Profile.global
        (if hfi_caused then Profile.Hfi_serialization else Profile.Drain)
        (clock.(0) -. drain_from);
    if tracing then
      Trace.emit Trace.Drain ~ts:drain_from
        ~dur:(clock.(0) -. drain_from)
        ~b:(if hfi_caused then 1 else 0)
  end;
  (* Kernel time and signal delivery are serial. *)
  let kernel_cycles = Array.unsafe_get ev.Machine.kernel_cycles 0 in
  if kernel_cycles > 0.0 then begin
    Array.unsafe_set clock 0 (Array.unsafe_get clock 0 +. kernel_cycles);
    if profiling then Profile.note Profile.global Profile.Kernel kernel_cycles
  end;
  if ev.Machine.signalled then begin
    Array.unsafe_set clock 0
      (Array.unsafe_get clock 0 +. float_of_int Cost.signal_delivery);
    if profiling then
      Profile.note Profile.global Profile.Signal (float_of_int Cost.signal_delivery)
  end;
  t.committed <- t.committed + 1

let run ?(fuel = max_int) t =
  (* Machine.run picks per-block µop dispatch or the reference AST loop
     (HFI_DECODE_CACHE); accounting is identical either way. *)
  Machine.run ~fuel t.m (fun u ev -> account t u ev)

let result t =
  {
    cycles = t.clock.(0);
    instrs = t.committed;
    icache_hits = Cache.hits t.icache;
    icache_misses = Cache.misses t.icache;
    dcache_hits = Cache.hits t.dcache;
    dcache_misses = Cache.misses t.dcache;
    dtlb_hits = Tlb.hits t.dtlb;
    dtlb_misses = Tlb.misses t.dtlb;
    cond_lookups = Predictor.cond_lookups t.pred;
    cond_mispredicts = Predictor.cond_mispredicts t.pred;
    indirect_lookups = Predictor.indirect_lookups t.pred;
    indirect_mispredicts = Predictor.indirect_mispredicts t.pred;
    drains = t.drains;
    transient_instrs = t.transient;
    status = Machine.status t.m;
  }
