type config = {
  issue_width : float;
  base_alu : float;
  base_load : float;
  base_store : float;
  base_branch : float;
  mul_latency : float;
  div_latency : float;
  miss_overlap : float;
  mispredict_penalty : float;
  drain_penalty : float;
  model_caches : bool;
}

let default =
  {
    issue_width = 4.0;
    base_alu = 0.12;
    base_load = 0.30;
    base_store = 0.22;
    base_branch = 0.15;
    mul_latency = 1.2;
    div_latency = 12.0;
    miss_overlap = 0.35;
    mispredict_penalty = 14.0;
    drain_penalty = float_of_int Cost.serialization_drain;
    model_caches = true;
  }

type t = {
  cfg : config;
  mutable m : Machine.t;  (* mutable so [reset] can rebind to a new run *)
  icache : Cache.t;
  dcache : Cache.t;
  dtlb : Tlb.t;
  pred : Predictor.t;
  clock : float array;  (* one element: modeled cycles, stored unboxed *)
  mutable committed : int;
  mutable last_fetch_line : int;
  mutable l2_stream_line : int;
  mutable l2_stream_remaining : int;
}

let attach t m =
  Machine.set_now m (fun () -> int_of_float (Array.unsafe_get t.clock 0));
  Machine.set_on_flush m (fun addr -> Cache.flush_line t.dcache addr)

let create ?(config = default) m =
  let t =
    {
      cfg = config;
      m;
      icache = Cache.create Cache.skylake_l1i;
      dcache = Cache.create Cache.skylake_l1d;
      dtlb = Tlb.create Tlb.skylake_dtlb;
      pred = Predictor.create ();
      clock = [| 0.0 |];
      committed = 0;
      last_fetch_line = -10;
      l2_stream_line = -10;
      l2_stream_remaining = 0;
    }
  in
  attach t m;
  t

(* Rebind to a fresh machine with timing state zeroed, reusing the
   cache/TLB/predictor structures (see Cycle_engine.reset). *)
let reset t m =
  t.m <- m;
  Cache.reset t.icache;
  Cache.reset t.dcache;
  Tlb.reset t.dtlb;
  Predictor.reset t.pred;
  t.clock.(0) <- 0.0;
  t.committed <- 0;
  t.last_fetch_line <- -10;
  t.l2_stream_line <- -10;
  t.l2_stream_remaining <- 0;
  attach t m;
  t

(* [1 /. w] without a division at the default width, whose reciprocal
   is exact; see [Cycle_engine.issue_step] for why it is not stored. *)
let[@inline] issue_step (w : float) = if w = 4.0 then 0.25 else 1.0 /. w

(* The accumulator is a chain of let-bound floats rather than a [ref]:
   without flambda every [:=] on a float ref boxes, and this runs once
   per simulated instruction. The addition order is exactly the order
   the old imperative code used, so cycle totals are bit-identical.
   Static cost properties come pre-decoded from the µop; the position
   and the dynamic ones are read from the machine's event slot. *)
let account t (u : Uop.t) (ev : Machine.event) =
  let cfg = t.cfg in
  let c =
    issue_step cfg.issue_width
    +.
    match u.Uop.cost_class with
    | Uop.Cmul -> cfg.mul_latency
    | Uop.Cdiv -> cfg.div_latency
    | Uop.Calu -> cfg.base_alu
    | Uop.Cload -> cfg.base_load
    | Uop.Cstore -> cfg.base_store
    | Uop.Cbranch -> cfg.base_branch
    | Uop.Cother -> cfg.base_alu
  in
  let c =
    if not cfg.model_caches then c
    else begin
      let fetch_addr = ev.Machine.fetch_addr in
      let line = fetch_addr / 64 in
      let c =
        match Cache.access t.icache fetch_addr with
        | `Hit ->
          (* L2 fetch bandwidth while the line streams in: longer encodings
             consume more of it, for one line's worth of bytes. *)
          if line = t.l2_stream_line && t.l2_stream_remaining > 0 then begin
            t.l2_stream_remaining <- t.l2_stream_remaining - u.Uop.length;
            c +. (float_of_int u.Uop.length /. 16.0)
          end
          else c
        | `Miss ->
          t.l2_stream_line <- line;
          t.l2_stream_remaining <- 64 - u.Uop.length;
          (* Next-line prefetch hides sequential fetch misses; only jumpy
             fetch patterns expose the full fill latency. *)
          if line = t.last_fetch_line + 1 then
            c +. 1.0 +. (float_of_int u.Uop.length /. 16.0)
          else c +. (float_of_int (Cache.latency t.icache `Miss) *. cfg.miss_overlap)
      in
      t.last_fetch_line <- line;
      if not ev.Machine.has_mem then c
      else begin
        let addr = ev.Machine.mem_addr in
        let c =
          match Tlb.access t.dtlb addr with
          | `Hit -> c
          | `Miss -> c +. (float_of_int Tlb.skylake_dtlb.Tlb.miss_latency *. cfg.miss_overlap)
        in
        match Cache.access t.dcache addr with
        | `Hit -> c
        | `Miss ->
          if not ev.Machine.mem_write then
            c +. (float_of_int (Cache.latency t.dcache `Miss) *. cfg.miss_overlap)
          else c
      end
    end
  in
  (* Branches: charge mispredicts via the same predictor as the cycle
     engine, but without wrong-path execution. Squash/drain trace events
     mirror the cycle engine's (no transient count, dur = the analytic
     penalty); emission never touches the accumulator. *)
  let pc = ev.Machine.index in
  let c =
    match ev.Machine.branch with
    | Machine.Cond ->
      let taken = ev.Machine.taken in
      let predicted = Predictor.predict_cond t.pred ~pc in
      let c =
        if predicted <> taken then begin
          Predictor.note_cond_mispredict t.pred;
          if !Hfi_obs.Obs.trace_enabled then
            Hfi_obs.Trace.(emit Squash ~ts:t.clock.(0) ~dur:cfg.mispredict_penalty);
          c +. cfg.mispredict_penalty
        end
        else c
      in
      Predictor.update_cond t.pred ~pc ~taken;
      c
    | Machine.Indirect ->
      let target = ev.Machine.target in
      if Predictor.predict_indirect t.pred ~pc = target then c
      else begin
        Predictor.note_indirect_mispredict t.pred;
        Predictor.update_indirect t.pred ~pc ~target;
        if !Hfi_obs.Obs.trace_enabled then
          Hfi_obs.Trace.(emit Squash ~ts:t.clock.(0) ~dur:cfg.mispredict_penalty);
        c +. cfg.mispredict_penalty
      end
    | Machine.Call_k ->
      Predictor.push_ras t.pred ev.Machine.fallthrough;
      c
    | Machine.Ret_k ->
      if Predictor.pop_ras t.pred = ev.Machine.target then c
      else begin
        Predictor.note_indirect_mispredict t.pred;
        if !Hfi_obs.Obs.trace_enabled then
          Hfi_obs.Trace.(emit Squash ~ts:t.clock.(0) ~dur:cfg.mispredict_penalty);
        c +. cfg.mispredict_penalty
      end
    | Machine.Uncond | Machine.No_branch -> c
  in
  let c =
    if ev.Machine.serializing then begin
      let pen = if u.Uop.is_cpuid then float_of_int Cost.cpuid_drain else cfg.drain_penalty in
      if !Hfi_obs.Obs.trace_enabled then
        Hfi_obs.Trace.(
          emit Drain ~ts:t.clock.(0) ~dur:pen ~b:(if u.Uop.base_serializing then 0 else 1));
      c +. pen
    end
    else c
  in
  let c = c +. Array.unsafe_get ev.Machine.kernel_cycles 0 in
  let c = if ev.Machine.signalled then c +. float_of_int Cost.signal_delivery else c in
  Array.unsafe_set t.clock 0 (Array.unsafe_get t.clock 0 +. c);
  t.committed <- t.committed + 1

let run ?(fuel = max_int) t =
  (* Machine.run picks per-block µop dispatch or the reference AST loop
     (HFI_DECODE_CACHE); accounting is identical either way. *)
  Machine.run ~fuel t.m (fun u ev -> account t u ev)

let cycles t = t.clock.(0)
let instrs t = t.committed
let machine t = t.m
let icache_misses t = Cache.misses t.icache
let dcache_misses t = Cache.misses t.dcache
let mispredicts t = Predictor.cond_mispredicts t.pred + Predictor.indirect_mispredicts t.pred
