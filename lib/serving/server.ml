module Prng = Hfi_util.Prng
module Fault = Hfi_util.Fault
module Stats = Hfi_util.Stats
module Units = Hfi_util.Units
module Pool = Hfi_util.Pool
module Strategy = Hfi_sfi.Strategy
module Instance = Hfi_wasm.Instance
module Scheduler = Hfi_runtime.Scheduler
module Fw = Hfi_workloads.Faas_workloads
module Span = Hfi_obs.Span
module Slo = Hfi_obs.Slo

type scenario = Steady | Burst | Chaos

let scenario_name = function
  | Steady -> "steady"
  | Burst -> "burst"
  | Chaos -> "chaos"

type config = {
  scenario : scenario;
  tenants : int;
  requests : int;
  seed : int;
  utilization : float;
  workers_per_shard : int;
  shed_wait_s : float;
  deadline_s : float;
  max_attempts : int;
  backoff : Backoff.policy;
  breaker : Breaker.policy;
  pool : Instance_pool.policy;
  cold_start_s : float;
  service_scale : float;
  service_sigma : float;
  rates : Chaos.rates;
  slo_target : Slo.target;
}

let default scenario =
  {
    scenario;
    tenants = 24;
    requests = 1200;
    seed = 7;
    utilization = 0.6;
    workers_per_shard = 4;
    shed_wait_s = 0.25;
    deadline_s = 2.0;
    max_attempts = 3;
    backoff = Backoff.default;
    breaker = Breaker.default;
    pool = Instance_pool.default_policy;
    cold_start_s = 0.025;
    service_scale = 100.0;
    service_sigma = 0.25;
    rates = (match scenario with Chaos -> Chaos.default | Steady | Burst -> Chaos.none);
    slo_target = Slo.default_target;
  }

(* Fixed shard width: the tenant -> shard mapping (and with it every
   sub-seed, arrival stream and hazard draw) depends only on the
   config, never on how many domains run the shards. *)
let shard_tenants = 8

type outcome = Ok_first | Ok_retried | Shed | Breaker_open | Rejected_unverified | Failed

let outcome_name = function
  | Ok_first -> "ok"
  | Ok_retried -> "retried-ok"
  | Shed -> "shed"
  | Breaker_open -> "breaker-open"
  | Rejected_unverified -> "rejected-unverified"
  | Failed -> "failed"

type counters = {
  requests : int;
  ok : int;
  retried_ok : int;
  shed : int;
  breaker_open : int;
  rejected_unverified : int;
  failed : int;
  retries : int;
  timed_out : int;
  cold_starts : int;
  warm_hits : int;
  degraded : int;
  evictions : int;
  breaker_trips : int;
  breaker_rejections : int;
  injected_faults : int;
  injected_stalls : int;
  spurious_rejects : int;
  poisoned_tenants : int;
  verify_hits : int;
  verify_misses : int;
  verify_persisted : int;
  sched_budget_faults : int;
}

let zero_counters =
  {
    requests = 0;
    ok = 0;
    retried_ok = 0;
    shed = 0;
    breaker_open = 0;
    rejected_unverified = 0;
    failed = 0;
    retries = 0;
    timed_out = 0;
    cold_starts = 0;
    warm_hits = 0;
    degraded = 0;
    evictions = 0;
    breaker_trips = 0;
    breaker_rejections = 0;
    injected_faults = 0;
    injected_stalls = 0;
    spurious_rejects = 0;
    poisoned_tenants = 0;
    verify_hits = 0;
    verify_misses = 0;
    verify_persisted = 0;
    sched_budget_faults = 0;
  }

let add_counters a b =
  {
    requests = a.requests + b.requests;
    ok = a.ok + b.ok;
    retried_ok = a.retried_ok + b.retried_ok;
    shed = a.shed + b.shed;
    breaker_open = a.breaker_open + b.breaker_open;
    rejected_unverified = a.rejected_unverified + b.rejected_unverified;
    failed = a.failed + b.failed;
    retries = a.retries + b.retries;
    timed_out = a.timed_out + b.timed_out;
    cold_starts = a.cold_starts + b.cold_starts;
    warm_hits = a.warm_hits + b.warm_hits;
    degraded = a.degraded + b.degraded;
    evictions = a.evictions + b.evictions;
    breaker_trips = a.breaker_trips + b.breaker_trips;
    breaker_rejections = a.breaker_rejections + b.breaker_rejections;
    injected_faults = a.injected_faults + b.injected_faults;
    injected_stalls = a.injected_stalls + b.injected_stalls;
    spurious_rejects = a.spurious_rejects + b.spurious_rejects;
    poisoned_tenants = a.poisoned_tenants + b.poisoned_tenants;
    verify_hits = a.verify_hits + b.verify_hits;
    verify_misses = a.verify_misses + b.verify_misses;
    verify_persisted = a.verify_persisted + b.verify_persisted;
    sched_budget_faults = a.sched_budget_faults + b.sched_budget_faults;
  }

let check_total c =
  let terminal =
    c.ok + c.retried_ok + c.shed + c.breaker_open + c.rejected_unverified + c.failed
  in
  if terminal <> c.requests then
    raise
      (Fault.Simulator_bug
         (Printf.sprintf "serving outcome leak: %d terminal outcomes for %d requests"
            terminal c.requests))

type report = {
  strategy : Strategy.t;
  counters : counters;
  horizon_s : float;
  offered_rps : float;
  goodput_rps : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_service_ms : float;
  spans : Span.t list;
  slo : Slo.t option;
}

(* ------------------------------------------------------------------ *)
(* Service-time measurement                                            *)

(* Measure the per-request service cycles of each (kernel, strategy)
   pair by multiplexing one instance of each onto the PR 1 scheduler —
   the busy-core model of §3.3.3, with the xsave/xrstor switch overhead
   amortized across the residents. If the switch budget runs out the
   typed Resource_exhausted fault is counted and the remaining kernels
   are measured by direct execution instead — degraded, never fatal. A
   kernel that faults (or whose instantiation raises) yields an [Error]
   entry: requests hitting it fail with that modeled fault and flow into
   the retry/breaker machinery like any other failure.

   The table and the budget-fault count are a pure function of the
   combo list: every kernel runs from a fresh instance on a fresh
   scheduler, and within one campaign a combo key names one workload.
   That is what lets {!simulate} measure each distinct list once. *)
let measure_services combos =
  let budget_faults = ref 0 in
  let table : (string, (float, Fault.t) result) Hashtbl.t = Hashtbl.create 16 in
  let sched = Scheduler.create () in
  let spawned = ref [] in
  List.iter
    (fun (key, w, strategy) ->
      match Instance.instantiate ~strategy w with
      | inst ->
        Scheduler.spawn_instance sched ~name:key inst;
        spawned := key :: !spawned
      | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        Hashtbl.replace table key (Error (Fault.of_exn ~sandbox:key exn bt)))
    combos;
  let nspawned = List.length !spawned in
  (match
     Scheduler.run ~quantum:2_000 ~max_switches:(64 + (512 * nspawned)) sched
   with
  | Ok () -> ()
  | Error _budget_fault -> incr budget_faults);
  let switch_share =
    if nspawned = 0 then 0.0 else Scheduler.switch_cycles sched /. float_of_int nspawned
  in
  List.iter
    (fun (key, w, strategy) ->
      if not (Hashtbl.mem table key) then
        match Scheduler.status sched ~name:key with
        | Scheduler.Finished ->
          Hashtbl.replace table key (Ok (Scheduler.cycles sched ~name:key +. switch_share))
        | Scheduler.Killed msr ->
          Hashtbl.replace table key (Error (Msr.to_fault ~sandbox:key msr))
        | Scheduler.Ready -> (
          (* Switch budget exhausted before this kernel finished: degrade
             to an unscheduled direct measurement. *)
          match Instance.instantiate ~strategy w with
          | inst -> (
            match Instance.run_fast inst with
            | cycles, Machine.Halted -> Hashtbl.replace table key (Ok cycles)
            | _, Machine.Faulted msr ->
              Hashtbl.replace table key (Error (Msr.to_fault ~sandbox:key msr))
            | _, Machine.Running ->
              Hashtbl.replace table key
                (Error (Fault.make ~sandbox:key (Fault.Timeout { limit_s = 0.0 })))
            | exception exn ->
              let bt = Printexc.get_raw_backtrace () in
              Hashtbl.replace table key (Error (Fault.of_exn ~sandbox:key exn bt)))
          | exception exn ->
            let bt = Printexc.get_raw_backtrace () in
            Hashtbl.replace table key (Error (Fault.of_exn ~sandbox:key exn bt))))
    combos;
  (table, !budget_faults)

(* [measure_services] memoized for one campaign: keyed by a shard's
   sorted combo-key list and shared by its shards across domains.
   Measuring under the lock makes each list measured exactly once for
   any worker count. *)
let campaign_measure () =
  let lock = Mutex.create () and tables = Hashtbl.create 4 in
  fun combos ->
    let key = List.map (fun (k, _, _) -> k) combos in
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt tables key with
        | Some r -> r
        | None ->
          let r = measure_services combos in
          Hashtbl.replace tables key r;
          r)

(* ------------------------------------------------------------------ *)
(* Per-shard simulation                                                *)

type tenant = {
  id : int;
  wkey : string;
  workload : Instance.workload;
  poisoned : bool;
  breaker : Breaker.t;
  mutable arrivals : float list;
}

type shard_result = {
  sh_counters : counters;
  latencies_s : float list;
  sh_horizon_s : float;
  sh_spans : Span.t list;
  sh_slo : Slo.t option;
}

let combo_key wkey strategy = wkey ^ "/" ^ Strategy.to_string strategy

let run_shard (config : config) ~measure ~memo ~strategy ~shard_seed ~first_tenant ~count
    ~shard_requests =
  let rng = Prng.create ~seed:shard_seed in
  (* Observability state is shard-local and write-only with respect to
     the simulation: spans/SLO observations never influence a draw or a
     timestamp, so enabling them cannot change any modeled outcome.
     When the subsystems are off neither structure exists at all. *)
  let sink = if Hfi_obs.Obs.trace_on () then Some (Span.create_sink ()) else None in
  let slo =
    if Hfi_obs.Obs.metrics_on () then Some (Slo.create ~target:config.slo_target ())
    else None
  in
  let shard_index = first_tenant / shard_tenants in
  let catalog = Array.of_list Fw.all in
  let tenants =
    Array.init count (fun i ->
        let id = first_tenant + i in
        let poisoned = Chaos.draw_poisoned config.rates rng in
        let entry = catalog.(id mod Array.length catalog) in
        let wkey, workload =
          if poisoned then ("poison", Admission.poison_workload)
          else (entry.Fw.name, entry.Fw.workload)
        in
        {
          id;
          wkey;
          workload;
          poisoned;
          breaker = Breaker.create config.breaker;
          arrivals = [];
        })
  in
  (* Measure service times for every strategy an instance of this shard
     can end up running under: the preferred one, plus the graceful-
     degradation fallback when the preferred one is HFI. *)
  let strategies =
    if strategy = Strategy.Hfi then [ Strategy.Hfi; Strategy.Bounds_checks ]
    else [ strategy ]
  in
  let combos =
    List.sort_uniq compare
      (Array.to_list tenants
      |> List.concat_map (fun t ->
             if t.poisoned then []
             else List.map (fun s -> (combo_key t.wkey s, t.workload, s)) strategies))
  in
  let services, sched_budget_faults = measure combos in
  let service_of t (s : Strategy.t) =
    match Hashtbl.find_opt services (combo_key t.wkey s) with
    | Some (Ok cycles) -> Ok (Units.cycles_to_seconds cycles *. config.service_scale)
    | Some (Error f) -> Error f
    | None ->
      (* unreachable in practice: poisoned tenants (the only ones with
         no measurement) are refused at admission before any attempt *)
      Error
        (Fault.make ~sandbox:t.wkey
           (Fault.Crash { exn = "no service measurement"; backtrace = "" }))
  in
  let mean_service_s =
    let sum, n =
      Array.fold_left
        (fun (sum, n) t ->
          if t.poisoned then (sum, n)
          else
            match service_of t strategy with
            | Ok s -> (sum +. s, n + 1)
            | Error _ -> (sum, n))
        (0.0, 0) tenants
    in
    if n = 0 then 0.001 else sum /. float_of_int n
  in
  (* Calibrate the offered load against measured capacity: [utilization]
     of [workers_per_shard] servers, split evenly across tenants. *)
  let per_tenant_rate =
    config.utilization
    *. float_of_int config.workers_per_shard
    /. (mean_service_s *. float_of_int count)
  in
  let process =
    match config.scenario with
    | Steady | Chaos -> Arrival.Poisson { rate = per_tenant_rate }
    | Burst ->
      Arrival.Bursty
        {
          base_rate = 0.5 *. per_tenant_rate;
          burst_rate = 4.0 *. per_tenant_rate;
          mean_on_s = 0.5;
          mean_off_s = 0.5;
        }
  in
  let horizon_s =
    float_of_int shard_requests /. (Arrival.mean_rate process *. float_of_int count)
  in
  Array.iter
    (fun t ->
      let arr_rng = Prng.split rng in
      t.arrivals <- Arrival.generate ~rng:arr_rng ~horizon_s process)
    tenants;
  (* Merge the per-tenant streams into one time-ordered request list
     (ties broken by tenant id: arrival times are strictly increasing
     within a tenant, so (time, id) is a total order). *)
  let requests =
    Array.to_list tenants
    |> List.concat_map (fun t -> List.map (fun at -> (at, t)) t.arrivals)
    |> List.sort (fun (a, ta) (b, tb) ->
           let c = Float.compare a b in
           if c <> 0 then c else Int.compare ta.id tb.id)
  in
  let admission = Admission.create ~memo () in
  (* The HFI context budget is a per-platform number; each shard owns
     its tenants' slice of it (rounded down, floored at one), so the
     effective budget depends only on the tenant count — never on how
     many shards run concurrently. *)
  let pool_policy =
    {
      config.pool with
      Instance_pool.hfi_budget =
        max 1 (config.pool.Instance_pool.hfi_budget * count / config.tenants);
    }
  in
  let pool = Instance_pool.create ~policy:pool_policy () in
  let free_at = Array.make (max 1 config.workers_per_shard) 0.0 in
  let c = ref { zero_counters with requests = List.length requests } in
  let latencies = ref [] in
  let terminal outcome =
    let cc = !c in
    c :=
      (match outcome with
      | Ok_first -> { cc with ok = cc.ok + 1 }
      | Ok_retried -> { cc with retried_ok = cc.retried_ok + 1 }
      | Shed -> { cc with shed = cc.shed + 1 }
      | Breaker_open -> { cc with breaker_open = cc.breaker_open + 1 }
      | Rejected_unverified -> { cc with rejected_unverified = cc.rejected_unverified + 1 }
      | Failed -> { cc with failed = cc.failed + 1 })
  in
  let bump f = c := f !c in
  (* Deterministic request ids, unique across shards: shard index in the
     millions digit, per-shard arrival sequence below. Ids depend only
     on the shard plan and arrival order, never on the worker count. *)
  let seq = ref 0 in
  let process_request (arrival, t) =
    let req = (shard_index * 1_000_000) + !seq in
    incr seq;
    let ctx = Option.map (fun s -> Span.ctx s ~req ~tenant:t.id) sink in
    (* Terminal bookkeeping: the root request span covers arrival to the
       terminal decision, tagged with the outcome. *)
    let finish outcome ~t_end =
      Span.emit ctx Span.Request ~start_s:arrival
        ~dur_s:(Float.max 0.0 (t_end -. arrival))
        ~outcome:(outcome_name outcome);
      terminal outcome
    in
    match Breaker.decide ?ctx t.breaker ~now:arrival with
    | Breaker.Reject -> finish Breaker_open ~t_end:arrival
    | (Breaker.Allow | Breaker.Allow_probe) as gate ->
      let admitted =
        if config.rates.Chaos.verifier_reject > 0.0
           && Chaos.draw_spurious_reject config.rates rng
        then begin
          bump (fun cc -> { cc with spurious_rejects = cc.spurious_rejects + 1 });
          Span.emit ctx Span.Admission ~start_s:arrival ~dur_s:0.0
            ~outcome:"injected-reject";
          false
        end
        else
          match Admission.check ?ctx ~at:arrival admission ~strategy t.workload with
          | Admission.Admitted -> true
          | Admission.Rejected _ -> false
      in
      if not admitted then begin
        (* The gate refused the module (or the verifier glitched): the
           request never touches an instance, and the refusal counts as
           a tenant failure so persistently poisoned tenants trip their
           breaker and stop paying even the verification cache lookup. *)
        Breaker.record_failure t.breaker ~now:arrival;
        finish Rejected_unverified ~t_end:arrival
      end
      else begin
        (* Pick the worker that frees up first (lowest index on ties). *)
        let wi = ref 0 in
        Array.iteri (fun i f -> if f < free_at.(!wi) then wi := i) free_at;
        let wi = !wi in
        let start = Float.max arrival free_at.(wi) in
        if start > arrival then
          Span.emit ctx Span.Queue ~start_s:arrival ~dur_s:(start -. arrival)
            ~outcome:(if start -. arrival > config.shed_wait_s then "shed" else "dequeued");
        if start -. arrival > config.shed_wait_s then begin
          (* Load shedding: refuse rather than queue past the bound. A
             half-open probe that gets shed re-opens the breaker — the
             probe slot must not leak. *)
          if gate = Breaker.Allow_probe then Breaker.record_failure t.breaker ~now:start;
          finish Shed ~t_end:start
        end
        else begin
          let rec attempt k t_start =
            let acq =
              Instance_pool.acquire ?ctx pool ~now:t_start ~tenant:t.id
                ~preferred:strategy
            in
            let cold_s =
              if acq.Instance_pool.warm then 0.0
              else begin
                let stall = Chaos.draw_cold_stall config.rates rng in
                if stall > 1.0 then
                  bump (fun cc -> { cc with injected_stalls = cc.injected_stalls + 1 });
                let cold_s = config.cold_start_s *. stall in
                Span.emit ctx Span.Cold_start ~start_s:t_start ~dur_s:cold_s
                  ~outcome:(if stall > 1.0 then "stalled" else "cold");
                cold_s
              end
            in
            let fail t_fail =
              free_at.(wi) <- t_fail;
              Breaker.record_failure t.breaker ~now:t_fail;
              if k >= config.max_attempts then finish Failed ~t_end:t_fail
              else begin
                let delay = Backoff.delay config.backoff ~rng ~attempt:k in
                let t_next = t_fail +. delay in
                if t_next -. arrival > config.deadline_s then begin
                  bump (fun cc -> { cc with timed_out = cc.timed_out + 1 });
                  finish Failed ~t_end:t_fail
                end
                else begin
                  bump (fun cc -> { cc with retries = cc.retries + 1 });
                  Span.emit ctx Span.Backoff_wait ~start_s:t_fail ~dur_s:delay
                    ~outcome:(Printf.sprintf "retry-%d" (k + 1));
                  attempt (k + 1) t_next
                end
              end
            in
            match service_of t acq.Instance_pool.strategy with
            | Error _fault ->
              (* The kernel itself faults under this strategy: the
                 instance is useless, evict it and fail the attempt. *)
              Span.emit ctx Span.Execute ~start_s:(t_start +. cold_s) ~dur_s:0.0
                ~outcome:"service-fault";
              Instance_pool.evict pool ~tenant:t.id;
              fail (t_start +. cold_s)
            | Ok base_service_s -> (
              let jitter =
                Float.exp (Prng.gaussian rng ~mean:0.0 ~stddev:config.service_sigma)
              in
              let service_s = base_service_s *. jitter in
              match Chaos.draw_attempt ?ctx ~at:(t_start +. cold_s) config.rates rng with
              | Some kind ->
                bump (fun cc -> { cc with injected_faults = cc.injected_faults + 1 });
                Span.emit ctx Span.Execute ~start_s:(t_start +. cold_s)
                  ~dur_s:(0.5 *. service_s)
                  ~outcome:(Chaos.attempt_fault_name kind);
                (* A crash loses the instance; a transient kernel fault
                   leaves it warm for the retry. *)
                if kind = Chaos.Sandbox_crash then Instance_pool.evict pool ~tenant:t.id
                else Instance_pool.release pool ~now:t_start ~tenant:t.id;
                fail (t_start +. cold_s +. (0.5 *. service_s))
              | None ->
                let t_end = t_start +. cold_s +. service_s in
                Span.emit ctx Span.Execute ~start_s:(t_start +. cold_s) ~dur_s:service_s
                  ~outcome:"ok";
                free_at.(wi) <- t_end;
                Instance_pool.release pool ~now:t_end ~tenant:t.id;
                Breaker.record_success t.breaker ~now:t_end;
                let latency = t_end -. arrival in
                if latency > config.deadline_s then begin
                  bump (fun cc -> { cc with timed_out = cc.timed_out + 1 });
                  finish Failed ~t_end
                end
                else begin
                  latencies := latency :: !latencies;
                  Option.iter
                    (fun m -> Slo.observe m ~tenant:t.id ~now_s:t_end (latency *. 1000.0))
                    slo;
                  finish (if k = 1 then Ok_first else Ok_retried) ~t_end
                end)
          in
          attempt 1 start
        end
      end
  in
  List.iter process_request requests;
  let breaker_trips, breaker_rejections =
    Array.fold_left
      (fun (tr, rj) t -> (tr + Breaker.trips t.breaker, rj + Breaker.rejected t.breaker))
      (0, 0) tenants
  in
  let counters =
    {
      !c with
      cold_starts = Instance_pool.cold_starts pool;
      warm_hits = Instance_pool.warm_hits pool;
      degraded = Instance_pool.degraded pool;
      evictions = Instance_pool.evictions pool;
      breaker_trips;
      breaker_rejections;
      poisoned_tenants =
        Array.fold_left (fun n t -> if t.poisoned then n + 1 else n) 0 tenants;
      verify_hits = Admission.hits admission;
      verify_misses = Admission.misses admission;
      verify_persisted = Admission.persisted admission;
      sched_budget_faults;
    }
  in
  (* Close the window containing the horizon so the final partial
     windows are evaluated before the shard's monitor is merged. *)
  Option.iter (fun m -> Slo.flush m ~now_s:(horizon_s +. Slo.window_s m)) slo;
  {
    sh_counters = counters;
    latencies_s = List.rev !latencies;
    sh_horizon_s = horizon_s;
    sh_spans = (match sink with None -> [] | Some s -> Span.spans s);
    sh_slo = slo;
  }

(* ------------------------------------------------------------------ *)
(* Sharding, merge, reporting                                          *)

type shard_plan = { seed : int; first_tenant : int; count : int; requests : int }

let plan_shards (config : config) =
  let master = Prng.create ~seed:config.seed in
  let nshards = (config.tenants + shard_tenants - 1) / shard_tenants in
  List.init nshards (fun i ->
      (* Sub-seeds are drawn sequentially from the master stream in
         shard order, so the plan is a pure function of the config. *)
      let seed = Prng.next master in
      let first_tenant = i * shard_tenants in
      let count = min shard_tenants (config.tenants - first_tenant) in
      let requests = config.requests * count / config.tenants in
      { seed; first_tenant; count; requests })

let observe ~strategy counters latencies =
  let s = Strategy.to_string strategy in
  let outcome_counter name =
    Hfi_obs.Metrics.counter ~labels:[ ("strategy", s); ("outcome", name) ]
      "hfi_serving_requests_total"
  in
  List.iter
    (fun (name, v) -> Hfi_obs.Metrics.add (outcome_counter name) v)
    [
      (outcome_name Ok_first, counters.ok);
      (outcome_name Ok_retried, counters.retried_ok);
      (outcome_name Shed, counters.shed);
      (outcome_name Breaker_open, counters.breaker_open);
      (outcome_name Rejected_unverified, counters.rejected_unverified);
      (outcome_name Failed, counters.failed);
    ];
  List.iter
    (fun (name, v) ->
      Hfi_obs.Metrics.add (Hfi_obs.Metrics.counter ~labels:[ ("strategy", s) ] name) v)
    [
      ("hfi_serving_retries_total", counters.retries);
      ("hfi_serving_cold_starts_total", counters.cold_starts);
      ("hfi_serving_degraded_total", counters.degraded);
      ("hfi_serving_breaker_trips_total", counters.breaker_trips);
      ("hfi_serving_injected_faults_total", counters.injected_faults);
    ];
  let hist =
    Hfi_obs.Metrics.histogram ~labels:[ ("strategy", s) ]
      ~buckets:[| 1.0; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 1000.0 |]
      "hfi_serving_latency_ms"
  in
  List.iter (fun l -> Hfi_obs.Metrics.observe hist (l *. 1000.0)) latencies

let simulate ?jobs (config : config) ~strategy =
  if config.tenants < 1 then invalid_arg "Server.simulate: tenants < 1";
  if config.requests < 1 then invalid_arg "Server.simulate: requests < 1";
  if config.max_attempts < 1 then invalid_arg "Server.simulate: max_attempts < 1";
  let shards = plan_shards config in
  let measure = campaign_measure () in
  (* Shards keep their own gates (counts and spans stay per shard) but
     compile and verify each distinct image once per campaign. *)
  let memo = Admission.memo () in
  let results =
    Pool.map ?jobs
      (fun { seed; first_tenant; count; requests } ->
        run_shard config ~measure ~memo ~strategy ~shard_seed:seed ~first_tenant ~count
          ~shard_requests:requests)
      shards
  in
  let counters =
    List.fold_left (fun acc r -> add_counters acc r.sh_counters) zero_counters results
  in
  check_total counters;
  let latencies =
    List.concat_map (fun r -> r.latencies_s) results |> List.sort Float.compare
  in
  let horizon_s = List.fold_left (fun m r -> Float.max m r.sh_horizon_s) 0.0 results in
  (* Shard results arrive in plan order whatever the worker count, so
     both merges below are deterministic under HFI_JOBS. *)
  let spans = List.concat_map (fun r -> r.sh_spans) results in
  let slo =
    match List.filter_map (fun r -> r.sh_slo) results with
    | [] -> None
    | monitors -> Some (Slo.merge monitors)
  in
  let sorted = Array.of_list latencies in
  let pct p = if sorted = [||] then 0.0 else Stats.percentile_sorted p sorted *. 1000.0 in
  let served = counters.ok + counters.retried_ok in
  let mean_service_ms =
    match latencies with
    | [] -> 0.0
    | ls -> List.fold_left ( +. ) 0.0 ls /. float_of_int (List.length ls) *. 1000.0
  in
  observe ~strategy counters latencies;
  {
    strategy;
    counters;
    horizon_s;
    offered_rps =
      (if horizon_s > 0.0 then float_of_int counters.requests /. horizon_s else 0.0);
    goodput_rps = (if horizon_s > 0.0 then float_of_int served /. horizon_s else 0.0);
    p50_ms = pct 50.0;
    p99_ms = pct 99.0;
    p999_ms = pct 99.9;
    mean_service_ms;
    spans;
    slo;
  }
