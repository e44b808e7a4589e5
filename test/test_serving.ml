(* The resilient serving layer: arrival processes, backoff, circuit
   breakers, instance pools with budget degradation, the verified-load
   admission gate, the scheduler's typed budget fault, and the
   end-to-end campaign determinism contract. *)

module Prng = Hfi_util.Prng
module Fault = Hfi_util.Fault
module Strategy = Hfi_sfi.Strategy
module Arrival = Hfi_serving.Arrival
module Backoff = Hfi_serving.Backoff
module Breaker = Hfi_serving.Breaker
module Admission = Hfi_serving.Admission
module Instance_pool = Hfi_serving.Instance_pool
module Chaos = Hfi_serving.Chaos
module Server = Hfi_serving.Server
module Scheduler = Hfi_runtime.Scheduler

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Arrival processes -------------------------------------------- *)

let test_arrival_deterministic_and_ordered () =
  let gen seed process =
    Arrival.generate ~rng:(Prng.create ~seed) ~horizon_s:10.0 process
  in
  List.iter
    (fun process ->
      let a = gen 5 process in
      check_bool "same seed, same stream" true (a = gen 5 process);
      check_bool "different seed, different stream" true (a <> gen 6 process);
      check_bool "non-empty at these rates" true (a <> []);
      let rec ordered last = function
        | [] -> true
        | t :: rest -> t > last && t < 10.0 && ordered t rest
      in
      check_bool "strictly increasing, within horizon" true (ordered (-1.0) a))
    [
      Arrival.Poisson { rate = 50.0 };
      Arrival.Bursty
        { base_rate = 20.0; burst_rate = 120.0; mean_on_s = 0.5; mean_off_s = 0.5 };
    ]

let test_arrival_rate_calibration () =
  (* The empirical rate of a long Poisson stream tracks the nominal
     rate, and mean_rate reports the modulated average for bursty. *)
  let n =
    List.length
      (Arrival.generate ~rng:(Prng.create ~seed:1) ~horizon_s:200.0
         (Arrival.Poisson { rate = 50.0 }))
  in
  check_bool "poisson empirical rate within 10%" true (abs (n - 10_000) < 1000);
  let b =
    Arrival.Bursty { base_rate = 10.0; burst_rate = 90.0; mean_on_s = 1.0; mean_off_s = 1.0 }
  in
  check_bool "bursty mean rate is the phase average" true
    (abs_float (Arrival.mean_rate b -. 50.0) < 1e-9)

(* --- Backoff ------------------------------------------------------ *)

let test_backoff_bounds () =
  let p = { Backoff.base_s = 0.010; multiplier = 2.0; max_s = 0.1; jitter = 0.5 } in
  check_bool "ceiling doubles" true
    (Backoff.ceiling p ~attempt:1 = 0.010
    && Backoff.ceiling p ~attempt:2 = 0.020
    && Backoff.ceiling p ~attempt:3 = 0.040);
  check_bool "ceiling capped" true (Backoff.ceiling p ~attempt:10 = 0.1);
  check_bool "attempt 0 rejected" true
    (match Backoff.ceiling p ~attempt:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let rng = Prng.create ~seed:3 in
  let ok =
    List.init 200 (fun i ->
        let attempt = 1 + (i mod 6) in
        let cap = Backoff.ceiling p ~attempt in
        let d = Backoff.delay p ~rng ~attempt in
        d >= cap *. (1.0 -. p.Backoff.jitter) && d <= cap)
  in
  check_bool "every delay within the jitter band" true (List.for_all Fun.id ok);
  let replay seed =
    let rng = Prng.create ~seed in
    List.init 10 (fun i -> Backoff.delay p ~rng ~attempt:(1 + i))
  in
  check_bool "schedule replayable from seed" true (replay 9 = replay 9)

(* --- Circuit breaker ---------------------------------------------- *)

let test_breaker_state_machine () =
  let p = { Breaker.failure_threshold = 3; cooldown_s = 1.0; half_open_successes = 2 } in
  let b = Breaker.create p in
  check_bool "starts closed" true (Breaker.state_name b = "closed");
  (* below the threshold: still closed; a success resets the count *)
  Breaker.record_failure b ~now:0.0;
  Breaker.record_failure b ~now:0.1;
  Breaker.record_success b ~now:0.2;
  Breaker.record_failure b ~now:0.3;
  Breaker.record_failure b ~now:0.4;
  check_bool "still closed below threshold" true (Breaker.state_name b = "closed");
  Breaker.record_failure b ~now:0.5;
  check_bool "trips at threshold" true (Breaker.state_name b = "open");
  check_int "one trip" 1 (Breaker.trips b);
  check_bool "rejects while open" true (Breaker.decide b ~now:1.0 = Breaker.Reject);
  (* cooldown elapsed: exactly one probe allowed at a time *)
  check_bool "half-open probe after cooldown" true
    (Breaker.decide b ~now:1.6 = Breaker.Allow_probe);
  check_bool "second concurrent probe rejected" true
    (Breaker.decide b ~now:1.6 = Breaker.Reject);
  Breaker.record_success b ~now:1.7;
  check_bool "another probe allowed" true (Breaker.decide b ~now:1.8 = Breaker.Allow_probe);
  Breaker.record_success b ~now:1.9;
  check_bool "closes after enough probe successes" true (Breaker.state_name b = "closed");
  check_bool "closed allows" true (Breaker.decide b ~now:2.0 = Breaker.Allow);
  (* re-trip, then a failed probe re-opens immediately *)
  Breaker.record_failure b ~now:3.0;
  Breaker.record_failure b ~now:3.1;
  Breaker.record_failure b ~now:3.2;
  check_bool "re-tripped" true (Breaker.state_name b = "open");
  check_bool "probe after second cooldown" true
    (Breaker.decide b ~now:4.3 = Breaker.Allow_probe);
  Breaker.record_failure b ~now:4.4;
  check_bool "failed probe re-opens" true (Breaker.state_name b = "open");
  check_int "three trips total" 3 (Breaker.trips b);
  check_bool "rejections counted" true (Breaker.rejected b > 0)

(* --- Instance pool ------------------------------------------------ *)

let test_pool_warm_cold_and_degradation () =
  let policy = { Instance_pool.keep_alive_s = 1.0; hfi_budget = 2 } in
  let pool = Instance_pool.create ~policy () in
  (* first touch is cold, reuse within keep-alive is warm *)
  let a = Instance_pool.acquire pool ~now:0.0 ~tenant:0 ~preferred:Strategy.Hfi in
  check_bool "first acquire is cold" false a.Instance_pool.warm;
  Instance_pool.release pool ~now:0.1 ~tenant:0;
  let b = Instance_pool.acquire pool ~now:0.5 ~tenant:0 ~preferred:Strategy.Hfi in
  check_bool "reuse within keep-alive is warm" true b.Instance_pool.warm;
  check_bool "warm reuse keeps the strategy" true
    (b.Instance_pool.strategy = Strategy.Hfi);
  Instance_pool.release pool ~now:0.5 ~tenant:0;
  (* a lapsed keep-alive is cold again *)
  let c = Instance_pool.acquire pool ~now:5.0 ~tenant:0 ~preferred:Strategy.Hfi in
  check_bool "lapsed keep-alive is cold" false c.Instance_pool.warm;
  Instance_pool.release pool ~now:5.0 ~tenant:0;
  (* budget: two resident HFI instances; the third cold start degrades *)
  let d = Instance_pool.acquire pool ~now:5.1 ~tenant:1 ~preferred:Strategy.Hfi in
  Instance_pool.release pool ~now:5.1 ~tenant:1;
  check_bool "second tenant still HFI" true (d.Instance_pool.strategy = Strategy.Hfi);
  let e = Instance_pool.acquire pool ~now:5.2 ~tenant:2 ~preferred:Strategy.Hfi in
  check_bool "third cold start degrades" true e.Instance_pool.degraded;
  check_bool "degrades to bounds checks" true
    (e.Instance_pool.strategy = Strategy.Bounds_checks);
  check_int "degradation counted" 1 (Instance_pool.degraded pool);
  (* eviction forces the next acquire cold *)
  Instance_pool.release pool ~now:5.2 ~tenant:2;
  Instance_pool.evict pool ~tenant:0;
  let f = Instance_pool.acquire pool ~now:5.3 ~tenant:0 ~preferred:Strategy.Hfi in
  check_bool "evicted tenant is cold" false f.Instance_pool.warm;
  check_int "eviction counted" 1 (Instance_pool.evictions pool);
  check_bool "software preference never degrades" true
    (let g =
       Instance_pool.acquire pool ~now:5.4 ~tenant:3 ~preferred:Strategy.Bounds_checks
     in
     (not g.Instance_pool.degraded) && g.Instance_pool.strategy = Strategy.Bounds_checks)

(* --- Verified-load admission gate --------------------------------- *)

(* The image-key checks below compare the optimized lowering against
   the unoptimized one, so the optimizer switch must be on whatever
   HFI_WASM_OPT says. *)
let test_admission_gate_admits_and_caches () =
  Hfi_opt.Driver.with_enabled true @@ fun () ->
  let gate = Admission.create () in
  let w = (List.hd Hfi_workloads.Faas_workloads.all).Hfi_workloads.Faas_workloads.workload in
  check_bool "catalog kernel admitted" true
    (Admission.check gate ~strategy:Strategy.Hfi w = Admission.Admitted);
  check_int "first check is a miss" 1 (Admission.misses gate);
  check_bool "re-check admitted" true
    (Admission.check gate ~strategy:Strategy.Hfi w = Admission.Admitted);
  check_int "verdict served from the cache" 1 (Admission.hits gate);
  check_int "no second verification" 1 (Admission.misses gate);
  (* same module under a different strategy is a distinct cache key *)
  ignore (Admission.check gate ~strategy:Strategy.Bounds_checks w);
  check_int "strategy is part of the key" 2 (Admission.misses gate);
  (* A gate compiles each image once: warm checks find the fingerprint
     in its image table instead of rebuilding the module. *)
  let builds = ref 0 in
  let counted =
    {
      w with
      Hfi_wasm.Instance.build =
        (fun cg ->
          incr builds;
          w.Hfi_wasm.Instance.build cg);
    }
  in
  let gate = Admission.create () in
  for _ = 1 to 50 do
    check_bool "counted kernel admitted" true
      (Admission.check gate ~strategy:Strategy.Bounds_checks counted = Admission.Admitted)
  done;
  check_int "compiled once for 50 checks" 1 !builds;
  check_int "one verification" 1 (Admission.misses gate);
  check_int "49 cached verdicts" 49 (Admission.hits gate);
  (* A different value reusing the admitted kernel's name is its own
     image: compiled and verified, never served the kernel's verdict. *)
  let impostor =
    { Admission.poison_workload with Hfi_wasm.Instance.name = counted.Hfi_wasm.Instance.name }
  in
  (match Admission.check gate ~strategy:Strategy.Bounds_checks impostor with
  | Admission.Admitted -> Alcotest.fail "name collision leaked the kernel's verdict"
  | Admission.Rejected { verdict; _ } ->
    check_bool "impostor refused as unsafe" true (verdict = "unsafe"));
  check_int "impostor verified on its own" 2 (Admission.misses gate);
  check_int "kernel not recompiled" 1 !builds;
  (* The optimizer switch is part of the image key: the unoptimized
     lowering has another fingerprint, so it compiles and verifies. *)
  Hfi_opt.Driver.with_enabled false (fun () ->
      check_bool "unoptimized kernel admitted" true
        (Admission.check gate ~strategy:Strategy.Bounds_checks counted = Admission.Admitted));
  check_int "unoptimized lowering compiled" 2 !builds;
  check_int "unoptimized lowering is a miss" 3 (Admission.misses gate);
  ignore (Admission.check gate ~strategy:Strategy.Bounds_checks counted);
  check_int "optimized image still remembered" 2 !builds;
  check_int "and its verdict" 50 (Admission.hits gate)

(* A campaign memo: gates on one memo compile and verify each image
   once between them, yet each gate counts and reports exactly as a
   memo-less gate would — a memo-supplied verdict is that gate's miss,
   and its span carries no cache qualifier. *)
let counting_workload () =
  let builds = Atomic.make 0 in
  let w = (List.hd Hfi_workloads.Faas_workloads.all).Hfi_workloads.Faas_workloads.workload in
  ( builds,
    {
      w with
      Hfi_wasm.Instance.build =
        (fun cg ->
          Atomic.incr builds;
          w.Hfi_wasm.Instance.build cg);
    } )

let test_admission_memo_shares_work () =
  let builds, counted = counting_workload () in
  let memo = Admission.memo () in
  let outcome gate =
    let sink = Hfi_obs.Span.create_sink () in
    let ctx = Hfi_obs.Span.ctx sink ~req:0 ~tenant:0 in
    let d = Admission.check ~ctx gate ~strategy:Strategy.Bounds_checks counted in
    (d, List.map (fun sp -> sp.Hfi_obs.Span.outcome) (Hfi_obs.Span.spans sink))
  in
  let a = Admission.create ~memo () and b = Admission.create ~memo () in
  let da, sa = outcome a and db, sb = outcome b in
  check_int "one compile for two gates" 1 (Atomic.get builds);
  check_bool "equal decisions" true (da = db && da = Admission.Admitted);
  Alcotest.(check (list string)) "first gate's span" [ "admitted" ] sa;
  Alcotest.(check (list string)) "memo verdict reads as fresh" [ "admitted" ] sb;
  List.iter
    (fun gate ->
      check_int "each gate records its miss" 1 (Admission.misses gate);
      check_int "and no hit" 0 (Admission.hits gate))
    [ a; b ];
  let _, sb' = outcome b in
  Alcotest.(check (list string)) "gate's own table first" [ "admitted-cached" ] sb';
  check_int "warm check counted as a hit" 1 (Admission.hits b);
  (* The poison image is rejected through the memo just as on its own. *)
  let poison gate = Admission.check gate ~strategy:Strategy.Hfi Admission.poison_workload in
  check_bool "memo keeps rejections" true
    (poison a = poison (Admission.create ()) && poison b = poison a);
  let c = Admission.create () in
  ignore (outcome c);
  check_int "a gate without a memo compiles again" 2 (Atomic.get builds);
  check_int "and verifies on its own" 1 (Admission.misses c)

let test_admission_memo_across_domains () =
  let builds, counted = counting_workload () in
  let memo = Admission.memo () in
  let gates =
    Hfi_util.Pool.map ~jobs:4
      (fun _ ->
        let gate = Admission.create ~memo () in
        let d = Admission.check gate ~strategy:Strategy.Hfi counted in
        (d, Admission.misses gate))
      (List.init 16 Fun.id)
  in
  check_int "16 gates, one compile" 1 (Atomic.get builds);
  check_bool "every gate admitted, each on one miss" true
    (List.for_all (fun (d, misses) -> d = Admission.Admitted && misses = 1) gates)

let test_admission_gate_rejects_poison_before_execution () =
  (* The acceptance property: a region-escape module is refused under
     every strategy, and the gate never instantiates it — its init hook
     (which only instantiation runs) must never fire. *)
  let init_calls = ref 0 in
  let poison = Admission.poison_workload in
  let traced =
    {
      poison with
      Hfi_wasm.Instance.init =
        (fun mem ~heap_base ->
          incr init_calls;
          poison.Hfi_wasm.Instance.init mem ~heap_base);
    }
  in
  List.iter
    (fun strategy ->
      match Admission.check (Admission.create ()) ~strategy traced with
      | Admission.Admitted ->
        Alcotest.failf "poison admitted under %s" (Strategy.to_string strategy)
      | Admission.Rejected { verdict; _ } ->
        check_bool "refused as unsafe" true (verdict = "unsafe"))
    [ Strategy.Hfi; Strategy.Guard_pages; Strategy.Bounds_checks ];
  check_int "never instantiated: init never ran" 0 !init_calls

(* --- Scheduler budget fault (typed, not an exception) ------------- *)

let test_scheduler_budget_exhaustion_is_typed () =
  let sched = Scheduler.create () in
  let w = Hfi_workloads.Sightglass.find "sieve" in
  Scheduler.spawn_instance sched ~name:"a"
    (Hfi_wasm.Instance.instantiate ~strategy:Strategy.Hfi w);
  Scheduler.spawn_instance sched ~name:"b"
    (Hfi_wasm.Instance.instantiate ~strategy:Strategy.Hfi w);
  (match Scheduler.run ~quantum:50 ~max_switches:3 sched with
  | Ok () -> Alcotest.fail "three switches cannot finish two sieves"
  | Error f -> (
    match f.Fault.kind with
    | Fault.Resource_exhausted { resource; limit } ->
      check_bool "names the budget" true (resource = "context-switch budget");
      check_int "carries the limit" 3 limit;
      check_bool "not transient" false (Fault.is_transient f);
      check_bool "not modeled behavior" false (Fault.is_modeled f)
    | _ -> Alcotest.failf "wrong fault kind: %s" (Fault.to_string f)));
  check_bool "processes survive exhaustion" true
    (Scheduler.status sched ~name:"a" = Scheduler.Ready
    || Scheduler.status sched ~name:"a" = Scheduler.Finished);
  (* a fresh budget resumes from the saved state and completes *)
  check_bool "re-run completes" true (Scheduler.run ~quantum:700 sched = Ok ());
  check_int "result correct after resume" 1028 (Scheduler.result sched ~name:"a");
  check_int "other process too" 1028 (Scheduler.result sched ~name:"b")

let test_scheduler_spawn_many () =
  (* The array+name-table scheduler handles a serving-sized process
     count; names stay in spawn order and duplicate names keep
     first-spawn-wins lookup semantics. *)
  let sched = Scheduler.create () in
  let w = Hfi_workloads.Sightglass.find "fib2" in
  let n = 64 in
  for i = 0 to n - 1 do
    Scheduler.spawn_instance sched
      ~name:(Printf.sprintf "p%02d" i)
      (Hfi_wasm.Instance.instantiate ~strategy:Strategy.Bounds_checks w)
  done;
  check_int "all registered" n (List.length (Scheduler.processes sched));
  check_bool "spawn order preserved" true
    (Scheduler.processes sched
    = List.init n (fun i -> Printf.sprintf "p%02d" i));
  check_bool "run completed" true (Scheduler.run ~quantum:500 sched = Ok ());
  check_int "first result" 2584 (Scheduler.result sched ~name:"p00");
  check_int "last result" 2584 (Scheduler.result sched ~name:(Printf.sprintf "p%02d" (n - 1)))

(* --- End-to-end campaigns ----------------------------------------- *)

let small_chaos =
  { (Server.default Server.Chaos) with Server.tenants = 16; requests = 320; seed = 12 }

let total_terminal (c : Server.counters) =
  c.Server.ok + c.Server.retried_ok + c.Server.shed + c.Server.breaker_open
  + c.Server.rejected_unverified + c.Server.failed

let test_serve_chaos_classifies_every_request () =
  let r = Server.simulate ~jobs:1 small_chaos ~strategy:Strategy.Hfi in
  let c = r.Server.counters in
  check_bool "requests were generated" true (c.Server.requests > 0);
  check_int "every request in exactly one terminal outcome" c.Server.requests
    (total_terminal c);
  Server.check_total c;
  check_bool "hazards actually fired" true
    (c.Server.injected_faults > 0 && c.Server.poisoned_tenants > 0);
  check_bool "poison tenants are refused, not run" true
    (c.Server.rejected_unverified > 0);
  check_bool "breaker absorbed the poison tenants" true (c.Server.breaker_trips > 0);
  check_bool "retries recovered some requests" true
    (c.Server.retried_ok > 0 && c.Server.retries >= c.Server.retried_ok);
  check_bool "percentiles ordered" true
    (r.Server.p50_ms <= r.Server.p99_ms && r.Server.p99_ms <= r.Server.p999_ms);
  check_bool "goodput below offered under faults" true
    (r.Server.goodput_rps < r.Server.offered_rps)

let test_serve_jobs_determinism () =
  (* The sharded campaign is byte-identical for any worker count: same
     counters, same percentiles, same everything. *)
  List.iter
    (fun strategy ->
      let r1 = Server.simulate ~jobs:1 small_chaos ~strategy in
      let r4 = Server.simulate ~jobs:4 small_chaos ~strategy in
      check_bool "jobs=1 equals jobs=4" true (r1 = r4);
      let r1' = Server.simulate ~jobs:1 small_chaos ~strategy in
      check_bool "replayable from the seed" true (r1 = r1');
      let other = Server.simulate ~jobs:1 { small_chaos with Server.seed = 13 } ~strategy in
      check_bool "seed actually steers the campaign" true (r1 <> other))
    [ Strategy.Hfi; Strategy.Bounds_checks ]

(* Golden pin of [small_chaos]: every counter, and the exact bits of
   goodput and the latency percentiles. Shards share measured service
   tables and gates remember compiled images; neither may move a
   modeled value. The pins are of the optimized lowering, so the
   optimizer switch is on whatever HFI_WASM_OPT says. *)
let test_serve_small_chaos_pinned () =
  let pin strategy counters floats =
    let r =
      Hfi_opt.Driver.with_enabled true (fun () -> Server.simulate ~jobs:1 small_chaos ~strategy)
    in
    let c = r.Server.counters in
    let actual =
      Server.
        [
          ("requests", c.requests); ("ok", c.ok); ("retried_ok", c.retried_ok);
          ("shed", c.shed); ("breaker_open", c.breaker_open);
          ("rejected_unverified", c.rejected_unverified); ("failed", c.failed);
          ("retries", c.retries); ("timed_out", c.timed_out);
          ("cold_starts", c.cold_starts); ("warm_hits", c.warm_hits);
          ("degraded", c.degraded); ("evictions", c.evictions);
          ("breaker_trips", c.breaker_trips); ("breaker_rejections", c.breaker_rejections);
          ("injected_faults", c.injected_faults); ("injected_stalls", c.injected_stalls);
          ("spurious_rejects", c.spurious_rejects); ("poisoned_tenants", c.poisoned_tenants);
          ("verify_hits", c.verify_hits); ("verify_misses", c.verify_misses);
          ("verify_persisted", c.verify_persisted);
          ("sched_budget_faults", c.sched_budget_faults);
        ]
    in
    let s = Strategy.to_string strategy in
    List.iter2
      (fun (name, want) (name', got) ->
        assert (name = name');
        check_int (s ^ " " ^ name) want got)
      counters actual;
    List.iter2
      (fun (name, want) got ->
        Alcotest.(check string) (s ^ " " ^ name) want (Printf.sprintf "%h" got))
      floats
      [ r.Server.goodput_rps; r.Server.p50_ms; r.Server.p99_ms; r.Server.p999_ms ]
  in
  let shared =
    [
      ("requests", 318); ("ok", 251); ("retried_ok", 14); ("shed", 0);
      ("breaker_open", 38); ("rejected_unverified", 15); ("failed", 0);
      ("retries", 14); ("timed_out", 0); ("cold_starts", 17); ("warm_hits", 262);
      ("degraded", 0); ("evictions", 4); ("breaker_trips", 3);
      ("breaker_rejections", 38); ("injected_faults", 14); ("injected_stalls", 2);
      ("spurious_rejects", 0); ("poisoned_tenants", 3); ("verify_hits", 270);
      ("verify_misses", 10); ("verify_persisted", 0); ("sched_budget_faults", 0);
    ]
  in
  pin Strategy.Hfi shared
    [
      ("goodput_rps", "0x1.d6de25562f013p+8"); ("p50_ms", "0x1.632bd236e6885p+3");
      ("p99_ms", "0x1.f792bd7910873p+5"); ("p999_ms", "0x1.e6f35807abc08p+7");
    ];
  pin Strategy.Bounds_checks shared
    [
      ("goodput_rps", "0x1.905b074d0cf7dp+8"); ("p50_ms", "0x1.8c3553af80df2p+3");
      ("p99_ms", "0x1.06b4d73ad5cc1p+6"); ("p999_ms", "0x1.e14b8a0aea3dbp+7");
    ]

let test_serve_degradation_under_budget_pressure () =
  (* One shard, HFI budget below the tenant count, long keep-alive:
     cold starts past the budget must degrade to bounds checks and the
     requests must still be served. *)
  let cfg =
    {
      (Server.default Server.Steady) with
      Server.tenants = 8;
      requests = 240;
      seed = 3;
      pool = { Instance_pool.keep_alive_s = 30.0; hfi_budget = 4 };
    }
  in
  let r = Server.simulate ~jobs:1 cfg ~strategy:Strategy.Hfi in
  let c = r.Server.counters in
  Server.check_total c;
  check_bool "degradation happened" true (c.Server.degraded > 0);
  check_bool "degraded requests still served" true (c.Server.failed = 0 && c.Server.ok > 0)

let test_serve_failed_outcome_reachable () =
  (* With no retry budget and a vicious crash rate, some requests must
     exhaust their attempts — and still be classified exactly once. *)
  let cfg =
    {
      small_chaos with
      Server.max_attempts = 1;
      rates = { Chaos.default with Chaos.sandbox_crash = 0.5 };
    }
  in
  let r = Server.simulate ~jobs:1 cfg ~strategy:Strategy.Hfi in
  let c = r.Server.counters in
  Server.check_total c;
  check_bool "failures surfaced" true (c.Server.failed > 0);
  check_int "no retries without budget" 0 c.Server.retries

let test_serve_check_total_catches_leaks () =
  check_bool "a leaked request is a simulator bug" true
    (match
       Server.check_total { Server.zero_counters with Server.requests = 1 }
     with
    | exception Fault.Simulator_bug _ -> true
    | () -> false)

let suite =
  [
    Alcotest.test_case "arrivals deterministic and ordered" `Quick
      test_arrival_deterministic_and_ordered;
    Alcotest.test_case "arrival rate calibration" `Quick test_arrival_rate_calibration;
    Alcotest.test_case "backoff bounds and jitter band" `Quick test_backoff_bounds;
    Alcotest.test_case "circuit breaker state machine" `Quick test_breaker_state_machine;
    Alcotest.test_case "pool warm/cold/degradation/eviction" `Quick
      test_pool_warm_cold_and_degradation;
    Alcotest.test_case "admission admits and caches verdicts" `Quick
      test_admission_gate_admits_and_caches;
    Alcotest.test_case "admission memo: one compile, per-gate counts" `Quick
      test_admission_memo_shares_work;
    Alcotest.test_case "admission memo shared by 16 gates on 4 domains" `Quick
      test_admission_memo_across_domains;
    Alcotest.test_case "admission rejects poison before execution" `Quick
      test_admission_gate_rejects_poison_before_execution;
    Alcotest.test_case "scheduler budget fault is typed" `Quick
      test_scheduler_budget_exhaustion_is_typed;
    Alcotest.test_case "scheduler spawns serving-sized fleets" `Quick
      test_scheduler_spawn_many;
    Alcotest.test_case "serve_chaos classifies every request" `Quick
      test_serve_chaos_classifies_every_request;
    Alcotest.test_case "serving jobs=1 equals jobs=4" `Quick test_serve_jobs_determinism;
    Alcotest.test_case "small_chaos pinned under HFI and bounds checks" `Quick
      test_serve_small_chaos_pinned;
    Alcotest.test_case "HFI budget pressure degrades gracefully" `Quick
      test_serve_degradation_under_budget_pressure;
    Alcotest.test_case "failed outcome reachable and classified" `Quick
      test_serve_failed_outcome_reachable;
    Alcotest.test_case "outcome leak detection" `Quick test_serve_check_total_catches_leaks;
  ]
