(** The deterministic multi-tenant serving simulation: open-loop
    arrivals over many tenants, a verified-admission gate, per-tenant
    circuit breakers and instance pools, bounded retries with jittered
    backoff, load shedding, and HFI-budget-driven graceful degradation —
    all in virtual time, all replayable from one seed.

    Tenants are partitioned into fixed-size shards ({!shard_tenants}
    tenants each, independent of the worker count); every shard draws
    its own sub-seed sequentially from a master generator and simulates
    its tenants in full isolation, so running the shards on one domain
    or many ({!Hfi_util.Pool.map} over [HFI_JOBS]) produces
    byte-identical merged statistics.

    Every request ends in exactly one terminal {!outcome}; the sum of
    the outcome counters always equals the request count (checked — a
    mismatch is a {!Hfi_util.Fault.Simulator_bug}). *)

type scenario = Steady | Burst | Chaos

val scenario_name : scenario -> string

type config = {
  scenario : scenario;
  tenants : int;  (** tenant count (each mapped onto a catalog kernel) *)
  requests : int;  (** target total request count (sets the horizon) *)
  seed : int;
  utilization : float;  (** target offered load as a fraction of capacity *)
  workers_per_shard : int;  (** concurrent request slots per shard *)
  shed_wait_s : float;  (** admission sheds when the queue wait exceeds this *)
  deadline_s : float;  (** per-request end-to-end budget *)
  max_attempts : int;  (** total tries per request (1 = no retry) *)
  backoff : Backoff.policy;
  breaker : Breaker.policy;
  pool : Instance_pool.policy;
  cold_start_s : float;  (** provisioning cost of a cold instance *)
  service_scale : float;
      (** full-request work as a multiple of the measured scaled kernel *)
  service_sigma : float;  (** lognormal per-request service jitter *)
  rates : Chaos.rates;
  slo_target : Hfi_obs.Slo.target;
      (** per-tenant latency objectives the SLO monitor evaluates when
          metrics are on; never affects the simulation itself *)
}

val default : scenario -> config
(** Steady: Poisson arrivals, no injected hazards. Burst: two-state
    bursty arrivals. Chaos: Poisson arrivals with {!Chaos.default}
    hazards. *)

val shard_tenants : int
(** Tenants per shard (fixed: the shard decomposition — and therefore
    every drawn number — never depends on the worker count). *)

type outcome =
  | Ok_first  (** served within deadline on the first attempt *)
  | Ok_retried  (** served within deadline after at least one retry *)
  | Shed  (** refused at admission: queue wait exceeded [shed_wait_s] *)
  | Breaker_open  (** fast-failed by the tenant's open circuit breaker *)
  | Rejected_unverified  (** refused by the verified-load gate *)
  | Failed  (** retries exhausted or deadline exceeded *)

val outcome_name : outcome -> string

type counters = {
  requests : int;
  ok : int;
  retried_ok : int;
  shed : int;
  breaker_open : int;
  rejected_unverified : int;
  failed : int;
  retries : int;  (** re-attempts beyond each request's first *)
  timed_out : int;  (** terminal failures caused by the deadline *)
  cold_starts : int;
  warm_hits : int;
  degraded : int;  (** cold starts degraded HFI → Bounds_checks *)
  evictions : int;
  breaker_trips : int;
  breaker_rejections : int;
  injected_faults : int;  (** sandbox crashes + kernel faults injected *)
  injected_stalls : int;  (** cold starts hit by a stall *)
  spurious_rejects : int;  (** injected verifier rejects *)
  poisoned_tenants : int;
  verify_hits : int;  (** admission verdict-cache hits *)
  verify_misses : int;  (** actual verifier runs *)
  verify_persisted : int;  (** verdicts loaded from the persistent cache *)
  sched_budget_faults : int;
      (** measurement runs that exhausted the scheduler switch budget and
          fell back to direct execution *)
}

val zero_counters : counters

type report = {
  strategy : Hfi_sfi.Strategy.t;
  counters : counters;
  horizon_s : float;  (** virtual seconds simulated *)
  offered_rps : float;
  goodput_rps : float;  (** served-within-deadline requests per second *)
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;  (** latency percentiles over served requests *)
  mean_service_ms : float;  (** mean end-to-end latency of served requests *)
  spans : Hfi_obs.Span.t list;
      (** per-request spans in shard-plan order; empty unless
          {!Hfi_obs.Obs.trace_on} when the campaign ran *)
  slo : Hfi_obs.Slo.t option;
      (** merged per-tenant SLO monitor; [None] unless
          {!Hfi_obs.Obs.metrics_on} when the campaign ran *)
}

val simulate : ?jobs:int -> config -> strategy:Hfi_sfi.Strategy.t -> report
(** Run the campaign with [strategy] as every tenant's preferred
    isolation mechanism. [jobs] defaults to [HFI_JOBS]; the report —
    including the span list and merged SLO monitor when observability
    is on — is byte-identical for any [jobs >= 1] at a fixed config. *)

val check_total : counters -> unit
(** Raise [Hfi_util.Fault.Simulator_bug] unless the six terminal outcome
    counters sum to [requests]. [simulate] calls this on every merged
    report; tests call it directly. *)
