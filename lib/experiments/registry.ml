(** All experiments, keyed by the bench-target ids of DESIGN.md. *)

type entry = {
  id : string;
  description : string;
  run : ?quick:bool -> unit -> Report.t;
}

let all : entry list =
  [
    { id = "fig2"; description = "Sightglass emulation cross-validation (Fig. 2)"; run = Fig2_validation.run };
    { id = "fig3"; description = "SPEC 2006 vs guard pages (Fig. 3)"; run = Fig3_spec.run };
    { id = "heap-growth"; description = "Wasm heap growth, mprotect vs hfi_set_region (SS6.1)"; run = Heap_growth.run };
    { id = "reg-pressure"; description = "reserved-register overhead (SS6.1)"; run = Register_pressure.run };
    { id = "font"; description = "Firefox font rendering (SS6.2)"; run = Fig4_image.run_font };
    { id = "fig4"; description = "Firefox image rendering (Fig. 4)"; run = Fig4_image.run };
    { id = "teardown"; description = "FaaS sandbox teardown batching (SS6.3.1)"; run = Faas_lifecycle.run_teardown };
    { id = "scaling"; description = "sandbox-count scalability (SS6.3.2)"; run = Faas_lifecycle.run_scaling };
    { id = "syscalls"; description = "syscall interposition vs seccomp-bpf (SS6.4.1)"; run = Syscall_interposition.run };
    { id = "fig5"; description = "NGINX/OpenSSL native sandboxing (Fig. 5)"; run = Fig5_nginx.run };
    { id = "table1"; description = "Spectre protection on FaaS tail latency (Table 1)"; run = Table1_faas.run };
    { id = "fig7"; description = "Spectre-PHT/BTB probe latencies (Fig. 7, SS5.3)"; run = Fig7_spectre.run };
    { id = "ablate-soe"; description = "ablation: switch-on-exit vs serialized transitions"; run = Ablations.run_switch_on_exit };
    { id = "ablate-parallel"; description = "ablation: region checks in parallel with the dTLB"; run = Ablations.run_parallel_checks };
    { id = "ablate-comparator"; description = "ablation: comparator budget and hmov encoding"; run = Ablations.run_comparator };
    { id = "ablate-transitions"; description = "ablation: springboard vs zero-cost transitions (SS3.3.1)"; run = Ablations.run_transitions };
    { id = "multi-memory"; description = "multi-memory instance footprint (SS2)"; run = Ablations.run_multi_memory };
    { id = "chaining"; description = "function chaining in-process vs IPC (SS2)"; run = Ablations.run_chaining };
    { id = "opt-backend"; description = "optimizing middle-end: opt vs reference instrs/cycles"; run = Opt_backend.run };
    { id = "opt-passes"; description = "optimizing middle-end: static rewrites per pass"; run = Opt_backend.run_passes };
    { id = "fuzz"; description = "differential fuzzing + fault-injection campaign"; run = Fuzz.run };
    { id = "serve_steady"; description = "multi-tenant FaaS serving, steady load (robustness)"; run = Serving.run_steady };
    { id = "serve_burst"; description = "multi-tenant FaaS serving, bursty load + shedding"; run = Serving.run_burst };
    { id = "serve_chaos"; description = "multi-tenant FaaS serving under injected faults"; run = Serving.run_chaos };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids () = List.map (fun e -> e.id) all

type outcome = {
  entry : entry;
  result : (Report.t, Hfi_util.Fault.t) result;
  seconds : float;
      (** wall-clock of the run — or of the cache probe for cached
          outcomes, reported honestly rather than as 0 *)
  attempts : int;
  retried : bool;  (** at least one transient-fault retry happened *)
  timed_out : bool;  (** the result is a watchdog [Timeout] fault *)
  cached : bool;  (** served from {!Result_cache} instead of running *)
  uncached_seconds : float option;
      (** for cached outcomes: wall-clock of the original uncached run *)
  alloc_mb : float option;
      (** for uncached outcomes: MB allocated on the running domain
          while the experiment ran, retries included. At jobs=1 that is
          all of its allocation; work it fans out to other domains is
          not counted. *)
  metrics : (string * float) list;
      (** metric deltas attributable to this run (empty unless HFI_OBS
          enables metrics; always empty for cached outcomes) *)
}

(* Batch-level counters; experiment ids ride on a label so the per-id
   split survives in one snapshot. *)
let runs_counter id = Hfi_obs.Metrics.counter "hfi_experiment_runs_total" ~labels:[ ("id", id) ]

let failures_counter id =
  Hfi_obs.Metrics.counter "hfi_experiment_failures_total" ~labels:[ ("id", id) ]

let cache_counter outcome =
  Hfi_obs.Metrics.counter "hfi_result_cache_total" ~labels:[ ("outcome", outcome) ]

(* Bytes allocated on this domain so far. Not [Gc.allocated_bytes]:
   on OCaml 5.1 its minor-heap term misses most of the words allocated
   since the last minor collection (a 24 KB list reads as 3 KB), while
   [Gc.minor_words] counts them. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* Run a batch of experiments, fanning across domains when [jobs] (or
   HFI_JOBS) allows. Outcomes come back in the order of [entries]
   regardless of completion order, so parallel output is identical to
   sequential output modulo wall-clock. [clock] supplies timestamps
   (this library does not depend on unix; the bench driver passes
   [Unix.gettimeofday]) — without it every duration reads 0.

   Resilience contract: an exception escaping one experiment never
   takes down the batch — it is captured (with backtrace) as an [Error]
   outcome and the remaining experiments still run.
   [Hfi_util.Fault.Transient] failures (injected faults) are retried up
   to [retries] extra times; anything else is a simulator bug and is
   reported as a [Crash] fault immediately. The watchdog is cooperative
   (OCaml domains cannot be preempted): an experiment that finishes
   after more than [timeout_s] seconds has its result replaced by a
   [Timeout] fault, so a hung-then-recovered run is visible rather than
   silently slow. *)
let run_entry ?quick ?(clock = fun () -> 0.0) ?(timeout_s = infinity) ?(retries = 1)
    ?(use_cache = true) e =
  let module Fault = Hfi_util.Fault in
  let quick_flag = Option.value quick ~default:false in
  let cache_on = use_cache && Result_cache.enabled () in
  let metrics_on = Hfi_obs.Obs.metrics_on () in
  (* Time the cache probe itself: a hit is fast but not free (key
     digest over the executable, entry read, parse), and reporting it
     as 0.0 used to make cached bench JSON look like time travel. *)
  let t_probe = clock () in
  match if cache_on then Result_cache.find ~id:e.id ~quick:quick_flag else None with
  | Some (report, uncached) ->
    if metrics_on then Hfi_obs.Metrics.inc (cache_counter "hit");
    {
      entry = e;
      result = Ok report;
      seconds = clock () -. t_probe;
      attempts = 0;
      retried = false;
      timed_out = false;
      cached = true;
      uncached_seconds = Some uncached;
      alloc_mb = None;
      metrics = [];
    }
  | None ->
    if metrics_on && cache_on then Hfi_obs.Metrics.inc (cache_counter "miss");
    let before = if metrics_on then Hfi_obs.Metrics.snapshot () else [] in
    let t0 = clock () in
    let alloc0 = allocated_bytes () in
    let rec attempt k =
      match e.run ?quick () with
      | report ->
        let dt = clock () -. t0 in
        if dt > timeout_s then
          ( Error (Fault.make ~sandbox:e.id (Fault.Timeout { limit_s = timeout_s })),
            dt, k )
        else (Ok report, dt, k)
      | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        let fault = Fault.of_exn ~sandbox:e.id exn bt in
        if Fault.is_transient fault && k <= retries then attempt (k + 1)
        else (Error fault, clock () -. t0, k)
    in
    let result, seconds, attempts = attempt 1 in
    let alloc_mb = (allocated_bytes () -. alloc0) /. 1048576.0 in
    (* Only clean successes are worth remembering; faults should re-run. *)
    (match result with
    | Ok report when cache_on -> Result_cache.store ~id:e.id ~quick:quick_flag ~seconds report
    | Ok _ | Error _ -> ());
    let metrics =
      if not metrics_on then []
      else begin
        (* Count the run itself inside the window so the per-run delta
           self-describes which experiment produced it. *)
        Hfi_obs.Metrics.inc (runs_counter e.id);
        if Result.is_error result then Hfi_obs.Metrics.inc (failures_counter e.id);
        Hfi_obs.Metrics.delta (Hfi_obs.Metrics.snapshot ()) before
      end
    in
    let timed_out =
      match result with
      | Error { Fault.kind = Fault.Timeout _; _ } -> true
      | Ok _ | Error _ -> false
    in
    {
      entry = e;
      result;
      seconds;
      attempts;
      retried = attempts > 1;
      timed_out;
      cached = false;
      uncached_seconds = None;
      alloc_mb = Some alloc_mb;
      metrics;
    }

(* HFI_JOBS is resolved — and any invalid-value warning printed — once
   per process, not once per batch or entry: repeated [run_many] calls
   without an explicit [jobs] reuse this memo instead of re-parsing the
   environment every time. *)
let env_jobs = lazy (Hfi_util.Pool.default_jobs ())

let run_many ?jobs ?quick ?clock ?timeout_s ?retries ?use_cache entries =
  let jobs = match jobs with Some j -> j | None -> Lazy.force env_jobs in
  Hfi_util.Pool.map ~jobs
    (fun e -> run_entry ?quick ?clock ?timeout_s ?retries ?use_cache e)
    entries
