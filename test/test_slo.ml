(* Serving observability: the SLO monitor, span tracing, and the bench
   regression gate.

   - Quantile estimation: linear interpolation inside the containing
     bucket, exact bucket-boundary behavior, overflow clamping to the
     last finite bound, and the degenerate empty histogram.
   - Sliding windows: advancing virtual time closes windows (evaluating
     each against the target), ring slots are recycled across long idle
     gaps, and flush evaluates the final partial windows.
   - Span traces: simulating the same campaign on 1 and 4 domains
     yields byte-identical JSONL and Chrome exports, and tracing off
     yields no spans at all.
   - Regression gate: passes against an identical document, trips on an
     injected slowdown and on data drift, and refuses documents with
     mismatched schema versions.
   - CLI: [hfi serve --json --trace-jsonl F] prints one JSON document
     on stdout and announces the export on stderr. *)

module Obs = Hfi_obs.Obs
module Slo = Hfi_obs.Slo
module Span = Hfi_obs.Span
module Server = Hfi_serving.Server
module Regression = Hfi_experiments.Regression
module Json = Hfi_util.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---- quantile estimation ---- *)

let bounds = [| 1.0; 5.0; 10.0; 25.0 |]

let test_quantile_empty () =
  check_float "empty histogram" 0.0 (Slo.quantile ~bounds ~counts:[| 0; 0; 0; 0; 0 |] 0.99)

let test_quantile_interpolates () =
  (* 10 observations in (1, 5]: rank q*10 interpolates linearly from 1. *)
  let counts = [| 0; 10; 0; 0; 0 |] in
  check_float "median of one bucket" 3.0 (Slo.quantile ~bounds ~counts 0.5);
  check_float "q=1 reaches the upper bound" 5.0 (Slo.quantile ~bounds ~counts 1.0)

let test_quantile_first_bucket_from_zero () =
  (* The first bucket's lower edge is 0, not the first bound. *)
  let counts = [| 4; 0; 0; 0; 0 |] in
  check_float "halfway into [0,1]" 0.5 (Slo.quantile ~bounds ~counts 0.5)

let test_quantile_boundary_rank () =
  (* 5 below, 5 above the 1ms bound: rank 5 lands exactly on the first
     bucket's cumulative edge, so q=0.5 reads the first bucket's top. *)
  let counts = [| 5; 5; 0; 0; 0 |] in
  check_float "rank on bucket edge" 1.0 (Slo.quantile ~bounds ~counts 0.5)

let test_quantile_overflow_clamps () =
  (* All mass in the overflow bucket: every quantile clamps to the last
     finite bound rather than inventing an upper edge. *)
  let counts = [| 0; 0; 0; 0; 7 |] in
  check_float "overflow clamps to last bound" 25.0 (Slo.quantile ~bounds ~counts 0.99)

let test_quantile_validates () =
  Alcotest.check_raises "counts/bounds mismatch"
    (Invalid_argument "Slo.quantile: counts/bounds mismatch") (fun () ->
      ignore (Slo.quantile ~bounds ~counts:[| 0; 0 |] 0.5));
  Alcotest.check_raises "q outside [0,1]"
    (Invalid_argument "Slo.quantile: q outside [0,1]") (fun () ->
      ignore (Slo.quantile ~bounds ~counts:[| 0; 0; 0; 0; 0 |] 1.5))

(* ---- sliding windows ---- *)

(* A monitor with a 100 ms p99 target: 200 ms observations violate. *)
let monitor () = Slo.create ~target:{ Slo.p50_ms = 20.0; p99_ms = 100.0; p999_ms = 500.0 } ()

let the_tenant m =
  match Slo.summary m with
  | [ s ] -> s
  | l -> Alcotest.failf "expected one tenant, got %d" (List.length l)

let test_window_advance_counts_and_violations () =
  let m = monitor () in
  (* Window 0: all fast — meets target when closed. *)
  Slo.observe m ~tenant:3 ~now_s:0.1 10.0;
  Slo.observe m ~tenant:3 ~now_s:0.2 10.0;
  (* Advancing to window 2 closes windows 0 and 1 (1 was empty). *)
  Slo.observe m ~tenant:3 ~now_s:2.5 200.0;
  let s = the_tenant m in
  check_int "two windows closed" 2 s.Slo.windows;
  check_int "fast window meets target" 0 s.Slo.violations;
  (* Flush past window 2 closes the slow window — one violation. *)
  Slo.flush m ~now_s:3.0;
  let s = the_tenant m in
  check_int "three windows closed after flush" 3 s.Slo.windows;
  check_int "slow window violates" 1 s.Slo.violations;
  check_int "all observations counted" 3 s.Slo.count

let test_window_ring_recycles_across_gap () =
  let m = monitor () in
  Slo.observe m ~tenant:0 ~now_s:0.0 200.0;
  (* Jump far past the ring size (8 windows): the slow window must be
     evaluated exactly once, not re-counted as its slot is recycled. *)
  Slo.observe m ~tenant:0 ~now_s:100.0 10.0;
  Slo.flush m ~now_s:101.0;
  let s = the_tenant m in
  check_int "one violation across the gap" 1 s.Slo.violations;
  check_int "every skipped window closed" 101 s.Slo.windows

let test_burn_rate () =
  let m = monitor () in
  (* 2 of 100 over the p99 target = 2% over a 1% budget = 2.0x burn. *)
  for i = 1 to 98 do
    Slo.observe m ~tenant:1 ~now_s:(0.001 *. float_of_int i) 10.0
  done;
  Slo.observe m ~tenant:1 ~now_s:0.099 300.0;
  Slo.observe m ~tenant:1 ~now_s:0.0995 300.0;
  Slo.flush m ~now_s:1.0;
  let s = the_tenant m in
  check_float "2% over on a 1% budget" 2.0 s.Slo.burn_rate;
  let wt, wb = Slo.worst_burn m in
  check_int "worst tenant" 1 wt;
  check_float "worst burn" 2.0 wb

let test_merge_unions_disjoint_tenants () =
  let m1 = monitor () and m2 = monitor () in
  Slo.observe m1 ~tenant:0 ~now_s:0.1 10.0;
  Slo.observe m2 ~tenant:1 ~now_s:0.1 200.0;
  Slo.flush m1 ~now_s:2.0;
  Slo.flush m2 ~now_s:2.0;
  let merged = Slo.merge [ m1; m2 ] in
  let summaries = Slo.summary merged in
  check_int "both tenants present" 2 (List.length summaries);
  check_int "violations survive the merge" 1 (Slo.total_violations merged)

(* ---- span tracing ---- *)

(* Pin both flags spans/SLO read, restoring whatever the environment
   set — the suite must pass under HFI_OBS=1 too. *)
let with_obs ~metrics ~trace f =
  let m0 = !Obs.metrics_enabled and t0 = !Obs.trace_enabled in
  Obs.set_metrics metrics;
  Obs.set_trace trace;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_metrics m0;
      Obs.set_trace t0)
    f

(* A small chaos campaign: enough tenants for several shards, every
   hazard family live, so most span stages appear. *)
let campaign ~jobs =
  let cfg = { (Server.default Server.Chaos) with Server.tenants = 24; requests = 480 } in
  Server.simulate ~jobs cfg ~strategy:Hfi_sfi.Strategy.Hfi

let test_span_merge_deterministic_across_jobs () =
  with_obs ~metrics:false ~trace:true (fun () ->
      let r1 = campaign ~jobs:1 in
      let r4 = campaign ~jobs:4 in
      check_bool "spans recorded" true (r1.Server.spans <> []);
      let groups r = [ ("hfi", r.Server.spans) ] in
      Alcotest.(check string) "JSONL byte-identical for jobs=1 and jobs=4"
        (Span.to_jsonl_string (groups r1))
        (Span.to_jsonl_string (groups r4));
      Alcotest.(check string) "Chrome export byte-identical"
        (Span.to_chrome_string (groups r1))
        (Span.to_chrome_string (groups r4)))

let test_span_stages_covered () =
  with_obs ~metrics:false ~trace:true (fun () ->
      let r = campaign ~jobs:2 in
      let has st = List.exists (fun (s : Span.t) -> s.Span.stage = st) r.Server.spans in
      check_bool "root request spans" true (has Span.Request);
      check_bool "breaker gate spans" true (has Span.Breaker_gate);
      check_bool "admission spans" true (has Span.Admission);
      check_bool "pool spans" true (has Span.Pool);
      check_bool "execute spans" true (has Span.Execute))

let test_spans_off_by_default () =
  with_obs ~metrics:false ~trace:false (fun () ->
      let r = campaign ~jobs:2 in
      check_int "no spans with tracing off" 0 (List.length r.Server.spans);
      check_bool "no slo monitor with metrics off" true (r.Server.slo = None))

(* ---- regression gate ---- *)

let doc ~seconds ~p99 =
  Printf.sprintf
    {|{"schema_version": 6, "mode": "quick",
       "experiments": [{"id": "serve_steady", "status": "ok",
                        "seconds": %.3f, "data": {"hfi.p99_ms": %.3f}}],
       "tiers": [{"tier": "uop", "seconds_per_run": 0.3}]}|}
    seconds p99

let parse s =
  match Json.parse s with
  | Ok d -> d
  | Error e -> Alcotest.failf "test JSON is malformed: %s" e

let gate ?slowdown ~baseline ~current () =
  match
    Regression.compare_docs ?slowdown ~baseline:(parse baseline) ~current:(parse current) ()
  with
  | Ok checks -> checks
  | Error e -> Alcotest.failf "gate refused comparable documents: %s" e

let test_gate_passes_identical () =
  let d = doc ~seconds:1.0 ~p99:50.0 in
  let checks = gate ~baseline:d ~current:d () in
  check_bool "checks ran" true (checks <> []);
  check_int "no regressions" 0 (List.length (Regression.regressions checks))

let test_gate_trips_on_slowdown () =
  let d = doc ~seconds:1.0 ~p99:50.0 in
  let checks = gate ~slowdown:2.0 ~baseline:d ~current:d () in
  let bad = Regression.regressions checks in
  (* Injected slowdown scales host timings only: the experiment wall
     time and the tier timing trip, the deterministic figure does not. *)
  check_int "both timing checks trip" 2 (List.length bad);
  check_bool "data figure unaffected" true
    (List.for_all (fun (c : Regression.check) -> c.Regression.metric <> "hfi.p99_ms") bad)

let test_gate_trips_on_data_drift () =
  let checks =
    gate ~baseline:(doc ~seconds:1.0 ~p99:50.0) ~current:(doc ~seconds:1.0 ~p99:55.0) ()
  in
  let bad = Regression.regressions checks in
  check_int "drifted figure trips" 1 (List.length bad);
  check_bool "it is the data check" true
    (List.exists (fun (c : Regression.check) -> c.Regression.metric = "hfi.p99_ms") bad)

let test_gate_skips_under_floor () =
  (* 10 ms baseline is under the 50 ms floor: too fast to gate. *)
  let d = doc ~seconds:0.01 ~p99:50.0 in
  let checks = gate ~slowdown:10.0 ~baseline:d ~current:d () in
  check_bool "wall-time check skipped" true
    (List.exists
       (fun (c : Regression.check) ->
         c.Regression.subject = "serve_steady" && c.Regression.status = Regression.Skipped)
       checks)

let test_gate_refuses_schema_mismatch () =
  let old = {|{"schema_version": 5, "mode": "quick", "experiments": []}|} in
  match
    Regression.compare_docs ~baseline:(parse old)
      ~current:(parse (doc ~seconds:1.0 ~p99:50.0)) ()
  with
  | Ok _ -> Alcotest.fail "gate accepted mismatched schema versions"
  | Error _ -> ()

(* v7 only added [alloc_mb]: a v6 baseline still gates a v7 run, and a
   v5 one is still refused. *)
let test_gate_compares_v6_with_v7 () =
  let v7 = {|{"schema_version": 7, "mode": "quick", "experiments": []}|} in
  let v6 = doc ~seconds:1.0 ~p99:50.0 in
  (match Regression.compare_docs ~baseline:(parse v6) ~current:(parse v7) () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "gate refused a v6 baseline for a v7 run: %s" e);
  let v5 = {|{"schema_version": 5, "mode": "quick", "experiments": []}|} in
  match Regression.compare_docs ~baseline:(parse v5) ~current:(parse v7) () with
  | Ok _ -> Alcotest.fail "gate accepted a v5 baseline for a v7 run"
  | Error _ -> ()

(* ---- serve --json stdout ---- *)

(* test/dune captures stdout and stderr of [hfi serve --scenario steady
   --quick --json --trace-jsonl F] next to the test executable. *)
let read_beside_test file =
  In_channel.with_open_bin
    (Filename.concat (Filename.dirname Sys.executable_name) file)
    In_channel.input_all

let test_serve_json_stdout_is_one_document () =
  (match Json.parse (read_beside_test "serve_steady_stdout.json") with
  | Ok doc -> check_bool "strategies listed" true (Json.member "strategies" doc <> None)
  | Error e -> Alcotest.failf "serve --json stdout is not one JSON document: %s" e);
  let err = read_beside_test "serve_steady_stderr.txt" in
  let notice = "wrote JSONL span trace: serve_steady_spans.jsonl" in
  check_bool "export announced on stderr" true
    (List.exists (String.starts_with ~prefix:notice) (String.split_on_char '\n' err))

let suite =
  [
    Alcotest.test_case "quantile: empty histogram" `Quick test_quantile_empty;
    Alcotest.test_case "quantile: linear interpolation" `Quick test_quantile_interpolates;
    Alcotest.test_case "quantile: first bucket starts at 0" `Quick
      test_quantile_first_bucket_from_zero;
    Alcotest.test_case "quantile: rank on a bucket boundary" `Quick test_quantile_boundary_rank;
    Alcotest.test_case "quantile: overflow clamps to last bound" `Quick
      test_quantile_overflow_clamps;
    Alcotest.test_case "quantile: argument validation" `Quick test_quantile_validates;
    Alcotest.test_case "windows advance, close and count violations" `Quick
      test_window_advance_counts_and_violations;
    Alcotest.test_case "ring slots recycle across idle gaps" `Quick
      test_window_ring_recycles_across_gap;
    Alcotest.test_case "burn rate against the 1% budget" `Quick test_burn_rate;
    Alcotest.test_case "merge unions disjoint tenants" `Quick test_merge_unions_disjoint_tenants;
    Alcotest.test_case "span exports byte-identical for jobs=1 and jobs=4" `Quick
      test_span_merge_deterministic_across_jobs;
    Alcotest.test_case "span trace covers the request stages" `Quick test_span_stages_covered;
    Alcotest.test_case "no spans or slo monitor while off" `Quick test_spans_off_by_default;
    Alcotest.test_case "gate passes an identical document" `Quick test_gate_passes_identical;
    Alcotest.test_case "gate trips on injected slowdown" `Quick test_gate_trips_on_slowdown;
    Alcotest.test_case "gate trips on data drift" `Quick test_gate_trips_on_data_drift;
    Alcotest.test_case "gate skips timings under the floor" `Quick test_gate_skips_under_floor;
    Alcotest.test_case "gate refuses schema mismatches" `Quick test_gate_refuses_schema_mismatch;
    Alcotest.test_case "gate compares v6 baselines with v7 runs" `Quick
      test_gate_compares_v6_with_v7;
    Alcotest.test_case "serve --json stdout is one JSON document" `Quick
      test_serve_json_stdout_is_one_document;
  ]
