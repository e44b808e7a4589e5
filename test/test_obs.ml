(* Observability layer: the hard invariants.

   - Off-is-identical: with every HFI_OBS subsystem forced on, the
     golden fig3 modeled-cycle pins still match bit-exactly (attribution
     and tracing never feed back into timing).
   - Determinism: two traced runs of the same seeded program emit
     identical event streams.
   - Attribution completeness: the profiler's bucket sum reconstructs
     the engine's cycle total (up to float summation order).
   - The trace ring wraps rather than grows, and the Chrome export is a
     loadable trace_event document. *)

module Obs = Hfi_obs.Obs
module Metrics = Hfi_obs.Metrics
module Trace = Hfi_obs.Trace
module Profile = Hfi_obs.Profile
module Span = Hfi_obs.Span

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Flip the three flags for the duration of [f], restoring whatever the
   environment had set (tests must pass under HFI_OBS=1 too). *)
let with_obs ~metrics ~trace ~profile f =
  let m0 = !Obs.metrics_enabled and t0 = !Obs.trace_enabled and p0 = !Obs.profile_enabled in
  Obs.set_metrics metrics;
  Obs.set_trace trace;
  Obs.set_profile profile;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_metrics m0;
      Obs.set_trace t0;
      Obs.set_profile p0)
    f

let run_gimli () =
  let w = Hfi_workloads.Sightglass.find "gimli" in
  let inst = Hfi_wasm.Instance.instantiate ~strategy:Hfi_sfi.Strategy.Hfi w in
  Hfi_wasm.Instance.run_cycle inst

(* Golden pins unchanged with all three subsystems on: observability is
   a pure read of the simulation. *)
let test_off_is_identical () =
  with_obs ~metrics:true ~trace:true ~profile:true (fun () ->
      Trace.clear ();
      let actual = Test_golden.compute () in
      List.iter2
        (fun (gb, gs, gc) (ab, as_, ac) ->
          Alcotest.(check string) "bench order" gb ab;
          Alcotest.(check string) "scheme order" gs as_;
          Alcotest.(check (float 0.0)) (Printf.sprintf "%s/%s cycles" gb gs) gc ac)
        Test_golden.golden actual;
      Trace.clear ())

let test_trace_determinism () =
  with_obs ~metrics:false ~trace:true ~profile:false (fun () ->
      Trace.clear ();
      let r1 = run_gimli () in
      let events1 = Trace.events () in
      Trace.clear ();
      let r2 = run_gimli () in
      let events2 = Trace.events () in
      Trace.clear ();
      Alcotest.(check (float 0.0)) "same cycles" r1.Hfi_pipeline.Cycle_engine.cycles
        r2.Hfi_pipeline.Cycle_engine.cycles;
      check_bool "streams non-empty" true (events1 <> []);
      check_bool "identical event streams" true (events1 = events2))

let test_trace_covers_event_kinds () =
  with_obs ~metrics:false ~trace:true ~profile:false (fun () ->
      Trace.clear ();
      ignore (run_gimli ());
      let events = Trace.events () in
      Trace.clear ();
      let has k = List.exists (fun (e : Trace.event) -> e.Trace.kind = k) events in
      check_bool "commit events" true (has Trace.Commit);
      check_bool "squash events" true (has Trace.Squash);
      check_bool "drain events" true (has Trace.Drain);
      check_bool "transition events" true (has Trace.Transition))

let test_profile_sums_to_cycles () =
  with_obs ~metrics:false ~trace:false ~profile:true (fun () ->
      Profile.(reset global);
      let r = run_gimli () in
      let total = Profile.(total global) in
      let cycles = r.Hfi_pipeline.Cycle_engine.cycles in
      Profile.(reset global);
      check_bool "bucket sum reconstructs the clock"
        true
        (Float.abs (total -. cycles) <= 1e-6 *. Float.max 1.0 cycles);
      check_bool "issue bucket populated" true (total > 0.0))

let test_profile_off_accumulates_nothing () =
  with_obs ~metrics:false ~trace:false ~profile:false (fun () ->
      Profile.(reset global);
      ignore (run_gimli ());
      Alcotest.(check (float 0.0)) "no attribution while off" 0.0 Profile.(total global))

let test_chrome_export_shape () =
  with_obs ~metrics:false ~trace:true ~profile:false (fun () ->
      Trace.clear ();
      Trace.emit Trace.Commit ~ts:1.0 ~a:7;
      Trace.emit Trace.Squash ~ts:2.0 ~dur:14.0 ~a:3;
      Trace.emit Trace.Transition ~ts:3.0 ~a:0;
      let s = Trace.to_chrome_string () in
      Trace.clear ();
      let contains sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check_bool "traceEvents array" true (contains "\"traceEvents\"");
      check_bool "instant commit" true (contains "\"ph\":\"i\"");
      check_bool "duration squash" true (contains "\"ph\":\"X\"");
      check_bool "transition named" true (contains "hfi_enter"))

let test_ring_wraps () =
  with_obs ~metrics:false ~trace:true ~profile:false (fun () ->
      Trace.set_capacity 8;
      for i = 1 to 20 do
        Trace.emit Trace.Commit ~ts:(float_of_int i) ~a:i
      done;
      let events = Trace.events () in
      check_int "capacity bounds retention" 8 (List.length events);
      check_int "overflow counted" 12 (Trace.dropped ());
      (match events with
      | first :: _ -> Alcotest.(check (float 0.0)) "oldest retained is ts=13" 13.0 first.Trace.ts
      | [] -> Alcotest.fail "ring empty");
      (* restore the default ring for any later traced test *)
      Trace.set_capacity 65536)

let test_emit_noop_when_off () =
  with_obs ~metrics:false ~trace:false ~profile:false (fun () ->
      Trace.clear ();
      Trace.emit Trace.Commit ~ts:1.0;
      check_int "nothing recorded" 0 (Trace.length ()))

let test_metrics_counters_and_delta () =
  with_obs ~metrics:true ~trace:false ~profile:false (fun () ->
      let c = Metrics.counter "test_obs_counter" ~labels:[ ("case", "delta") ] in
      let g = Metrics.gauge "test_obs_gauge" in
      let before = Metrics.snapshot () in
      Metrics.inc c;
      Metrics.add c 4;
      Metrics.set_gauge g 2.5;
      let d = Metrics.delta (Metrics.snapshot ()) before in
      Alcotest.(check (float 0.0)) "counter delta" 5.0
        (List.assoc "test_obs_counter{case=\"delta\"}" d);
      check_bool "gauge present" true (List.mem_assoc "test_obs_gauge" d);
      check_int "counter value" 5 (Metrics.value c))

let test_metrics_noop_when_off () =
  with_obs ~metrics:false ~trace:false ~profile:false (fun () ->
      let c = Metrics.counter "test_obs_counter_off" in
      Metrics.inc c;
      Metrics.add c 10;
      check_int "no increments while off" 0 (Metrics.value c))

(* The exports byte for byte on a small fixed input: every event kind,
   instants and durations, several span groups, and strings that need
   escaping. *)
let test_exports_pinned () =
  let md5 s = Digest.to_hex (Digest.string s) in
  with_obs ~metrics:false ~trace:true ~profile:false (fun () ->
      Trace.clear ();
      Trace.emit Trace.Commit ~ts:1.0 ~a:7;
      Trace.emit Trace.Squash ~ts:2.0 ~dur:14.0 ~a:3;
      Trace.emit Trace.Drain ~ts:3.5 ~dur:2.25 ~b:1;
      Trace.emit Trace.Fault ~ts:4.0 ~a:2;
      Trace.emit Trace.Transition ~ts:5.0 ~a:0;
      Trace.emit Trace.Transition ~ts:6.0 ~dur:1.5 ~a:1;
      Trace.emit Trace.Syscall ~ts:7.125 ~a:60;
      let chrome = Trace.to_chrome_string () in
      Trace.clear ();
      Alcotest.(check string) "Trace.to_chrome_string" "a1a7ad2afca7d90fe982815399971282" (md5 chrome));
  let sp req tenant stage start_s dur_s outcome =
    { Span.req; tenant; stage; start_s; dur_s; outcome }
  in
  let groups =
    [
      ("hfi", [ sp 0 1 Span.Request 0.001 0.0025 "ok"; sp 0 1 Span.Admission 0.001 0.0 "hit" ]);
      ( "bounds \"q\\",
        [ sp 1 2 Span.Execute 0.5 0.000125 "trap \"oob\"\\"; sp 1 2 Span.Backoff_wait 0.75 0.0 "" ] );
    ]
  in
  Alcotest.(check string) "Span.to_chrome_string" "d8febd6a91055db34c551923673f3aac"
    (md5 (Span.to_chrome_string groups));
  Alcotest.(check string) "Span.to_jsonl_string" "421a4fcd0434931abeb951eef6ecfd60"
    (md5 (Span.to_jsonl_string groups))

let suite =
  [
    Alcotest.test_case "golden pins unchanged with observability on" `Quick test_off_is_identical;
    Alcotest.test_case "traced runs are deterministic" `Quick test_trace_determinism;
    Alcotest.test_case "trace covers commit/squash/drain/transition" `Quick
      test_trace_covers_event_kinds;
    Alcotest.test_case "profile buckets sum to total cycles" `Quick test_profile_sums_to_cycles;
    Alcotest.test_case "profile off accumulates nothing" `Quick test_profile_off_accumulates_nothing;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
    Alcotest.test_case "trace ring wraps at capacity" `Quick test_ring_wraps;
    Alcotest.test_case "emit is a no-op while off" `Quick test_emit_noop_when_off;
    Alcotest.test_case "metrics counters, gauges and deltas" `Quick test_metrics_counters_and_delta;
    Alcotest.test_case "metrics updates are no-ops while off" `Quick test_metrics_noop_when_off;
    Alcotest.test_case "Chrome/JSONL exports pinned byte for byte" `Quick test_exports_pinned;
  ]
