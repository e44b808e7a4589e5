(* The persistent experiment-result cache (lib/experiments/result_cache):
   env-var gating, round-trips through the on-disk JSON including
   escape-worthy characters, key separation, and graceful misses on
   corrupt entries. *)

module RC = Hfi_experiments.Result_cache
module Report = Hfi_experiments.Report

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_cache_env v f =
  Unix.putenv "HFI_RESULT_CACHE" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "HFI_RESULT_CACHE" "") f

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "hfi-cache-test-%d-%d" (Unix.getpid ()) !n)
    in
    d

let sample_report =
  {
    Report.id = "fig3";
    title = "SPEC 2006 \"quoted\"\ttitle";
    paper_claim = "line one\nline two \\ backslash";
    table = "col\tcol\nrow\x01ctrl";
    verdict = "ok";
    data = [ ("p99_ms", 12.5); ("big", 123456789.0); ("third", 1.0 /. 3.0) ];
  }

let test_disabled_by_default () =
  with_cache_env "" (fun () ->
      check_bool "unset/empty disables" false (RC.enabled ());
      RC.store ~id:"x" ~quick:false ~seconds:1.0 sample_report;
      check_bool "find misses when disabled" true (RC.find ~id:"x" ~quick:false = None));
  with_cache_env "0" (fun () -> check_bool "\"0\" disables" false (RC.enabled ()))

let test_round_trip () =
  let dir = fresh_dir () in
  with_cache_env dir (fun () ->
      check_bool "dir enables" true (RC.enabled ());
      check_bool "cold miss" true (RC.find ~id:"fig3" ~quick:true = None);
      RC.store ~id:"fig3" ~quick:true ~seconds:1.25 sample_report;
      match RC.find ~id:"fig3" ~quick:true with
      | None -> Alcotest.fail "expected a hit after store"
      | Some (r, seconds) ->
        check_string "id" sample_report.Report.id r.Report.id;
        check_string "title" sample_report.Report.title r.Report.title;
        check_string "paper_claim" sample_report.Report.paper_claim r.Report.paper_claim;
        check_string "table" sample_report.Report.table r.Report.table;
        check_string "verdict" sample_report.Report.verdict r.Report.verdict;
        (* Figures come back bit for bit, in order. *)
        let bits = List.map (fun (k, v) -> (k, Int64.bits_of_float v)) in
        Alcotest.(check (list (pair string int64)))
          "data" (bits sample_report.Report.data) (bits r.Report.data);
        Alcotest.(check (float 1e-9)) "uncached seconds" 1.25 seconds)

let test_quick_and_full_are_distinct () =
  let dir = fresh_dir () in
  with_cache_env dir (fun () ->
      RC.store ~id:"fig3" ~quick:true ~seconds:0.5 sample_report;
      check_bool "full missed" true (RC.find ~id:"fig3" ~quick:false = None);
      check_bool "other id missed" true (RC.find ~id:"fig2" ~quick:true = None);
      check_bool "quick hit" true (RC.find ~id:"fig3" ~quick:true <> None))

let test_corrupt_entry_is_a_miss () =
  let dir = fresh_dir () in
  with_cache_env dir (fun () ->
      RC.store ~id:"fig3" ~quick:false ~seconds:0.5 sample_report;
      let path = Hfi_util.Store.path ~dir (RC.key ~id:"fig3" ~quick:false) in
      let oc = open_out path in
      output_string oc "{\"id\": [not flat";
      close_out oc;
      check_bool "corrupt entry misses, not crashes" true
        (RC.find ~id:"fig3" ~quick:false = None);
      (* A missing field is also a miss. *)
      let oc = open_out path in
      output_string oc "{\"id\":\"fig3\",\"uncached_seconds\":1}";
      close_out oc;
      check_bool "incomplete entry misses" true (RC.find ~id:"fig3" ~quick:false = None);
      (* A complete entry in the version-4 flat layout is a miss even
         at the current address. *)
      let oc = open_out path in
      output_string oc
        "{\"schema_version\":4,\"id\":\"fig3\",\"title\":\"t\",\"paper_claim\":\"c\",\"table\":\"x\",\"verdict\":\"ok\",\"data:p99_ms\":12.5,\"uncached_seconds\":0.5}\n";
      close_out oc;
      check_bool "v4 entry misses" true (RC.find ~id:"fig3" ~quick:false = None))

(* v3 keys carry the runtime configuration: flipping the optimizer
   switch or the reg-pressure model must land on a different entry, so a
   report measured under one configuration is never served under
   another. *)
let test_key_tracks_configuration () =
  let base = RC.key ~id:"fig3" ~quick:true in
  let flipped =
    Hfi_opt.Driver.with_enabled
      (not !Hfi_opt.Driver.enabled)
      (fun () -> RC.key ~id:"fig3" ~quick:true)
  in
  check_bool "opt flag separates keys" true (base <> flipped);
  let saved = try Sys.getenv "HFI_REGPRESSURE_MODEL" with Not_found -> "" in
  Unix.putenv "HFI_REGPRESSURE_MODEL" "reserve";
  let reserve =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "HFI_REGPRESSURE_MODEL" saved)
      (fun () -> RC.key ~id:"fig3" ~quick:true)
  in
  check_bool "reg-pressure model separates keys" true (base <> reserve)

let test_registry_uses_cache () =
  let dir = fresh_dir () in
  with_cache_env dir (fun () ->
      let runs = ref 0 in
      let entry =
        {
          Hfi_experiments.Registry.id = "synthetic-cache-test";
          description = "test";
          run =
            (fun ?quick:_ () ->
              incr runs;
              { sample_report with Report.id = "synthetic-cache-test" });
        }
      in
      let o1 = Hfi_experiments.Registry.run_entry ~quick:true entry in
      check_bool "first run is a miss" false o1.Hfi_experiments.Registry.cached;
      let o2 = Hfi_experiments.Registry.run_entry ~quick:true entry in
      check_bool "second run is a hit" true o2.Hfi_experiments.Registry.cached;
      Alcotest.(check int) "experiment ran once" 1 !runs;
      check_bool "hit carries the report" true
        (o2.Hfi_experiments.Registry.result = o1.Hfi_experiments.Registry.result);
      let o3 = Hfi_experiments.Registry.run_entry ~quick:true ~use_cache:false entry in
      check_bool "use_cache:false bypasses" false o3.Hfi_experiments.Registry.cached;
      Alcotest.(check int) "bypass re-ran" 2 !runs)

let suite =
  [
    Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
    Alcotest.test_case "store/find round trip" `Quick test_round_trip;
    Alcotest.test_case "keys separate id and mode" `Quick test_quick_and_full_are_distinct;
    Alcotest.test_case "corrupt entries are misses" `Quick test_corrupt_entry_is_a_miss;
    Alcotest.test_case "keys track opt/reg-pressure configuration" `Quick
      test_key_tracks_configuration;
    Alcotest.test_case "registry consults the cache" `Quick test_registry_uses_cache;
  ]
