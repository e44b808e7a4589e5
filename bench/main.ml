(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (one report per table/figure, full-size workloads), after a
   Bechamel microbenchmark section timing the HFI primitives each
   experiment leans on — one Bechamel Test.make per table/figure, probing
   that experiment's hot operation in the simulator.

   Output is plain text; run `dune exec bench/main.exe`. Pass experiment
   ids (e.g. `fig3 table1`) to run a subset; pass `--quick` for reduced
   workload sizes; `--no-micro` skips the Bechamel section;
   `--micro-only` runs just that section; `--json FILE` additionally
   writes the results as JSON. Set HFI_JOBS=n to fan independent
   experiments (and the fig2/fig3 inner matrices) across n domains —
   with the default HFI_JOBS=1 the output is byte-identical to the
   historical sequential driver. Set HFI_RESULT_CACHE=1 to serve
   unchanged experiments from the persistent result cache
   (_build/.hfi-cache/); `--no-cache` bypasses it for one run.

   `--compare BASELINE.json` diffs the run against a committed bench
   JSON (wall times within a tolerance factor, deterministic key
   figures within a tight band, see Hfi_experiments.Regression) and
   exits 4 on regression; `--tolerance F` widens the timing factor
   (e.g. CI comparing across machines), and `--inject-slowdown F`
   artificially multiplies this run's timings so the gate itself can be
   tested end-to-end. *)

open Bechamel
open Toolkit
module Registry = Hfi_experiments.Registry
module Report = Hfi_experiments.Report
module Pool = Hfi_util.Pool
module Fault = Hfi_util.Fault

(* One microbenchmark per table/figure: the primitive operation whose
   cost that experiment's result turns on. *)
let micro_tests () =
  let hfi = Hfi_core.Hfi.create () in
  ignore
    (Hfi_core.Hfi.exec_set_region hfi ~slot:2
       (Hfi_isa.Hfi_iface.Implicit_data
          { base_prefix = 0x100000; lsb_mask = 0xfffff; permission_read = true; permission_write = true }));
  ignore
    (Hfi_core.Hfi.exec_set_region hfi ~slot:6
       (Hfi_isa.Hfi_iface.Explicit_data
          { base_address = 0x2_0000_0000; bound = 1 lsl 20; permission_read = true; permission_write = true; is_large_region = true }));
  let cache = Hfi_memory.Cache.create Hfi_memory.Cache.skylake_l1d in
  let mem = Hfi_memory.Addr_space.create () in
  Hfi_memory.Addr_space.mmap mem ~addr:0x10000 ~len:65536 Hfi_memory.Perm.rw;
  let kernel = Hfi_memory.Kernel.create mem in
  let spec = Hfi_isa.Hfi_iface.default_hybrid_spec in
  (* Make one page resident so the load micro measures the fast path,
     not first-touch allocation. *)
  Hfi_memory.Addr_space.store mem ~addr:0x12000 ~bytes:8 0x1122334455667788;
  [
    (* fig2/fig3: the per-access checks HFI adds to loads and hmovs. *)
    Test.make ~name:"fig2+fig3: implicit region check"
      (Staged.stage (fun () ->
           ignore (Hfi_core.Hfi.check_data_access hfi ~addr:0x100040 ~bytes:8 `Read)));
    Test.make ~name:"fig2+fig3: hmov bounds check"
      (Staged.stage (fun () ->
           ignore
             (Hfi_core.Hfi.check_hmov hfi ~region:0 ~index_value:128 ~scale:8 ~disp:16 ~bytes:8
                ~write:false)));
    (* heap-growth: one region-register update. *)
    Test.make ~name:"heap-growth: hfi_set_region"
      (Staged.stage (fun () ->
           ignore
             (Hfi_core.Hfi.exec_set_region hfi ~slot:6
                (Hfi_isa.Hfi_iface.Explicit_data
                   { base_address = 0x2_0000_0000; bound = 1 lsl 21; permission_read = true; permission_write = true; is_large_region = true }))));
    (* fig4/font/table1: a sandbox transition pair. *)
    Test.make ~name:"fig4+table1: hfi_enter/hfi_exit pair"
      (Staged.stage (fun () ->
           ignore (Hfi_core.Hfi.exec_enter hfi spec);
           ignore (Hfi_core.Hfi.exec_exit hfi)));
    (* teardown/scaling: the madvise cost path. *)
    Test.make ~name:"teardown: madvise accounting"
      (Staged.stage (fun () -> Hfi_memory.Kernel.sys_madvise_dontneed kernel ~addr:0x10000 ~len:65536));
    (* syscalls/fig5: kernel dispatch. *)
    Test.make ~name:"syscalls+fig5: kernel getpid dispatch"
      (Staged.stage (fun () -> ignore (Hfi_memory.Kernel.sys_getpid kernel)));
    (* fig7: the flush+reload probe primitive. *)
    Test.make ~name:"fig7: d-cache probe"
      (Staged.stage (fun () -> ignore (Hfi_memory.Cache.probe cache 0x4000)));
    (* memory fast path: an 8-byte load served by the one-entry VMA memo
       and page cache (the per-instruction cost of every engine). *)
    Test.make ~name:"memory: 8B resident load fast path"
      (Staged.stage (fun () -> ignore (Hfi_memory.Addr_space.load mem ~addr:0x12000 ~bytes:8)));
    (* pool: cost of fanning trivial items across the configured number
       of domains — the fixed overhead HFI_JOBS adds per batch. *)
    Test.make ~name:"pool: fan-out overhead (8 items)"
      (Staged.stage (fun () -> ignore (Pool.map (fun x -> x + 1) [ 1; 2; 3; 4; 5; 6; 7; 8 ])));
    (* cross-cutting: one full Sightglass kernel on the fast engine. *)
    Test.make ~name:"engine: gimli end-to-end (fast engine)"
      (Staged.stage (fun () ->
           let w = Hfi_workloads.Sightglass.find "gimli" in
           let i = Hfi_wasm.Instance.instantiate ~strategy:Hfi_sfi.Strategy.Hfi w in
           ignore (Hfi_wasm.Instance.run_fast i)));
  ]

(* Per-tier timings: the same Sightglass kernel end-to-end (fast engine)
   under the µop fast path and the AST reference, so every BENCH_*.json
   records not just which path produced it but what the other would
   have cost. One warm-up round per tier charges the decode cache
   exactly as a real campaign's first instantiation would. *)
module Machine = Hfi_pipeline.Machine

let tier_flags = [ ("ast", false); ("uop", true) ]

let tier_timings () =
  (* gimli: the kernel every earlier baseline timed, so tier figures
     stay comparable across BENCH_*.json files. *)
  let w = Hfi_workloads.Sightglass.find "gimli" in
  let reps = 10 in
  let time_once () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      let i = Hfi_wasm.Instance.instantiate ~strategy:Hfi_sfi.Strategy.Hfi w in
      ignore (Hfi_wasm.Instance.run_fast i)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let saved_dispatch = !Machine.decode_dispatch in
  Fun.protect
    ~finally:(fun () -> Machine.decode_dispatch := saved_dispatch)
    (fun () ->
      List.map
        (fun (name, dispatch) ->
          Machine.decode_dispatch := dispatch;
          ignore (time_once ());
          (* Best of three: a single round is at the mercy of the host
             scheduler and major-GC slices on shared runners. *)
          let best = ref (time_once ()) in
          for _ = 1 to 2 do
            let t = time_once () in
            if t < !best then best := t
          done;
          (name, !best))
        tier_flags)

let print_tiers tiers =
  print_endline "== dispatch tiers (gimli end-to-end, fast engine) ==";
  List.iter
    (fun (name, s) ->
      Printf.printf "  %-8s %10.1f us/run%s\n" name (s *. 1e6)
        (if name = Machine.dispatch_tier () then "   <- selected" else ""))
    tiers;
  print_newline ()

(* Prints each estimate as it lands and returns them for the JSON dump. *)
let run_micro () =
  print_endline "== Bechamel microbenchmarks (host-time of simulator primitives) ==";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            estimates := (name, Some est) :: !estimates;
            Printf.printf "  %-46s %10.1f ns/op\n%!" name est
          | _ ->
            estimates := (name, None) :: !estimates;
            Printf.printf "  %-46s (no estimate)\n%!" name)
        results)
    (micro_tests ());
  print_newline ();
  List.rev !estimates

module Json = Hfi_util.Json

(* Cache hits, and the wall time the run would have taken uncached. *)
let cache_totals outcomes =
  ( List.length (List.filter (fun o -> o.Registry.cached) outcomes),
    List.fold_left
      (fun acc (o : Registry.outcome) ->
        acc +. Option.value o.Registry.uncached_seconds ~default:o.Registry.seconds)
      0.0 outcomes )

let json_doc ~mode ~jobs ~micro ~tiers ~outcomes ~total_seconds ~cache_on =
  let micro_json =
    Json.arr
      (List.map
         (fun (name, est) ->
           Json.obj
             [
               ("name", Json.str name);
               ("ns_per_op", match est with Some e -> Json.num e | None -> "null");
             ])
         micro)
  in
  let exp_json =
    Json.arr
      (List.map
         (fun (o : Registry.outcome) ->
           let common =
             [
               ("seconds", Json.num o.Registry.seconds);
               ("wall_s", Json.num o.Registry.seconds);
               ("attempts", string_of_int o.Registry.attempts);
               ("retried", if o.Registry.retried then "true" else "false");
               ("timed_out", if o.Registry.timed_out then "true" else "false");
               ("cached", if o.Registry.cached then "true" else "false");
             ]
             @ (match o.Registry.uncached_seconds with
               | Some s -> [ ("uncached_seconds", Json.num s) ]
               | None -> [])
             @
             (* Per-experiment metric deltas (HFI_OBS=metrics); absent
                entirely when observability is off so the schema without
                it stays byte-stable. *)
             match o.Registry.metrics with
             | [] -> []
             | ms ->
               [ ("metrics", Json.obj (List.map (fun (k, v) -> (k, Json.num v)) ms)) ]
           in
           match o.Registry.result with
           | Ok r ->
             Json.obj
               ([
                  ("id", Json.str r.Report.id);
                  ("status", Json.str "ok");
                  ("title", Json.str r.Report.title);
                  ("paper_claim", Json.str r.Report.paper_claim);
                  ("verdict", Json.str r.Report.verdict);
                  ("table", Json.str r.Report.table);
                ]
               (* Machine-readable key figures (e.g. serving tail
                  latencies) — what the --compare regression gate diffs
                  besides wall time. Absent when the experiment has
                  none, keeping older-shaped entries byte-stable. *)
               @ (match r.Report.data with
                 | [] -> []
                 | data ->
                   [ ("data", Json.obj (List.map (fun (k, v) -> (k, Json.num v)) data)) ])
               @ common)
           | Error f ->
             (* Partial report: the failed entry is named, with its
                structured fault, and every other experiment's result
                is still present. *)
             Json.obj
               ([
                  ("id", Json.str o.Registry.entry.Registry.id);
                  ("status", Json.str "failed");
                  ("fault", Fault.to_json f);
                ]
               @ common))
         outcomes)
  in
  let hits, uncached_total = cache_totals outcomes in
  let cache_json =
    Json.obj
      [
        ("enabled", if cache_on then "true" else "false");
        ("hits", string_of_int hits);
        ("misses", string_of_int (List.length outcomes - hits));
        ("uncached_total_s", Json.num uncached_total);
        ( "speedup_vs_uncached",
          if total_seconds > 0.0 then Json.num (uncached_total /. total_seconds) else "null" );
      ]
  in
  let tiers_json =
    Json.arr
      (List.map
         (fun (name, s) ->
           Json.obj [ ("tier", Json.str name); ("seconds_per_run", Json.num s) ])
         tiers)
  in
  let doc =
    Json.obj
      [
        (* Version of this JSON layout; bump alongside
           Result_cache.schema_version when fields change shape. v5
           added [wasm_opt]; v6 added per-experiment [data] figures and
           made cached entries report the cache-probe wall time
           honestly instead of 0. *)
        ("schema_version", string_of_int 6);
        ("mode", Json.str mode);
        ("jobs", string_of_int jobs);
        (* The optimizing-middle-end configuration these numbers were
           produced under: opt-backend/opt-passes (and anything compiled
           through Instance without a pinned lowering) depend on it. *)
        ( "wasm_opt",
          Json.obj
            [
              ("enabled", if !Hfi_opt.Driver.enabled then "true" else "false");
              ( "regpressure_model",
                Json.str
                  (match Hfi_experiments.Register_pressure.model () with
                  | Hfi_experiments.Register_pressure.Allocator -> "allocator"
                  | Hfi_experiments.Register_pressure.Reserve -> "reserve") );
            ] );
        (* Which execution tier produced the numbers below, plus the
           measured cost of each tier on a reference kernel — makes
           BENCH_*.json trajectories self-describing across PRs. *)
        ("dispatch_tier", Json.str (Machine.dispatch_tier ()));
        ("tiers", tiers_json);
        ("micro", micro_json);
        ("experiments", exp_json);
        ("cache", cache_json);
        ("total_seconds", Json.num total_seconds);
      ]
  in
  doc

let write_json ~file ~doc =
  match Hfi_util.Store.write file (doc ^ "\n") with
  | Ok () -> ()
  | Error e ->
    prerr_endline ("bench: " ^ e);
    exit 2

(* --compare BASELINE.json: diff this run against a committed baseline
   and exit 4 on regression. The comparison reads the same document we
   would write with --json, parsed back through the library reader, so
   the gate exercises exactly the committed artifact format. *)
let run_gate ~baseline_file ~doc ~tolerance ~slowdown =
  let module Regression = Hfi_experiments.Regression in
  match Json.parse_file baseline_file with
  | Error e ->
    Printf.eprintf "bench --compare: cannot read baseline %s: %s\n" baseline_file e;
    exit 4
  | Ok baseline -> begin
    match Json.parse doc with
    | Error e ->
      Printf.eprintf "bench --compare: internal error parsing own output: %s\n" e;
      exit 4
    | Ok current -> begin
      let tol =
        match tolerance with
        | None -> Regression.default_tolerance
        | Some f -> { Regression.default_tolerance with Regression.timing_factor = f }
      in
      Printf.printf "\n== regression gate (baseline %s%s) ==\n" baseline_file
        (if slowdown <> 1.0 then Printf.sprintf ", injected slowdown %.2fx" slowdown
         else "");
      match Regression.compare_docs ~tol ~slowdown ~baseline ~current () with
      | Error e ->
        Printf.eprintf "bench --compare: %s\n" e;
        exit 4
      | Ok checks ->
        print_string (Regression.render checks);
        Regression.regressions checks <> []
    end
  end

let () =
  let json_file = ref None in
  let quick = ref false in
  let no_micro = ref false in
  let micro_only = ref false in
  let no_cache = ref false in
  let inject_failure = ref None in
  let compare_file = ref None in
  let tolerance = ref None in
  let inject_slowdown = ref 1.0 in
  let ids = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--no-cache" :: rest ->
      no_cache := true;
      parse rest
    | "--no-micro" :: rest ->
      no_micro := true;
      parse rest
    | "--micro-only" :: rest ->
      micro_only := true;
      parse rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse rest
    | [ "--json" ] -> failwith "--json requires a file argument"
    | "--compare" :: file :: rest ->
      compare_file := Some file;
      parse rest
    | [ "--compare" ] -> failwith "--compare requires a baseline JSON file"
    | "--tolerance" :: f :: rest ->
      (match float_of_string_opt f with
      | Some t when t >= 1.0 -> tolerance := Some t
      | _ -> failwith "--tolerance requires a factor >= 1.0");
      parse rest
    | [ "--tolerance" ] -> failwith "--tolerance requires a factor"
    | "--inject-slowdown" :: f :: rest ->
      (match float_of_string_opt f with
      | Some s when s > 0.0 -> inject_slowdown := s
      | _ -> failwith "--inject-slowdown requires a positive factor");
      parse rest
    | [ "--inject-slowdown" ] -> failwith "--inject-slowdown requires a factor"
    | "--inject-failure" :: id :: rest ->
      inject_failure := Some id;
      parse rest
    | [ "--inject-failure" ] -> failwith "--inject-failure requires an experiment id"
    | a :: rest ->
      if String.length a > 1 && a.[0] = '-' then failwith ("unknown option " ^ a);
      ids := a :: !ids;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let quick = !quick in
  let ids = if !ids = [] then Registry.ids () else List.rev !ids in
  (* --inject-failure ID: force that experiment to raise, demonstrating
     the crash-containment path end-to-end (partial report, exit 3). *)
  let sabotage (e : Registry.entry) =
    if !inject_failure = Some e.Registry.id then
      {
        e with
        Registry.run = (fun ?quick:_ () -> failwith "injected failure (--inject-failure)");
      }
    else e
  in
  let jobs = Pool.default_jobs () in
  (* The result cache only ever stores clean successes, so a sabotaged
     run must bypass it both ways: a stale hit would mask the injected
     failure. *)
  let use_cache = (not !no_cache) && !inject_failure = None in
  let cache_on = use_cache && Hfi_experiments.Result_cache.enabled () in
  let micro = if !no_micro then [] else run_micro () in
  let tiers = tier_timings () in
  print_tiers tiers;
  if !micro_only then begin
    match !json_file with
    | Some file ->
      write_json ~file
        ~doc:
          (json_doc ~mode:(if quick then "quick" else "full") ~jobs ~micro ~tiers
             ~outcomes:[] ~total_seconds:0.0 ~cache_on)
    | None -> ()
  end
  else begin
    print_endline "== Paper reproduction: every table and figure of the evaluation ==";
    Printf.printf "(mode: %s)\n\n" (if quick then "quick" else "full");
    let t0 = Unix.gettimeofday () in
    let collected = ref [] in
    let emit (o : Registry.outcome) =
      (match o.Registry.result with
      | Ok r -> Report.print r
      | Error f ->
        Printf.printf "== %s: FAILED ==\nfault: %s\n" o.Registry.entry.Registry.id
          (Fault.to_string f));
      collected := o :: !collected;
      if o.Registry.cached then
        Printf.printf "[cached; uncached run took %.1fs]\n\n%!"
          (Option.value o.Registry.uncached_seconds ~default:0.0)
      else Printf.printf "[%.1fs]\n\n%!" o.Registry.seconds
    in
    if jobs <= 1 then
      (* Sequential streaming loop: byte-identical output to the
         historical driver while every experiment succeeds (and the
         result cache is off); a crashing experiment prints a FAILED
         block and the loop continues. [retries:0] keeps the historical
         run-once semantics of this path. *)
      List.iter
        (fun id ->
          match Registry.find id with
          | None ->
            Printf.printf "unknown experiment id %S (try: %s)\n" id
              (String.concat " " (Registry.ids ()))
          | Some e ->
            emit
              (Registry.run_entry ~quick ~clock:Unix.gettimeofday ~retries:0 ~use_cache
                 (sabotage e)))
        ids
    else begin
      (* Fan the known experiments across domains, then print in the
         requested order — same lines as the sequential path, only the
         bracketed per-experiment seconds (and interleaving of any
         "unknown id" lines) can differ. *)
      let entries = List.map sabotage (List.filter_map Registry.find ids) in
      let results = Registry.run_many ~jobs ~quick ~clock:Unix.gettimeofday ~use_cache entries in
      let remaining = ref results in
      List.iter
        (fun id ->
          match Registry.find id with
          | None ->
            Printf.printf "unknown experiment id %S (try: %s)\n" id
              (String.concat " " (Registry.ids ()))
          | Some _ -> begin
            match !remaining with
            | o :: rest ->
              remaining := rest;
              emit o
            | [] -> assert false (* one outcome per known id, in order *)
          end)
        ids
    end;
    let total = Unix.gettimeofday () -. t0 in
    Printf.printf "total: %.1fs\n" total;
    let outcomes = List.rev !collected in
    if cache_on then begin
      let hits, uncached_total = cache_totals outcomes in
      Printf.printf "result cache: %d hit(s), %d miss(es); wall %.1fs vs %.1fs uncached%s\n"
        hits
        (List.length outcomes - hits)
        total uncached_total
        (if total > 0.0 && hits > 0 then Printf.sprintf " (%.1fx)" (uncached_total /. total)
         else "")
    end;
    if Hfi_obs.Obs.metrics_on () then begin
      print_endline "\n== metrics (HFI_OBS) ==";
      print_string (Hfi_obs.Metrics.to_text ())
    end;
    let failures = List.filter (fun o -> Result.is_error o.Registry.result) outcomes in
    let doc =
      json_doc ~mode:(if quick then "quick" else "full") ~jobs ~micro ~tiers ~outcomes
        ~total_seconds:total ~cache_on
    in
    (match !json_file with
    | Some file -> write_json ~file ~doc
    | None -> ());
    let regressed =
      match !compare_file with
      | Some baseline_file ->
        run_gate ~baseline_file ~doc ~tolerance:!tolerance ~slowdown:!inject_slowdown
      | None -> false
    in
    if failures <> [] then begin
      Printf.eprintf "%d experiment(s) failed: %s\n" (List.length failures)
        (String.concat " " (List.map (fun o -> o.Registry.entry.Registry.id) failures));
      exit 3
    end;
    if regressed then begin
      Printf.eprintf "regression gate failed against %s\n"
        (Option.value ~default:"" !compare_file);
      exit 4
    end
  end
