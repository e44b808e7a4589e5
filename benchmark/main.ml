(* The repository benchmark (see README.md in this directory).

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     main.exe --write-reference
     main.exe --smoke

   The parent process never runs an op itself: it starts this
   executable again as a child with every HFI_* variable (and
   OCAMLRUNPARAM) removed and HFI_JOBS=1 set, because the library reads
   those at module initialisation. It times each child from spawn to
   its "ready" line (set-up), collects the child's metric lines, and
   prints one JSON result as its last line.

   Exit codes: 0 a result was printed (or the smoke test / reference
   regeneration passed); 1 the smoke test or the reference regeneration
   found a wrong output; 2 bad command line; 3 a child crashed, timed
   out or broke the line protocol; 4 the reference file is missing or
   malformed. *)

let exit_failed = 1
let exit_usage = 2
let exit_child = 3
let exit_reference = 4
let default_reference = Filename.concat "benchmark" (Filename.concat "reference" "seed7.json")

(* Whole-run budget: every child is killed once it is used up. *)
let budget_s = 170.0

(* Set-up is timed once in every run's measuring child and in this
   many set-up-only children before it; the run reports the median. *)
let setup_children = 14

let die code fmt = Printf.ksprintf (fun s -> prerr_endline ("benchmark: " ^ s); exit code) fmt
let now () = Probe.now_ns ()
let since t0 = Probe.seconds_between t0 (now ())

let median = Hfi_util.Stats.median (* 0 for no samples *)
let percentile p = function [] -> 0.0 | xs -> Hfi_util.Stats.percentile p xs
let ratio a b = if b > 0.0 then a /. b else 0.0

let load_reference path =
  match Check.load path with Ok r -> r | Error e -> die exit_reference "reference: %s" e

(* ---------------------------------------------------------------- *)
(* Child side *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

let emit name unit v =
  if not (Float.is_finite v) then die exit_child "metric %s is not finite" name;
  Printf.printf "metric %s %.17g %s\n" name v unit

(* Ids of the experiments the traced repro-quick run times one by one.
   Fixed here rather than read from the registry, so the metric list
   does not change when the registry does. *)
let experiment_ids =
  [
    "fig2"; "fig3"; "heap-growth"; "reg-pressure"; "font"; "fig4"; "teardown"; "scaling";
    "syscalls"; "fig5"; "table1"; "fig7"; "ablate-soe"; "ablate-parallel"; "ablate-comparator";
    "ablate-transitions"; "multi-memory"; "chaining"; "opt-backend"; "opt-passes"; "fuzz";
    "serve_steady"; "serve_burst"; "serve_chaos";
  ]

(* What one traced rep leaves behind: per span name, summed self
   nanoseconds and allocated words. *)
type layer_totals = { self : (string, float) Hashtbl.t; alloc : (string, float) Hashtbl.t }

let totals_of_rep spans =
  let self_ns = Probe.self_ns spans in
  let t = { self = Hashtbl.create 64; alloc = Hashtbl.create 64 } in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (s : Probe.span) ->
      add t.self s.Probe.name (Int64.to_float (self_ns s) *. 1e-9);
      add t.alloc s.Probe.name s.Probe.alloc_words)
    spans;
  t

(* The per-layer metrics, in the order BENCHMARK.json lists them. A
   layer the workload does not enter reads 0. Times and allocation are
   medians over traced reps; counts are per rep (every rep does the same
   work, so they repeat exactly). *)
let per_layer ~reps ~count ~module_ms ~overhead ~admission =
  let find tbl n = Option.value ~default:0.0 (Hashtbl.find_opt tbl n) in
  let median_sum f names =
    median (List.map (fun t -> List.fold_left (fun a n -> a +. f t n) 0.0 names) reps)
  in
  let secs = median_sum (fun t -> find t.self) in
  let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.0 in
  let time name names = (name, "s", secs names) in
  let alloc name names = (name, "MB", median_sum (fun t n -> find t.alloc n *. word_mb) names) in
  let c ?(unit = "count") name = (name, unit, count name) in
  let rate name instrs names = (name, "Minstr/s", ratio (count instrs /. 1e6) (secs names)) in
  let serve =
    List.map (( ^ ) "serving.simulate.") [ "steady_hfi"; "steady_bounds"; "chaos_hfi"; "chaos_bounds" ]
  in
  [
    time "wasm.codegen.s" [ "wasm.codegen" ];
    c "wasm.codegen.instrs_out";
    time "opt.plain.s" [ "opt.plain" ];
    time "opt.check.s" [ "opt.check" ];
    alloc "opt.alloc_mb" [ "opt.plain"; "opt.check" ];
    c "opt.instrs_in";
    c "opt.instrs_out";
  ]
  @ List.map (fun p -> c ("opt." ^ p ^ ".changed")) [ "elide"; "reuse"; "hoist"; "rewrite"; "dce" ]
  @ [
      time "pipeline.decode.s" [ "pipeline.decode" ];
      c "pipeline.decode.uops";
      time "verify.s" [ "verify.plain"; "verify.check" ];
      time "verify.check.s" [ "verify.check" ];
      alloc "verify.alloc_mb" [ "verify.plain"; "verify.check" ];
      c "verify.iterations";
      c "verify.blocks";
      c "verify.safe";
      c "verify.unsafe";
      c "verify.unknown";
      ("verify_decided_frac", "frac", ratio (count "verify.decided_correct") (count "verify.cells"));
      ("toolchain.module.p50_ms", "ms", percentile 50.0 module_ms);
      ("toolchain.module.p90_ms", "ms", percentile 90.0 module_ms);
      time "wasm.instantiate.s" [ "wasm.instantiate" ];
      time "pipeline.fast_engine.s" [ "pipeline.fast_engine" ];
      c "pipeline.fast_engine.instrs";
      c ~unit:"cycles" "pipeline.fast_engine.cycles";
      c "pipeline.fast_engine.icache_misses";
      c "pipeline.fast_engine.dcache_misses";
      c "pipeline.fast_engine.mispredicts";
      alloc "pipeline.fast_engine.alloc_mb" [ "pipeline.fast_engine" ];
      rate "fast_minstr_per_s" "pipeline.fast_engine.instrs" [ "pipeline.fast_engine" ];
      time "pipeline.cycle_engine.s" [ "pipeline.cycle_engine" ];
      c "pipeline.cycle_engine.instrs";
      c ~unit:"cycles" "pipeline.cycle_engine.cycles";
      c "pipeline.cycle_engine.transient_instrs";
      c "pipeline.cycle_engine.drains";
      c "pipeline.cycle_engine.dcache_misses";
      c "pipeline.cycle_engine.dtlb_misses";
      c "pipeline.cycle_engine.cond_mispredicts";
      alloc "pipeline.cycle_engine.alloc_mb" [ "pipeline.cycle_engine" ];
      rate "cycle_minstr_per_s" "pipeline.cycle_engine.instrs" [ "pipeline.cycle_engine" ];
    ]
  @ List.map (fun n -> time (n ^ ".s") [ n ]) serve
  @ [ c "serving.cold_starts"; c "serving.verify_hits"; c "serving.verify_misses" ]
  @ List.map
      (fun k -> ("serving.admission." ^ k, "ms", Option.value ~default:0.0 (List.assoc_opt k admission)))
      [ "cold_ms.hfi"; "cold_ms.bounds"; "warm_ms.hfi"; "warm_ms.bounds" ]
  @ [ ("serve_req_per_s", "req/s", ratio (count "serving.requests") (secs serve)) ]
  @ List.map (fun id -> time ("experiments." ^ id ^ ".s") [ "experiments." ^ id ]) experiment_ids
  @ [ ("trace.overhead_frac", "frac", overhead) ]

let spans_file workload seed =
  let dir = Filename.concat "_build" ".hfi-bench-trace" in
  if not (Sys.file_exists "_build") then Sys.mkdir "_build" 0o755;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "%s-seed%d.json" workload seed)

(* Host seconds one rep takes when every op runs at the best speed the
   run saw for it: the sum over ops of each op's fastest time across
   reps (best-of-N per op). On a shared machine, speed drifts by tens of
   percent over seconds as other tenants come and go; per-op best-of-N
   is far steadier from run to run than the median whole rep. *)
let best_of samples = Hashtbl.fold (fun _ ds acc -> List.fold_left min infinity ds :: acc) samples []

let child_measure ~workload ~seed ~seconds ~trace ~reference =
  let reference = load_reference reference in
  let ops = Ops.ops workload ~seed in
  print_endline "ready";
  let start = now () in
  let attempted = ref 0 and failed = ref 0 in
  let reported = Hashtbl.create 8 in
  (* op id -> durations in seconds, plain and traced reps apart *)
  let plain = Hashtbl.create 256 and traced_ops = Hashtbl.create 256 in
  let walls = ref [] and traced = ref [] in
  let rep i =
    let tracing = trace && i mod 2 = 0 in
    let samples = if tracing then traced_ops else plain in
    Probe.tracing := tracing;
    Probe.reset_counts ();
    let mark = !Probe.next_id in
    let t0 = now () in
    Probe.span "rep" (fun () ->
        List.iter
          (fun (op : Ops.op) ->
            let o0 = now () in
            let r = Probe.span ("op:" ^ op.Ops.id) op.Ops.run in
            let d = since o0 in
            Hashtbl.replace samples op.Ops.id
              (d :: Option.value ~default:[] (Hashtbl.find_opt samples op.Ops.id));
            incr attempted;
            match Check.mismatches reference op.Ops.id r.Ops.fields @ r.Ops.violations with
            | [] -> ()
            | problems ->
              incr failed;
              if not (Hashtbl.mem reported op.Ops.id) then begin
                Hashtbl.replace reported op.Ops.id ();
                List.iter (fun p -> Printf.eprintf "benchmark: FAIL %s: %s\n%!" op.Ops.id p) problems
              end)
          ops);
    let wall = since t0 in
    Probe.tracing := false;
    walls := Printf.sprintf "%s%.4f" (if tracing then "traced " else "") wall :: !walls;
    if tracing then
      traced := (wall, List.filter (fun (s : Probe.span) -> s.Probe.id >= mark) !Probe.finished) :: !traced
  in
  (* At least two reps (a traced run needs a plain one to compare);
     after that, another only if it should end within [seconds]. *)
  let reps = ref 0 in
  let next_fits () =
    let elapsed = since start in
    elapsed +. (elapsed /. float_of_int !reps) <= float_of_int seconds
  in
  (* Peak RSS of one rep from a fresh process: read after the first rep,
     so it does not depend on how many reps fit in the run. *)
  let rss_mb = ref 0.0 in
  while !reps < 2 || next_fits () do
    rep !reps;
    if !reps = 0 then rss_mb := peak_rss_mb ();
    incr reps
  done;
  let sum = List.fold_left ( +. ) 0.0 in
  Printf.eprintf "benchmark: %s: %d reps [%s]; best-of-%d per op sums to %.4f s\n%!" workload !reps
    (String.concat ", " (List.rev !walls))
    (if trace then (!reps / 2) else !reps)
    (sum (best_of plain));
  if not trace then begin
    emit "wall_s" "s" (sum (best_of plain));
    emit "peak_rss_mb" "MB" !rss_mb
  end
  else begin
    (* Every traced rep must be accounted for: the ops' own time plus
       the layers below them covers the rep to within 5%. *)
    List.iter
      (fun (wall, spans) ->
        let self_ns = Probe.self_ns spans in
        let covered =
          List.fold_left
            (fun a (s : Probe.span) -> if s.Probe.name = "rep" then a else a +. Int64.to_float (self_ns s))
            0.0 spans
          *. 1e-9
        in
        if Float.abs (covered -. wall) > 0.05 *. wall then
          die exit_child "traced rep: spans cover %.4f s of %.4f s" covered wall)
      !traced;
    let admission =
      if workload <> "serve" then []
      else begin
        let times, bad = Ops.admission_probe ~warm_rounds:200 in
        incr attempted;
        if bad <> [] then begin
          incr failed;
          List.iter (fun p -> Printf.eprintf "benchmark: FAIL %s\n%!" p) bad
        end;
        times
      end
    in
    let spans = List.concat_map snd (List.rev !traced) in
    let module_ms =
      List.filter_map
        (fun (s : Probe.span) ->
          if String.starts_with ~prefix:"op:toolchain/" s.Probe.name then
            Some (Int64.to_float s.Probe.dur_ns *. 1e-6)
          else None)
        spans
    in
    let path = spans_file workload seed in
    Probe.write_spans path (List.sort (fun (a : Probe.span) b -> compare a.Probe.id b.Probe.id) spans);
    Printf.eprintf "benchmark: %d spans written to %s\n%!" (List.length spans) path;
    let overhead = ratio (sum (best_of traced_ops)) (sum (best_of plain)) -. 1.0 in
    List.iter
      (fun (name, unit, v) -> emit name unit v)
      (per_layer
         ~reps:(List.map (fun (_, spans) -> totals_of_rep spans) !traced)
         ~count:Probe.counted ~module_ms ~overhead ~admission)
  end;
  Printf.printf "ops %d %d\n%!" !attempted !failed

(* One op per workload through the output check, then the same outputs
   against a reference with one value perturbed: exactly one op must
   fail. *)
let smoke_ops =
  [
    ("repro-quick", "repro-quick/teardown");
    ("toolchain", "toolchain/fib2/hfi");
    ("simulate", "simulate/fast/fib2/hfi");
    ("serve", "serve/steady_hfi");
  ]

let child_smoke ~reference =
  let reference = load_reference reference in
  let outputs =
    List.map
      (fun (workload, id) ->
        let ops = Ops.ops workload ~seed:Ops.reference_seed in
        match List.find_opt (fun (op : Ops.op) -> op.Ops.id = id) ops with
        | Some op -> (id, op.Ops.run ())
        | None -> die exit_failed "smoke: no op %s in %s" id workload)
      smoke_ops
  in
  let failures reference =
    List.filter
      (fun (id, (r : Ops.result)) ->
        Check.mismatches reference id r.Ops.fields @ r.Ops.violations <> [])
      outputs
  in
  let report what = function
    | [] -> ()
    | bad -> List.iter (fun (id, _) -> Printf.eprintf "benchmark: smoke %s: %s fails\n%!" what id) bad
  in
  let clean = failures reference in
  report "check" clean;
  let perturbed = Hashtbl.copy reference in
  let victim = List.assoc "toolchain" smoke_ops in
  (match Hashtbl.find_opt perturbed victim with
  | Some ((k, v) :: rest) -> Hashtbl.replace perturbed victim ((k, v ^ "-perturbed") :: rest)
  | Some [] | None -> die exit_failed "smoke: no reference output for %s" victim);
  let control = failures perturbed in
  let control_ok = List.map fst control = [ victim ] in
  if not control_ok then report "negative control" control;
  Printf.printf "smoke: %d ops checked, %d failed; negative control %s\n" (List.length outputs)
    (List.length clean)
    (if control_ok then "caught the perturbed value" else "FAILED");
  if clean <> [] || not control_ok then exit exit_failed

(* Run every op once at the reference seed and record its output. Any
   oracle violation aborts: a wrong output must never become expected. *)
let child_write_reference ~reference =
  let outputs =
    List.concat_map
      (fun workload ->
        List.map
          (fun (op : Ops.op) ->
            let r = op.Ops.run () in
            if r.Ops.violations <> [] then
              die exit_failed "%s: %s" op.Ops.id (String.concat "; " r.Ops.violations);
            (op.Ops.id, r.Ops.fields))
          (Ops.ops workload ~seed:Ops.reference_seed))
      Ops.names
  in
  Check.write reference ~seed:Ops.reference_seed outputs;
  Printf.printf "wrote %d reference outputs to %s\n" (List.length outputs) reference

(* ---------------------------------------------------------------- *)
(* Parent side *)

let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not (String.starts_with ~prefix:"HFI_" kv || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
  |> List.cons "HFI_JOBS=1"
  |> Array.of_list

exception Child_error of int * string

(* Start this executable as a child, hand each stdout line and the
   seconds since spawn to [on_line], and wait for it to exit. A child
   still running at [deadline] is killed. *)
let run_child ~deadline args ~on_line =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) (child_env ()) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let reap () =
    Unix.close r;
    let rec wait () =
      try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ()
  in
  let buf = Bytes.create 65536 and line = Buffer.create 256 in
  let rec pump () =
    let left = Probe.seconds_between (now ()) deadline in
    if left <= 0.0 then `Timeout
    else
      match Unix.select [ r ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
      | [], _, _ -> `Timeout
      | _ ->
        let n = Unix.read r buf 0 (Bytes.length buf) in
        if n = 0 then `Eof
        else begin
          for i = 0 to n - 1 do
            match Bytes.get buf i with
            | '\n' ->
              on_line (Buffer.contents line) (since t0);
              Buffer.clear line
            | c -> Buffer.add_char line c
          done;
          pump ()
        end
  in
  let outcome = try pump () with e -> Unix.kill pid Sys.sigkill; ignore (reap ()); raise e in
  if outcome = `Timeout then Unix.kill pid Sys.sigkill;
  match (outcome, reap ()) with
  | `Timeout, _ -> raise (Child_error (exit_child, "child exceeded the run budget and was killed"))
  | `Eof, Unix.WEXITED 0 -> ()
  | `Eof, Unix.WEXITED c when c = exit_reference || c = exit_failed -> raise (Child_error (c, ""))
  | `Eof, Unix.WEXITED c -> raise (Child_error (exit_child, Printf.sprintf "child exited %d" c))
  | `Eof, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
    raise (Child_error (exit_child, "child killed by a signal"))

let measure ~workload ~seed ~seconds ~trace ~reference =
  let deadline = Int64.add (now ()) (Int64.of_float (budget_s *. 1e9)) in
  let args mode =
    [
      "--child"; mode; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
      string_of_int seconds; "--trace"; (if trace then "1" else "0"); "--reference"; reference;
    ]
  in
  let protocol l = raise (Child_error (exit_child, "unexpected child output: " ^ l)) in
  let setups = ref [] in
  let on_setup l dt = if l = "ready" then setups := dt :: !setups else protocol l in
  if not trace then
    for _ = 1 to setup_children do
      run_child ~deadline (args "setup") ~on_line:on_setup
    done;
  let metrics = ref [] and ops = ref None in
  run_child ~deadline (args "measure") ~on_line:(fun l dt ->
      match String.split_on_char ' ' l with
      | [ "ready" ] -> on_setup l dt
      | [ "metric"; name; v; unit ] when Option.is_some (float_of_string_opt v) ->
        metrics := (name, v, unit) :: !metrics
      | [ "ops"; a; f ] -> (
        match (int_of_string_opt a, int_of_string_opt f) with
        | Some a, Some f -> ops := Some (a, f)
        | _ -> protocol l)
      | _ -> protocol l);
  let attempted, failed =
    match !ops with Some c -> c | None -> raise (Child_error (exit_child, "child reported no op count"))
  in
  let metrics =
    List.rev !metrics
    @
    if trace then []
    else begin
      Printf.eprintf "benchmark: %s setup_s: median of %d [%s]\n%!" workload (List.length !setups)
        (String.concat " " (List.map (Printf.sprintf "%.4f") (List.rev !setups)));
      [ ("setup_s", Printf.sprintf "%.17g" (median !setups), "s") ]
    end
  in
  let q = Probe.json_string in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (q n) v (q u))
          metrics))

let () =
  let workload = ref "" and seed = ref Ops.reference_seed and seconds = ref 30 and trace = ref 0 in
  let reference = ref default_reference and smoke = ref false and write_reference = ref false in
  let child = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat ", " Ops.names);
      ("--seed", Arg.Set_int seed, "N  serve arrival seed (default 7, the reference seed)");
      ("--seconds", Arg.Set_int seconds, "S  keep repeating the op list for S seconds (default 30)");
      ("--trace", Arg.Set_int trace, "0|1  1 records spans and reports the per-layer metrics");
      ( "--reference",
        Arg.Set_string reference,
        "FILE  expected outputs (default " ^ default_reference ^ ")" );
      ("--write-reference", Arg.Set write_reference, " regenerate the reference file");
      ("--smoke", Arg.Set smoke, " check one op per workload, then a negative control");
      ("--child", Arg.Set_string child, "MODE  internal: run as the hermetic child");
    ]
  in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let modes = List.length (List.filter Fun.id [ !workload <> ""; !smoke; !write_reference ]) in
  if !child = "" && modes <> 1 then
    die exit_usage "give exactly one of --workload, --smoke, --write-reference";
  if !workload <> "" && not (List.mem !workload Ops.names) then
    die exit_usage "unknown workload %S (one of %s)" !workload (String.concat ", " Ops.names);
  if !seconds < 1 || !seconds > 600 then die exit_usage "--seconds must be 1..600";
  if !trace <> 0 && !trace <> 1 then die exit_usage "--trace must be 0 or 1";
  let trace = !trace = 1 and reference = !reference in
  match !child with
  | "setup" ->
    ignore (load_reference reference, Ops.ops !workload ~seed:!seed);
    print_endline "ready"
  | "measure" -> child_measure ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ~reference
  | "smoke" -> child_smoke ~reference
  | "write-reference" -> child_write_reference ~reference
  | "" -> (
    let deadline = Int64.add (now ()) (Int64.of_float (budget_s *. 1e9)) in
    let relay mode =
      run_child ~deadline
        [ "--child"; mode; "--reference"; reference ]
        ~on_line:(fun l _ -> print_endline l)
    in
    try
      if !smoke then relay "smoke"
      else if !write_reference then relay "write-reference"
      else measure ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ~reference
    with Child_error (code, msg) ->
      if msg <> "" then prerr_endline ("benchmark: " ^ msg);
      exit code)
  | m -> die exit_usage "unknown child mode %S" m
