(* The four workloads, each a fixed list of ops.

   An op calls the program only through stable entry points, wrapping
   each call into a layer in a {!Probe.span}, and returns the output
   the reference check compares plus any independent-oracle violations
   it found itself. *)

module Strategy = Hfi_sfi.Strategy
module Instance = Hfi_wasm.Instance
module Program = Hfi_isa.Program
module Machine = Hfi_pipeline.Machine
module Uop = Hfi_pipeline.Uop
module Fast_engine = Hfi_pipeline.Fast_engine
module Cycle_engine = Hfi_pipeline.Cycle_engine
module Driver = Hfi_opt.Driver
module Checks = Hfi_verify.Checks
module Vreport = Hfi_verify.Report
module Server = Hfi_serving.Server
module Admission = Hfi_serving.Admission
module Registry = Hfi_experiments.Registry
module Sightglass = Hfi_workloads.Sightglass
module Spec = Hfi_workloads.Spec
module Faas = Hfi_workloads.Faas_workloads

type result = {
  fields : (string * string) list;  (** compared with the reference *)
  violations : string list;  (** independent-oracle failures *)
}

type op = { id : string; run : unit -> result }

let bits = Printf.sprintf "%h"
let tag = Strategy.to_string

(* Software checks in the emitted code: the strategies whose optimizer
   and verifier work is dominated by check obligations. *)
let has_checks = function
  | Strategy.Bounds_checks | Strategy.Masking -> true
  | Strategy.Guard_pages | Strategy.Hfi -> false

let status_name = function
  | Machine.Halted -> "halted"
  | Machine.Running -> "running"
  | Machine.Faulted msr -> "faulted: " ^ Hfi_core.Msr.to_string msr

(* Catalog names with spaces replaced, so op ids are single words. *)
let catalog =
  List.map
    (fun (f : Faas.t) -> (String.map (function ' ' -> '-' | c -> c) f.Faas.name, f.Faas.workload))
    Faas.all

(* ---------------------------------------------------------------- *)
(* repro-quick: every registered experiment, as the quick bench runs it *)

let experiment (e : Registry.entry) =
  {
    id = "repro-quick/" ^ e.Registry.id;
    run =
      (fun () ->
        let o =
          Probe.span ("experiments." ^ e.Registry.id) (fun () ->
              Registry.run_entry ~quick:true ~use_cache:false ~retries:0 e)
        in
        match o.Registry.result with
        | Ok (r : Hfi_experiments.Report.t) ->
          {
            fields =
              [
                ("table", Digest.to_hex (Digest.string r.table));
                ("verdict", r.verdict);
                ( "data",
                  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ bits v) r.data) );
              ];
            violations = [];
          }
        | Error f -> { fields = []; violations = [ Hfi_util.Fault.to_string f ] });
  }

let repro_quick () = List.map experiment Registry.all

(* ---------------------------------------------------------------- *)
(* toolchain: load => optimize => decode => verify, no simulation *)

let code_base = Hfi_wasm.Layout.code_base

let cell ?(optimize = true) ?(expect_unsafe = false) label strategy (w : Instance.workload) =
  let checked = has_checks strategy in
  {
    id =
      Printf.sprintf "toolchain/%s/%s%s" label (tag strategy) (if optimize then "" else "/reference");
    run =
      (fun () ->
        let prog =
          Probe.span "wasm.codegen" (fun () -> Instance.build_program ~strategy ~optimize:false w)
        in
        Probe.count "wasm.codegen.instrs_out" (float_of_int (Program.length prog));
        let prog, changed =
          if not optimize then (prog, "-")
          else begin
            let conv =
              Instance.opt_conv ~strategy
                ~heap_size:(Instance.round_to_wasm_page w.Instance.heap_bytes)
            in
            let passes =
              Probe.span
                (if checked then "opt.check" else "opt.plain")
                (fun () -> Driver.passes conv prog)
            in
            Probe.count "opt.instrs_in" (float_of_int (Program.length prog));
            List.iter
              (fun (r : Driver.pass_result) ->
                Probe.count ("opt." ^ r.Driver.pass ^ ".changed") (float_of_int r.Driver.changed))
              passes;
            let final = match List.rev passes with [] -> prog | last :: _ -> last.Driver.prog in
            Probe.count "opt.instrs_out" (float_of_int (Program.length final));
            ( final,
              String.concat " "
                (List.map
                   (fun (r : Driver.pass_result) -> Printf.sprintf "%s:%d" r.Driver.pass r.Driver.changed)
                   passes) )
          end
        in
        let uops = Probe.span "pipeline.decode" (fun () -> Uop.decode prog ~code_base) in
        Probe.count "pipeline.decode.uops" (float_of_int (Array.length uops));
        let report =
          Probe.span
            (if checked then "verify.check" else "verify.plain")
            (fun () -> Checks.verify ~name:label { Checks.strategy; code_base } prog)
        in
        let verdict = Vreport.verdict_name report.Vreport.verdict in
        Probe.count "verify.iterations" (float_of_int report.Vreport.iterations);
        Probe.count "verify.blocks" (float_of_int report.Vreport.blocks);
        Probe.count ("verify." ^ verdict) 1.0;
        let correct = if expect_unsafe then verdict = "unsafe" else verdict = "safe" in
        Probe.count "verify.decided_correct" (if correct then 1.0 else 0.0);
        Probe.count "verify.cells" 1.0;
        let violations =
          match (expect_unsafe, verdict) with
          | true, "unsafe" | false, ("safe" | "unknown") -> []
          | true, v -> [ "poison module verified " ^ v ]
          | false, v -> [ "compiler output verified " ^ v ]
        in
        {
          fields =
            [
              ("fingerprint", Program.fingerprint prog);
              ("length", string_of_int (Program.length prog));
              ("changed", changed);
              ("verdict", verdict);
            ];
          violations;
        });
  }

let spec_named name = List.find (fun (p : Spec.profile) -> p.Spec.name = name) Spec.profiles

let toolchain () =
  let product labelled strategies =
    List.concat_map (fun (name, w) -> List.map (fun s -> cell name s w) strategies) labelled
  in
  let spec = List.map (fun (p : Spec.profile) -> (p.Spec.name, Spec.workload p)) Spec.profiles in
  let libquantum = Spec.workload (spec_named "462.libquantum") in
  List.concat
    [
      product Sightglass.all Strategy.all;
      product catalog Strategy.all;
      List.map
        (fun s -> cell ~expect_unsafe:true "poison" s Admission.poison_workload)
        Strategy.all;
      product spec [ Strategy.Hfi ];
      product
        (List.filter (fun (n, _) -> n <> "403.gcc" && n <> "445.gobmk") spec)
        [ Strategy.Guard_pages ];
      product [ ("462.libquantum", libquantum) ] [ Strategy.Bounds_checks; Strategy.Masking ];
      [ cell ~optimize:false "462.libquantum" Strategy.Bounds_checks libquantum ];
    ]

(* ---------------------------------------------------------------- *)
(* simulate: instantiate => decode => engine, on both engines *)

type engine = Fast | Cycle

let engine_run engine label strategy w ~first_rax ~rax_key =
  let id =
    Printf.sprintf "simulate/%s/%s/%s"
      (match engine with Fast -> "fast" | Cycle -> "cycle")
      label (tag strategy)
  in
  {
    id;
    run =
      (fun () ->
        let inst =
          Probe.span "wasm.instantiate" (fun () -> Instance.instantiate ~strategy ~optimize:false w)
        in
        let m = Instance.machine inst in
        ignore
          (Probe.span "pipeline.decode" (fun () ->
               let uops = Uop.decode (Instance.program inst) ~code_base:(Machine.code_base m) in
               Probe.count "pipeline.decode.uops" (float_of_int (Array.length uops))));
        let count k v = Probe.count k (float_of_int v) in
        let status, instrs, cycles =
          match engine with
          | Fast ->
            let e, status =
              Probe.span "pipeline.fast_engine" (fun () ->
                  let e = Fast_engine.create m in
                  (e, Fast_engine.run e))
            in
            let instrs = Fast_engine.instrs e in
            count "pipeline.fast_engine.instrs" instrs;
            Probe.count "pipeline.fast_engine.cycles" (Fast_engine.cycles e);
            count "pipeline.fast_engine.icache_misses" (Fast_engine.icache_misses e);
            count "pipeline.fast_engine.dcache_misses" (Fast_engine.dcache_misses e);
            count "pipeline.fast_engine.mispredicts" (Fast_engine.mispredicts e);
            (status, instrs, Fast_engine.cycles e)
          | Cycle ->
            let r = Probe.span "pipeline.cycle_engine" (fun () -> Instance.run_cycle inst) in
            count "pipeline.cycle_engine.instrs" r.Cycle_engine.instrs;
            Probe.count "pipeline.cycle_engine.cycles" r.Cycle_engine.cycles;
            count "pipeline.cycle_engine.transient_instrs" r.Cycle_engine.transient_instrs;
            count "pipeline.cycle_engine.drains" r.Cycle_engine.drains;
            count "pipeline.cycle_engine.dcache_misses" r.Cycle_engine.dcache_misses;
            count "pipeline.cycle_engine.dtlb_misses" r.Cycle_engine.dtlb_misses;
            count "pipeline.cycle_engine.cond_mispredicts" r.Cycle_engine.cond_mispredicts;
            (r.Cycle_engine.status, r.Cycle_engine.instrs, r.Cycle_engine.cycles)
        in
        let rax = Instance.result_rax inst in
        let violations =
          List.filter_map Fun.id
            [
              (if status = Machine.Halted then None
               else Some ("did not halt: " ^ status_name status));
              (match Sightglass.expected_result label with
              | Some v when v <> rax -> Some (Printf.sprintf "RAX %d, closed form %d" rax v)
              | Some _ | None -> None);
              (match Hashtbl.find_opt first_rax rax_key with
              | Some (v, by) when v <> rax -> Some (Printf.sprintf "RAX %d, but %d on %s" rax v by)
              | Some _ -> None
              | None ->
                Hashtbl.replace first_rax rax_key (rax, id);
                None);
            ]
        in
        {
          fields =
            [
              ("status", status_name status);
              ("rax", string_of_int rax);
              ("instrs", string_of_int instrs);
              ("cycles", bits cycles);
            ];
          violations;
        });
  }

let simulate () =
  (* SPEC-like iterations are quartered so that a 30 s run fits about
     five reps, which best-of-N per op (see main.ml) needs.
     Equal RAX: the first run of a program sets the value every later
     run must reproduce. A Sightglass kernel computes the same checksum
     under every strategy; a SPEC-like program is generated from the
     strategy's register pool, so only the two engines must agree. *)
  let first_rax = Hashtbl.create 64 in
  let spec =
    List.map
      (fun (p : Spec.profile) -> (p.Spec.name, Spec.workload { p with Spec.iters = p.Spec.iters / 4 }))
      Spec.profiles
  in
  let runs engine programs strategies ~per_strategy =
    List.concat_map
      (fun (label, w) ->
        List.map
          (fun s ->
            let rax_key = if per_strategy then label ^ "/" ^ tag s else label in
            engine_run engine label s w ~first_rax ~rax_key)
          strategies)
      programs
  in
  List.concat
    [
      runs Fast spec Strategy.all ~per_strategy:true;
      runs Fast Sightglass.all Strategy.all ~per_strategy:false;
      runs Cycle spec [ Strategy.Guard_pages; Strategy.Bounds_checks; Strategy.Hfi ] ~per_strategy:true;
      runs Cycle Sightglass.all Strategy.all ~per_strategy:false;
    ]

(* ---------------------------------------------------------------- *)
(* serve: the multi-tenant FaaS simulation of §6.3 *)

let serve_strategies = [ ("hfi", Strategy.Hfi); ("bounds", Strategy.Bounds_checks) ]

let serve_run ~seed ~check_reference scenario tenants requests (short, strategy) =
  let key = Printf.sprintf "%s_%s" (Server.scenario_name scenario) short in
  {
    id = "serve/" ^ key;
    run =
      (fun () ->
        let config = { (Server.default scenario) with Server.tenants; requests; seed } in
        let r =
          Probe.span ("serving.simulate." ^ key) (fun () -> Server.simulate ~jobs:1 config ~strategy)
        in
        let c = r.Server.counters in
        Probe.count "serving.requests" (float_of_int c.Server.requests);
        Probe.count "serving.cold_starts" (float_of_int c.Server.cold_starts);
        Probe.count "serving.verify_hits" (float_of_int c.Server.verify_hits);
        Probe.count "serving.verify_misses" (float_of_int c.Server.verify_misses);
        let terminal =
          c.Server.ok + c.Server.retried_ok + c.Server.shed + c.Server.breaker_open
          + c.Server.rejected_unverified + c.Server.failed
        in
        let violations =
          List.filter_map Fun.id
            [
              (if c.Server.requests > 0 then None else Some "no requests simulated");
              (if terminal = c.Server.requests then None
               else
                 Some
                   (Printf.sprintf "%d terminal outcomes for %d requests" terminal c.Server.requests));
              (if r.Server.goodput_rps > 0.0 then None else Some "no goodput");
              (if r.Server.p50_ms <= r.Server.p99_ms && r.Server.p99_ms <= r.Server.p999_ms then None
               else Some "latency percentiles out of order");
              (if
                 scenario <> Server.Steady
                 || c.Server.injected_faults + c.Server.spurious_rejects + c.Server.poisoned_tenants = 0
               then None
               else Some "hazards injected into a steady campaign");
            ]
        in
        let fields =
          if not check_reference then []
          else
            [
              ( "counters",
                String.concat " "
                  (List.map string_of_int
                     [
                       c.Server.requests; c.Server.ok; c.Server.retried_ok; c.Server.shed;
                       c.Server.breaker_open; c.Server.rejected_unverified; c.Server.failed;
                       c.Server.retries; c.Server.timed_out; c.Server.cold_starts;
                       c.Server.warm_hits; c.Server.degraded; c.Server.evictions;
                       c.Server.breaker_trips; c.Server.breaker_rejections;
                       c.Server.injected_faults; c.Server.injected_stalls;
                       c.Server.spurious_rejects; c.Server.poisoned_tenants;
                       c.Server.verify_hits; c.Server.verify_misses;
                     ]) );
              ("goodput_rps", bits r.Server.goodput_rps);
              ("p50_ms", bits r.Server.p50_ms);
              ("p99_ms", bits r.Server.p99_ms);
              ("p999_ms", bits r.Server.p999_ms);
            ]
        in
        { fields; violations });
  }

(* The seed the reference outputs were recorded with; any other seed
   checks the invariants only. *)
let reference_seed = 7

let serve ~seed =
  let check_reference = seed = reference_seed in
  List.concat_map
    (fun (scenario, tenants, requests) ->
      List.map (serve_run ~seed ~check_reference scenario tenants requests) serve_strategies)
    [ (Server.Steady, 24, 6000); (Server.Chaos, 96, 9600) ]

(* Cold and then warm admission checks over the catalog and the poison
   module, per strategy: mean milliseconds per check, keyed
   "cold_ms.<strategy>" and "warm_ms.<strategy>", plus any wrong
   decision. Traced serve runs report these after their reps. *)
let admission_probe ~warm_rounds =
  let modules = catalog @ [ ("poison", Admission.poison_workload) ] in
  let per_strategy (short, strategy) =
    let adm = Admission.create () in
    let bad = ref [] in
    let round () =
      List.iter
        (fun (name, w) ->
          let admitted = Admission.check adm ~strategy w = Admission.Admitted in
          if admitted <> (name <> "poison") then
            bad := Printf.sprintf "admission under %s: wrong decision for %s" short name :: !bad)
        modules
    in
    let ms_per_check rounds =
      let t0 = Probe.now_ns () in
      for _ = 1 to rounds do
        round ()
      done;
      Probe.seconds_between t0 (Probe.now_ns ()) *. 1e3 /. float_of_int (rounds * List.length modules)
    in
    let cold = ms_per_check 1 in
    let warm = ms_per_check warm_rounds in
    ([ ("cold_ms." ^ short, cold); ("warm_ms." ^ short, warm) ], !bad)
  in
  let results = List.map per_strategy serve_strategies in
  (List.concat_map fst results, List.sort_uniq compare (List.concat_map snd results))

let workloads =
  [
    ("repro-quick", fun ~seed:_ -> repro_quick ());
    ("toolchain", fun ~seed:_ -> toolchain ());
    ("simulate", fun ~seed:_ -> simulate ());
    ("serve", fun ~seed -> serve ~seed);
  ]

let names = List.map fst workloads
let ops name ~seed = List.assoc name workloads ~seed
