(* Corpus-wide verification sweep: every (kernel, strategy) cell, fanned
   out over an [Hfi_util.Pool] and consulted against / fed into the
   persistent verdict cache. Cells come back in input order whatever
   the completion order (the pool guarantees it) and the counters are
   summed from the cells afterwards, so a [jobs = N] sweep is
   byte-identical to a [jobs = 1] sweep in every output format. *)

type cell = {
  kernel : string;
  strategy : Hfi_sfi.Strategy.t;
  report : Report.t;
  cached : bool;  (* served from the persistent verdict cache *)
  proof : Proof.t option;
}

type t = { cells : cell list; hits : int; misses : int; stores : int }

(* Proofs are not cached (an artifact certifies a specific run of the
   analysis, and revalidating it is the point), so a proof-emitting
   sweep bypasses cache reads; it still stores fresh verdicts. *)
let run ?jobs ?(with_proofs = false) ~strategies kernels =
  let cache_dir = Verdict_cache.dir_of_env () in
  let jobs_list =
    List.concat_map
      (fun (name, w) -> List.map (fun s -> (name, w, s)) strategies)
      kernels
  in
  let code_base = Hfi_wasm.Layout.code_base in
  let one (name, w, strategy) =
    (* The kernel-level key is tried before anything else: a hit there
       skips compilation too, which dominates a warm sweep. *)
    let workload_hit =
      match cache_dir with
      | Some dir when not with_proofs ->
        Verdict_cache.find_workload_in ~dir ~kernel:name ~strategy ~code_base
      | _ -> None
    in
    match workload_hit with
    | Some report -> { kernel = name; strategy; report; cached = true; proof = None }
    | None -> (
      let prog = Hfi_wasm.Instance.build_program ~strategy w in
      let fingerprint = Program.fingerprint prog in
      let cached_report =
        match cache_dir with
        | Some dir when not with_proofs ->
          Verdict_cache.find_in ~dir ~fingerprint ~strategy ~code_base
        | _ -> None
      in
      match cached_report with
      | Some report ->
        (* an identical program first verified under another name: keep
           this cell's name so output is byte-identical to a cold run *)
        let report = { report with Report.target = name } in
        (match cache_dir with
        | Some dir ->
          Verdict_cache.store_workload_in ~dir ~kernel:name ~strategy ~code_base report
        | None -> ());
        { kernel = name; strategy; report; cached = true; proof = None }
      | None ->
        let report, proof =
          if with_proofs then
            Checks.verify_with_proof ~name { Checks.strategy; code_base } prog
          else (Checks.verify ~name { Checks.strategy; code_base } prog, None)
        in
        (match cache_dir with
        | Some dir ->
          Verdict_cache.store_in ~dir ~fingerprint ~strategy ~code_base report;
          Verdict_cache.store_workload_in ~dir ~kernel:name ~strategy ~code_base report
        | None -> ());
        { kernel = name; strategy; report; cached = false; proof })
  in
  let cells = Hfi_util.Pool.map ?jobs one jobs_list in
  let hits = List.length (List.filter (fun c -> c.cached) cells) in
  let misses = List.length cells - hits in
  let stores = if cache_dir = None then 0 else misses in
  { cells; hits; misses; stores }

let count verdict_name t =
  List.length
    (List.filter
       (fun c -> Report.verdict_name c.report.Report.verdict = verdict_name)
       t.cells)

let exit_code t =
  if count "unsafe" t > 0 then 1 else if count "unknown" t > 0 then 3 else 0

(* ---- rendering ---- *)

let verdict_mark (r : Report.t) =
  match r.Report.verdict with
  | Report.Safe -> "safe"
  | Report.Unsafe _ -> "UNSAFE"
  | Report.Unknown _ -> "unknown"

let table t =
  let strategies =
    List.fold_left
      (fun acc c -> if List.mem c.strategy acc then acc else acc @ [ c.strategy ])
      [] t.cells
  in
  let kernels =
    List.fold_left
      (fun acc c -> if List.mem c.kernel acc then acc else acc @ [ c.kernel ])
      [] t.cells
  in
  let cell k s =
    match List.find_opt (fun c -> c.kernel = k && c.strategy = s) t.cells with
    | None -> "-"
    | Some c -> verdict_mark c.report ^ (if c.cached then "*" else "")
  in
  let b = Buffer.create 1024 in
  (* strip column padding at end-of-line so the table has no trailing
     whitespace to trip a diff *)
  let endl () =
    let n = ref (Buffer.length b) in
    while !n > 0 && Buffer.nth b (!n - 1) = ' ' do decr n done;
    let line = Buffer.sub b 0 !n in
    Buffer.clear b;
    Buffer.add_string b line;
    Buffer.add_char b '\n'
  in
  let widths =
    List.map
      (fun s ->
        List.fold_left
          (fun w k -> max w (String.length (cell k s)))
          (String.length (Hfi_sfi.Strategy.to_string s))
          kernels)
      strategies
  in
  let kw = List.fold_left (fun w k -> max w (String.length k)) 6 kernels in
  Buffer.add_string b (Printf.sprintf "%-*s" kw "kernel");
  List.iter2
    (fun s w -> Buffer.add_string b (Printf.sprintf "  %-*s" w (Hfi_sfi.Strategy.to_string s)))
    strategies widths;
  endl ();
  List.iter
    (fun k ->
      Buffer.add_string b (Printf.sprintf "%-*s" kw k);
      List.iter2
        (fun s w -> Buffer.add_string b (Printf.sprintf "  %-*s" w (cell k s)))
        strategies widths;
      endl ())
    kernels;
  Buffer.contents b

let summary t =
  Printf.sprintf
    "verify-sweep: %d cells -> %d safe, %d unsafe, %d unknown; cache %d hits / %d misses"
    (List.length t.cells) (count "safe" t) (count "unsafe" t) (count "unknown" t)
    t.hits t.misses

let to_json ?wall_s t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"cells\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf {|{"kernel":"%s","strategy":"%s","cached":%b,"report":%s}|}
           (Hfi_util.Json.escape c.kernel)
           (Hfi_sfi.Strategy.to_string c.strategy)
           c.cached (Report.to_json c.report)))
    t.cells;
  Buffer.add_string b
    (Printf.sprintf {|],"safe":%d,"unsafe":%d,"unknown":%d,"cache_hits":%d,"cache_misses":%d|}
       (count "safe" t) (count "unsafe" t) (count "unknown" t) t.hits t.misses);
  (match wall_s with
  | Some s -> Buffer.add_string b (Printf.sprintf {|,"wall_s":%.6f|} s)
  | None -> ());
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ---- proof artifacts ---- *)

let proof_filename ~kernel ~strategy =
  Printf.sprintf "%s-%s.proof.json" kernel (Hfi_sfi.Strategy.to_string strategy)

let emit_proofs ~dir t =
  List.fold_left
    (fun acc c ->
      match (acc, c.proof) with
      | Ok n, Some p ->
        let path = Filename.concat dir (proof_filename ~kernel:c.kernel ~strategy:c.strategy) in
        Result.map (fun () -> n + 1) (Hfi_util.Store.write path (Proof.to_json p))
      | acc, _ -> acc)
    (Ok 0) t.cells
