module Strategy = Hfi_sfi.Strategy
module Instance = Hfi_wasm.Instance
module Checks = Hfi_verify.Checks
module Vreport = Hfi_verify.Report
module Vcache = Hfi_verify.Verdict_cache

type decision =
  | Admitted
  | Rejected of { verdict : string; detail : string }

(* A compiled module image: the workload value it was built from (by
   identity), the lowering it was built under, its fingerprint and the
   verdict key derived from it, built once here so a warm check does no
   string work. *)
type image = {
  workload : Instance.workload;
  strategy : Strategy.t;
  optimized : bool;  (* [!Hfi_opt.Driver.enabled] at compile time *)
  fingerprint : string;
  key : string;  (* fingerprint/strategy: the verdict key *)
}

(* One campaign's shared work, read and written only under [lock]: gates
   on different domains share it. Entries hold the program itself, never
   a [Lazy.t], since two domains forcing one lazy raise. *)
type memo = {
  lock : Mutex.t;
  programs : (string, image * Program.t) Hashtbl.t;  (* workload name -> images *)
  reports : (string, Vreport.t) Hashtbl.t;  (* verdict key -> report *)
}

let memo () = { lock = Mutex.create (); programs = Hashtbl.create 8; reports = Hashtbl.create 8 }

type t = {
  images : (string, image) Hashtbl.t;  (* workload name -> images compiled *)
  cache : (string, decision) Hashtbl.t;  (* verdict key -> verdict *)
  memo : memo option;
  mutable hits : int;
  mutable misses : int;
  mutable persisted : int;
}

let create ?memo () =
  {
    images = Hashtbl.create 16;
    cache = Hashtbl.create 64;
    memo;
    hits = 0;
    misses = 0;
    persisted = 0;
  }

(* The name narrows an image search; physical equality decides it, so a
   different value reusing a name is a different image. *)
let find_image images ~strategy ~optimized (w : Instance.workload) proj =
  List.find_opt
    (fun e ->
      let i = proj e in
      i.workload == w && i.strategy = strategy && i.optimized = optimized)
    (Hashtbl.find_all images w.Instance.name)

(* [w] compiled under [strategy]: built here without a memo, otherwise
   taken from the memo, which builds each image once per campaign. *)
let compile t ~strategy ~optimized (w : Instance.workload) =
  let build () =
    let program = Instance.build_program ~strategy w in
    let fingerprint = Program.fingerprint program in
    let key = fingerprint ^ "/" ^ Strategy.to_string strategy in
    ({ workload = w; strategy; optimized; fingerprint; key }, program)
  in
  match t.memo with
  | None -> build ()
  | Some m ->
    Mutex.protect m.lock (fun () ->
        match find_image m.programs ~strategy ~optimized w fst with
        | Some e -> e
        | None ->
          let e = build () in
          Hashtbl.add m.programs w.Instance.name e;
          e)

(* The image of [w] under [strategy], compiling only the first time this
   gate sees it. The program comes back only when it was just compiled;
   the gate keeps the fingerprint, not the program. *)
let image t ~strategy (w : Instance.workload) =
  let optimized = !Hfi_opt.Driver.enabled in
  match find_image t.images ~strategy ~optimized w Fun.id with
  | Some i -> (i, None)
  | None ->
    let i, program = compile t ~strategy ~optimized w in
    Hashtbl.add t.images w.Instance.name i;
    (i, Some program)

(* One counter per cache event kind, labeled so a metrics snapshot
   shows the in-memory hit / fresh-verify / persistent-load split at a
   glance. *)
let cache_event =
  let make event =
    Hfi_obs.Metrics.counter ~labels:[ ("event", event) ] "hfi_verify_cache_events_total"
  in
  let hit = make "hit" and miss = make "miss" and persisted = make "persisted" in
  fun kind ->
    Hfi_obs.Metrics.inc (match kind with `Hit -> hit | `Miss -> miss | `Persisted -> persisted)

let decision_of_report (r : Vreport.t) =
  match r.Vreport.verdict with
  | Vreport.Safe -> Admitted
  | Vreport.Unsafe (v :: _) ->
    Rejected { verdict = "unsafe"; detail = Vreport.violation_to_string v }
  | Vreport.Unsafe [] -> Rejected { verdict = "unsafe"; detail = "" }
  | Vreport.Unknown reasons ->
    (* The gate is load => verify => admit: an undischarged obligation is
       not proof of safety, so Unknown is rejected, never executed. *)
    let detail =
      match reasons with r0 :: _ -> r0.Vreport.what | [] -> "undischarged obligation"
    in
    Rejected { verdict = "unknown"; detail }

(* The verifier's report on [img], for a gate that missed both its own
   table and the persistent cache. With a memo, each verdict key is
   verified once per campaign and later gates take the memo's report; a
   fresh report is stored back into the persistent cache. *)
let verify t ~name img program =
  let run () =
    let code_base = Hfi_wasm.Layout.code_base in
    let report = Checks.verify ~name { Checks.strategy = img.strategy; code_base } program in
    Vcache.store ~fingerprint:img.fingerprint ~strategy:img.strategy ~code_base report;
    report
  in
  match t.memo with
  | None -> run ()
  | Some m ->
    Mutex.protect m.lock (fun () ->
        match Hashtbl.find_opt m.reports img.key with
        | Some report -> report
        | None ->
          let report = run () in
          Hashtbl.add m.reports img.key report;
          report)

(* Verify the compiled form of [workload] under [strategy], memoized
   twice. A workload value is an immutable module image, so the gate
   compiles it once per (strategy, optimizer switch) and keeps only its
   fingerprint and verdict key ({!image}); a warm check never
   recompiles, which under bounds checks was most of a warm check's
   cost. Verdicts are content-addressed: the key is the program
   fingerprint (a digest of the exact instruction sequence) plus the
   strategy, so two tenants sharing a module image share one
   verification, and any change to the module or the compiler changes
   the key.

   Behind the gate's own table sits the opt-in persistent
   {!Hfi_verify.Verdict_cache} ([HFI_VERIFY_CACHE]): a first-seen
   fingerprint is looked up there before the fixpoint runs, and a
   fresh verdict is stored back, so verification survives process
   restarts — the report round-trips through JSON, and the decision is
   recomputed from the report, never stored. Last comes the campaign
   memo, if the gate has one: what it supplies is this gate's miss and
   reads as a fresh verification, so counts and spans do not depend on
   which shard of a campaign verified first. *)
let check ?ctx ?(at = 0.0) t ~strategy (w : Instance.workload) =
  let img, program = image t ~strategy w in
  let decision, source =
    match Hashtbl.find_opt t.cache img.key with
    | Some decision ->
      t.hits <- t.hits + 1;
      cache_event `Hit;
      (decision, `Memory)
    | None ->
      let code_base = Hfi_wasm.Layout.code_base in
      let decision, source =
        match Vcache.find ~fingerprint:img.fingerprint ~strategy ~code_base with
        | Some report ->
          t.persisted <- t.persisted + 1;
          cache_event `Persisted;
          (decision_of_report report, `Persisted)
        | None ->
          t.misses <- t.misses + 1;
          cache_event `Miss;
          let program =
            match program with
            | Some p -> p
            | None -> snd (compile t ~strategy ~optimized:img.optimized w)
          in
          (decision_of_report (verify t ~name:w.Instance.name img program), `Fresh)
      in
      Hashtbl.replace t.cache img.key decision;
      (decision, source)
  in
  let outcome =
    let qualifier =
      match source with `Memory -> "-cached" | `Persisted -> "-persisted" | `Fresh -> ""
    in
    match decision with
    | Admitted -> "admitted" ^ qualifier
    | Rejected { verdict; _ } -> Printf.sprintf "rejected%s-%s" qualifier verdict
  in
  Hfi_obs.Span.emit ctx Hfi_obs.Span.Admission ~start_s:at ~dur_s:0.0 ~outcome;
  decision

let hits t = t.hits
let misses t = t.misses
let persisted t = t.persisted

(* A deliberately unverifiable module: from inside the sandbox it
   repoints the heap region register at memory it does not own, stores
   through it, and also stores through a raw absolute address that
   escapes every sandbox window. The first refutes the HFI invariant
   (region registers are written only by the trusted runtime, outside
   the sandbox); the second refutes SFI discipline under the software
   strategies — so admission rejects the module under *every* strategy,
   before a single instruction runs. Serving campaigns use it as the
   poison-tenant image. *)
let escape_region : Hfi_isa.Hfi_iface.region =
  Hfi_isa.Hfi_iface.Explicit_data
    {
      base_address = 0x3000_0000 - 16;
      bound = 4096 + 16;
      permission_read = true;
      permission_write = true;
      is_large_region = false;
    }

let poison_workload =
  Instance.workload ~name:"poison-region-escape" (fun c ->
      let module Codegen = Hfi_wasm.Codegen in
      Codegen.emit c
        (Instr.Hfi_set_region (Hfi_wasm.Layout.heap_region_slot, escape_region));
      Codegen.emit c
        (Instr.Hstore
           (Hfi_wasm.Layout.heap_hmov_region, Instr.W8, Instr.mem ~disp:16 (), Instr.Imm 0xBAD));
      Codegen.emit c
        (Instr.Store (Instr.W8, Instr.mem ~disp:0x3000_0000 (), Instr.Imm 0x5A));
      Codegen.emit c (Instr.Mov (Reg.RAX, Instr.Imm 0)))
