module Strategy = Hfi_sfi.Strategy
module Instance = Hfi_wasm.Instance
module Checks = Hfi_verify.Checks
module Vreport = Hfi_verify.Report
module Vcache = Hfi_verify.Verdict_cache

type decision =
  | Admitted
  | Rejected of { verdict : string; detail : string }

type entry = { decision : decision; fingerprint : string }

(* A compiled module image: the workload value it was built from (by
   identity), the lowering it was built under, and its fingerprint. *)
type image = {
  workload : Instance.workload;
  strategy : Strategy.t;
  optimized : bool;  (* [!Hfi_opt.Driver.enabled] at compile time *)
  image_fingerprint : string;
}

type t = {
  images : (string, image) Hashtbl.t;  (* workload name -> images compiled *)
  cache : (string, entry) Hashtbl.t;  (* fingerprint/strategy -> verdict *)
  mutable hits : int;
  mutable misses : int;
  mutable persisted : int;
}

let create () =
  {
    images = Hashtbl.create 16;
    cache = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    persisted = 0;
  }

(* The fingerprint of [w] compiled under [strategy], compiling only the
   first time this gate sees that image. The name narrows the search;
   physical equality decides it, so a different value reusing a name is
   a different image. [program] is the compiled form, forced only when
   the verdict is not cached. *)
let image t ~strategy (w : Instance.workload) =
  let optimized = !Hfi_opt.Driver.enabled in
  let same i = i.workload == w && i.strategy = strategy && i.optimized = optimized in
  let compile () = Instance.build_program ~strategy w in
  match List.find_opt same (Hashtbl.find_all t.images w.Instance.name) with
  | Some i -> (i.image_fingerprint, lazy (compile ()))
  | None ->
    let program = compile () in
    let image_fingerprint = Program.fingerprint program in
    Hashtbl.add t.images w.Instance.name
      { workload = w; strategy; optimized; image_fingerprint };
    (image_fingerprint, Lazy.from_val program)

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

(* Verify the compiled form of [workload] under [strategy], memoized
   twice. A workload value is an immutable module image, so the gate
   compiles it once per (strategy, optimizer switch) and keeps only its
   fingerprint ({!image}); a warm check never recompiles, which under
   bounds checks was most of a warm check's cost. Verdicts are
   content-addressed: the key is the program fingerprint (a digest of
   the exact instruction sequence) plus the strategy, so two tenants
   sharing a module image share one verification, and any change to the
   module or the compiler changes the key.

   Behind the in-process table sits the opt-in persistent
   {!Hfi_verify.Verdict_cache} ([HFI_VERIFY_CACHE]): a first-seen
   fingerprint is looked up there before the fixpoint runs, and a
   fresh verdict is stored back, so verification survives process
   restarts — the report round-trips through JSON, and the decision is
   recomputed from the report, never stored. *)
let check ?ctx ?(at = 0.0) t ~strategy (w : Instance.workload) =
  let fingerprint, program = image t ~strategy w in
  let key = fingerprint ^ "/" ^ Strategy.to_string strategy in
  let code_base = Hfi_wasm.Layout.code_base in
  let decision, source =
    match Hashtbl.find_opt t.cache key with
    | Some e ->
      t.hits <- t.hits + 1;
      cache_event `Hit;
      (e.decision, `Memory)
    | None -> (
      match Vcache.find ~fingerprint ~strategy ~code_base with
      | Some report ->
        t.persisted <- t.persisted + 1;
        cache_event `Persisted;
        let decision = decision_of_report report in
        Hashtbl.replace t.cache key { decision; fingerprint };
        (decision, `Persisted)
      | None ->
        t.misses <- t.misses + 1;
        cache_event `Miss;
        let report =
          Checks.verify ~name:w.Instance.name { Checks.strategy; code_base }
            (Lazy.force program)
        in
        Vcache.store ~fingerprint ~strategy ~code_base report;
        let decision = decision_of_report report in
        Hashtbl.replace t.cache key { decision; fingerprint };
        (decision, `Fresh))
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
