(* Persistent, content-addressed verdict cache.

   A verification report is a pure function of the program bytes, the
   strategy and the analysis itself, so it is keyed by a digest of
   exactly those: the program fingerprint, the strategy name, the code
   base, and {!Checks.verifier_version}. Any analysis change bumps the
   version and old entries are simply never looked up again
   (invalidation by construction; nothing is deleted).

   Same opt-in contract and on-disk store ({!Hfi_util.Store}) as
   [Hfi_experiments.Result_cache]: [HFI_VERIFY_CACHE] unset/empty/"0"
   disables, "1" uses the default [_build/.hfi-verify-cache] directory,
   anything else is the directory. One JSON file per entry, written
   atomically; a corrupt or unreadable entry is a miss; store failures
   never propagate. *)

module J = Hfi_util.Json
module Store = Hfi_util.Store

(* Bump whenever a stored report may differ for the same analysis:
   reports carry [iterations], which moves with worklist scheduling
   (v2: sinks are solved off the worklist). *)
let entry_version = 2
let dir_of_env () =
  Store.dir_of_env ~var:"HFI_VERIFY_CACHE" ~default:(Filename.concat "_build" ".hfi-verify-cache")

let key ~fingerprint ~strategy ~code_base =
  Store.key
    [
      Printf.sprintf "hfi-verify-v%d" entry_version;
      Printf.sprintf "verifier-%d" Checks.verifier_version;
      fingerprint;
      Hfi_sfi.Strategy.to_string strategy;
      string_of_int code_base;
    ]

(* Second index, one level up: a corpus kernel's compiled form is a
   pure function of the kernel generator, the compiler and the
   [HFI_WASM_OPT] lowering mode. The first two are baked into the
   executable, so its digest stands in for both. A hit here elides
   compilation as well as the fixpoint; any rebuild changes the key. *)
let workload_key ~dir ~kernel ~strategy ~code_base =
  Store.key
    [
      Printf.sprintf "hfi-verify-wk-v%d" entry_version;
      Printf.sprintf "verifier-%d" Checks.verifier_version;
      Store.exe_digest ~dir ();
      (if !Driver.enabled then "opt-on" else "opt-off");
      kernel;
      Hfi_sfi.Strategy.to_string strategy;
      string_of_int code_base;
    ]

let find_key ~dir k : Report.t option =
  match J.parse_file (Store.path ~dir k) with
  | Error _ -> None
  | Ok j -> (
    match (J.num_member "cache_version" j, J.num_member "verifier_version" j) with
    | Some cv, Some vv
      when int_of_float cv = entry_version && int_of_float vv = Checks.verifier_version ->
      Option.bind (J.member "report" j) Report.of_json
    | _ -> None)

(* A cache store failure must never fail the verification. *)
let store_key ~dir k (r : Report.t) =
  ignore
    (Store.write (Store.path ~dir k)
       (Printf.sprintf "{\"cache_version\":%d,\"verifier_version\":%d,\"report\":%s}\n"
          entry_version Checks.verifier_version (Report.to_json r)))

let find_in ~dir ~fingerprint ~strategy ~code_base =
  find_key ~dir (key ~fingerprint ~strategy ~code_base)

let store_in ~dir ~fingerprint ~strategy ~code_base r =
  store_key ~dir (key ~fingerprint ~strategy ~code_base) r

let find_workload_in ~dir ~kernel ~strategy ~code_base =
  find_key ~dir (workload_key ~dir ~kernel ~strategy ~code_base)

let store_workload_in ~dir ~kernel ~strategy ~code_base r =
  store_key ~dir (workload_key ~dir ~kernel ~strategy ~code_base) r

let find ~fingerprint ~strategy ~code_base =
  Option.bind (dir_of_env ()) (fun dir -> find_in ~dir ~fingerprint ~strategy ~code_base)

let store ~fingerprint ~strategy ~code_base r =
  Option.iter (fun dir -> store_in ~dir ~fingerprint ~strategy ~code_base r) (dir_of_env ())
