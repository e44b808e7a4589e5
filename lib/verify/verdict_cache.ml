(* Persistent, content-addressed verdict cache.

   A verification report is a pure function of the program bytes, the
   strategy and the analysis itself, so it is keyed by a digest of
   exactly those: the program fingerprint, the strategy name, the code
   base, and {!Checks.verifier_version}. Any analysis change bumps the
   version and old entries are simply never looked up again
   (invalidation by construction; nothing is deleted).

   Same opt-in contract as [Hfi_experiments.Result_cache]:
   [HFI_VERIFY_CACHE] unset/empty/"0" disables, "1" uses the default
   [_build/.hfi-verify-cache] directory, anything else is the
   directory. One flat JSON file per entry, written atomically
   (temp + rename); a corrupt or unreadable entry is a miss; store
   failures never propagate. *)

module J = Hfi_util.Json

(* Bump whenever a stored report may differ for the same analysis:
   reports carry [iterations], which moves with worklist scheduling
   (v2: sinks are solved off the worklist). *)
let entry_version = 2
let default_dir = Filename.concat "_build" ".hfi-verify-cache"

let dir_of_env () =
  match Sys.getenv_opt "HFI_VERIFY_CACHE" with
  | None | Some "" | Some "0" -> None
  | Some "1" -> Some default_dir
  | Some d -> Some d

let enabled () = dir_of_env () <> None

let key ~fingerprint ~strategy ~code_base =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Printf.sprintf "hfi-verify-v%d" entry_version;
            Printf.sprintf "verifier-%d" Checks.verifier_version;
            fingerprint;
            Hfi_sfi.Strategy.to_string strategy;
            string_of_int code_base;
          ]))

(* Second index, one level up: a corpus kernel's compiled form is a
   pure function of the kernel generator, the compiler and the
   [HFI_WASM_OPT] lowering mode — the first two are baked into the
   executable, so (as in [Hfi_experiments.Result_cache]) its digest
   stands in for both. A hit here elides compilation as well as the
   fixpoint; any rebuild changes the key. *)
let code_version =
  lazy
    (try Digest.to_hex (Digest.file Sys.executable_name)
     with Sys_error _ -> "unknown-executable")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* Hashing a multi-megabyte executable costs more than reading every
   cache entry, so the digest is memoized in the cache directory behind
   a (size, mtime) stamp: a stat that matches reuses the stored digest,
   any rebuild invalidates the stamp and re-hashes. The digest itself —
   not the stamp — is what enters the key, so the cache stays
   content-addressed. *)
let code_version_memo : (string, string) Hashtbl.t = Hashtbl.create 4

let code_version_in ~dir =
  match Hashtbl.find_opt code_version_memo dir with
  | Some d -> d
  | None ->
    let d =
      match
        (try Some (Unix.stat Sys.executable_name)
         with Unix.Unix_error _ | Sys_error _ -> None)
      with
      | None -> Lazy.force code_version
      | Some st -> (
        let stamp_path = Filename.concat dir "exe.stamp" in
        let want = Printf.sprintf "%d %.6f" st.Unix.st_size st.Unix.st_mtime in
        let stored =
          match
            String.split_on_char '\n' (try read_file stamp_path with Sys_error _ -> "")
          with
          | s :: d :: _ when s = want && String.length d = 32 -> Some d
          | _ -> None
        in
        match stored with
        | Some d -> d
        | None ->
          let d = Lazy.force code_version in
          (try
             mkdir_p dir;
             let tmp =
               Printf.sprintf "%s.%d.tmp" stamp_path (Stdlib.Domain.self () :> int)
             in
             let oc = open_out_bin tmp in
             Fun.protect
               ~finally:(fun () -> close_out_noerr oc)
               (fun () -> Printf.fprintf oc "%s\n%s\n" want d);
             Sys.rename tmp stamp_path
           with Sys_error _ -> ());
          d)
    in
    Hashtbl.replace code_version_memo dir d;
    d

let workload_key ~dir ~kernel ~strategy ~code_base =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Printf.sprintf "hfi-verify-wk-v%d" entry_version;
            Printf.sprintf "verifier-%d" Checks.verifier_version;
            code_version_in ~dir;
            (if !Driver.enabled then "opt-on" else "opt-off");
            kernel;
            Hfi_sfi.Strategy.to_string strategy;
            string_of_int code_base;
          ]))

let find_key ~dir k : Report.t option =
  let path = Filename.concat dir (k ^ ".json") in
  if not (Sys.file_exists path) then None
  else
    match J.parse (try read_file path with Sys_error _ -> "") with
    | Error _ -> None
    | Ok j -> (
      let num name = Option.bind (J.member name j) J.to_num in
      match (num "cache_version", num "verifier_version") with
      | Some cv, Some vv
        when int_of_float cv = entry_version
             && int_of_float vv = Checks.verifier_version -> (
        match J.member "report" j with
        | None -> None
        | Some rj -> Report.of_json rj)
      | _ -> None)

let store_key ~dir k (r : Report.t) =
  try
    mkdir_p dir;
    let path = Filename.concat dir (k ^ ".json") in
    let tmp = Printf.sprintf "%s.%d.tmp" path (Stdlib.Domain.self () :> int) in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Printf.fprintf oc {|{"cache_version":%d,"verifier_version":%d,"report":%s}|}
          entry_version Checks.verifier_version (Report.to_json r);
        output_char oc '\n');
    Sys.rename tmp path
  with Sys_error _ ->
    (* a cache store failure must never fail the verification *)
    ()

let find_in ~dir ~fingerprint ~strategy ~code_base =
  find_key ~dir (key ~fingerprint ~strategy ~code_base)

let store_in ~dir ~fingerprint ~strategy ~code_base r =
  store_key ~dir (key ~fingerprint ~strategy ~code_base) r

let find_workload_in ~dir ~kernel ~strategy ~code_base =
  find_key ~dir (workload_key ~dir ~kernel ~strategy ~code_base)

let store_workload_in ~dir ~kernel ~strategy ~code_base r =
  store_key ~dir (workload_key ~dir ~kernel ~strategy ~code_base) r

let find ~fingerprint ~strategy ~code_base =
  match dir_of_env () with
  | None -> None
  | Some dir -> find_in ~dir ~fingerprint ~strategy ~code_base

let store ~fingerprint ~strategy ~code_base r =
  match dir_of_env () with
  | None -> ()
  | Some dir -> store_in ~dir ~fingerprint ~strategy ~code_base r
