(** Persistent, content-addressed cache of experiment reports.

    Re-running the bench harness mostly re-derives results that cannot
    have changed: an experiment's report is a pure function of the
    simulator code and the (id, quick) configuration. The cache keys
    each run by a digest of exactly those inputs — the experiment id,
    the workload mode, and a digest of the running executable itself —
    so any rebuild that changes behaviour changes the key and the stale
    entry is simply never looked up again (invalidation by construction;
    nothing is ever deleted).

    Opt-in via [HFI_RESULT_CACHE]: unset, empty, or ["0"] disables it;
    ["1"] stores under [_build/.hfi-cache/]; any other value is used as
    the cache directory. Entries live in the shared {!Hfi_util.Store}:
    one JSON object per file, written atomically, carrying the report
    fields plus the original run's wall-clock seconds so cache hits can
    report the speedup honestly. A corrupt or unreadable entry behaves
    as a miss. *)

module Json = Hfi_util.Json
module Store = Hfi_util.Store

let default_dir = Filename.concat "_build" ".hfi-cache"
let dir () = Store.dir_of_env ~var:"HFI_RESULT_CACHE" ~default:default_dir
let enabled () = dir () <> None

(* Entry-layout version. Bumping it both changes every key (old entries
   are never looked up again) and is checked against the
   [schema_version] field on read, so an entry written under a different
   layout is a miss even if it somehow shares a key. v2 added
   [schema_version] itself; v3 folded the runtime configuration knobs
   (the HFI_WASM_OPT middle-end switch and the HFI_REGPRESSURE_MODEL
   selector) into the key — reports are a function of those too; v4
   added the report's machine-readable key figures, flattened as
   ["data:<key>"] numeric fields; v5 nests them in a [data] object and
   writes every number so it reads back bit for bit. *)
let schema_version = 5

(* The executable digest covers simulator code, workload definitions and
   experiment logic in one stroke — they are all compiled in. *)
let key ~id ~quick =
  Store.key
    [
      Printf.sprintf "hfi-result-v%d" schema_version;
      id;
      (if quick then "quick" else "full");
      (if !Hfi_opt.Driver.enabled then "opt-on" else "opt-off");
      (match Register_pressure.model () with
      | Register_pressure.Allocator -> "regpressure-allocator"
      | Register_pressure.Reserve -> "regpressure-reserve");
      Store.exe_digest ?dir:(dir ()) ();
    ]

exception Malformed

let of_entry j =
  let get member k = match member k j with Some v -> v | None -> raise Malformed in
  let str = get Json.str_member and num = get Json.num_member in
  if num "schema_version" <> float_of_int schema_version then raise Malformed;
  (* The report's key figures, in stored (= original) order. *)
  let data =
    match Json.member "data" j with
    | Some (Json.Obj fields) ->
      List.map (function k, Json.Num f -> (k, f) | _ -> raise Malformed) fields
    | _ -> raise Malformed
  in
  let report =
    {
      Report.id = str "id";
      title = str "title";
      paper_claim = str "paper_claim";
      table = str "table";
      verdict = str "verdict";
      data;
    }
  in
  (report, num "uncached_seconds")

(* A hit returns the report plus the wall-clock seconds the original
   (uncached) run took. *)
let find ~id ~quick : (Report.t * float) option =
  Option.bind (dir ()) (fun dir ->
      match Json.parse_file (Store.path ~dir (key ~id ~quick)) with
      | Ok j -> ( try Some (of_entry j) with Malformed -> None)
      | Error _ -> None)

(* A cache store failure must never fail the experiment. *)
let store ~id ~quick ~seconds (r : Report.t) =
  Option.iter
    (fun dir ->
      let entry =
        Json.obj
          [
            ("schema_version", string_of_int schema_version);
            ("id", Json.str r.Report.id);
            ("title", Json.str r.Report.title);
            ("paper_claim", Json.str r.Report.paper_claim);
            ("table", Json.str r.Report.table);
            ("verdict", Json.str r.Report.verdict);
            ("data", Json.obj (List.map (fun (k, v) -> (k, Json.num_exact v)) r.Report.data));
            ("uncached_seconds", Json.num_exact seconds);
          ]
      in
      ignore (Store.write (Store.path ~dir (key ~id ~quick)) (entry ^ "\n")))
    (dir ())
