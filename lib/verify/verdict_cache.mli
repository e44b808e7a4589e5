(** Persistent, content-addressed cache of verification reports.

    A report is a pure function of the program (its
    {!Program.fingerprint}), the strategy, the code base and the
    analysis itself ({!Checks.verifier_version}); entries are keyed by
    a digest of exactly those, so any analysis change makes old entries
    unreachable rather than stale. Entries live in the shared
    {!Hfi_util.Store}: one JSON file each, written atomically; a
    corrupt entry is a miss; store failures are swallowed.

    Opt-in via [HFI_VERIFY_CACHE]: unset, empty or ["0"] disables;
    ["1"] uses [_build/.hfi-verify-cache]; any other value is the cache
    directory. The [_in] variants take the directory explicitly (used
    by tests and by callers that already resolved the knob). *)

val dir_of_env : unit -> string option

val key : fingerprint:string -> strategy:Hfi_sfi.Strategy.t -> code_base:int -> string
(** The content address: hex digest over fingerprint, strategy, code
    base, verifier version and entry-format version. *)

val workload_key :
  dir:string -> kernel:string -> strategy:Hfi_sfi.Strategy.t -> code_base:int -> string
(** The kernel-level address, one level up: digest over the kernel
    name, the strategy, the [HFI_WASM_OPT] lowering mode, and the
    running executable's digest (the generator and compiler are baked
    in, so it stands in for both — same reasoning as
    [Hfi_experiments.Result_cache]). A hit elides compilation as well
    as verification; any rebuild changes the key. The executable
    digest ({!Hfi_util.Store.exe_digest}) is memoized in [dir] behind
    a size+mtime stamp so a warm lookup costs a stat, not a
    multi-megabyte hash. *)

val find_in :
  dir:string -> fingerprint:string -> strategy:Hfi_sfi.Strategy.t -> code_base:int ->
  Report.t option

val store_in :
  dir:string -> fingerprint:string -> strategy:Hfi_sfi.Strategy.t -> code_base:int ->
  Report.t -> unit

val find_workload_in :
  dir:string -> kernel:string -> strategy:Hfi_sfi.Strategy.t -> code_base:int ->
  Report.t option

val store_workload_in :
  dir:string -> kernel:string -> strategy:Hfi_sfi.Strategy.t -> code_base:int ->
  Report.t -> unit

val find :
  fingerprint:string -> strategy:Hfi_sfi.Strategy.t -> code_base:int -> Report.t option
(** [find_in] under the environment-selected directory; [None] when the
    cache is disabled. *)

val store :
  fingerprint:string -> strategy:Hfi_sfi.Strategy.t -> code_base:int -> Report.t -> unit
