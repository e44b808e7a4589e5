(** Corpus-wide verification sweep: every (kernel, strategy) pair,
    fanned out over an {!Hfi_util.Pool} (so [HFI_JOBS] / [--jobs]
    shard it across cores) and backed by the persistent
    {!Verdict_cache}. Results come back in input order and counters
    are derived from them afterwards, so sweeps with different job
    counts produce byte-identical tables, summaries and JSON. *)

type cell = {
  kernel : string;
  strategy : Hfi_sfi.Strategy.t;
  report : Report.t;
  cached : bool;  (** served from the persistent verdict cache *)
  proof : Proof.t option;
}

type t = {
  cells : cell list;  (** kernel-major, strategy-minor, input order *)
  hits : int;
  misses : int;
  stores : int;
}

val run :
  ?jobs:int ->
  ?with_proofs:bool ->
  strategies:Hfi_sfi.Strategy.t list ->
  (string * Hfi_wasm.Instance.workload) list ->
  t
(** Verify every pair. With [~with_proofs:true] cache reads are
    bypassed (an artifact certifies a run of the analysis; replaying a
    cached verdict would leave nothing to revalidate) and each Safe
    cell carries its proof; fresh verdicts are still stored. *)

val exit_code : t -> int
(** Worst verdict, mapped like [hfi_cli verify]: any unsafe is 1, else
    any unknown is 3, else 0. *)

val table : t -> string
(** Kernel-per-row, strategy-per-column verdict grid; a [*] marks a
    cell served from the persistent cache. *)

val summary : t -> string
(** One CI-greppable line:
    [verify-sweep: N cells -> S safe, U unsafe, K unknown; cache H hits / M misses]. *)

val to_json : ?wall_s:float -> t -> string

val proof_filename : kernel:string -> strategy:Hfi_sfi.Strategy.t -> string

val emit_proofs : dir:string -> t -> (int, string) result
(** Write each carried proof to [dir/<kernel>-<strategy>.proof.json]
    through {!Hfi_util.Store.write} (missing directories are created);
    returns how many were written, or the first write's error. *)
