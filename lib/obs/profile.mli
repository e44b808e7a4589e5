(** Cycle-attribution accumulator for the cycle engine's stall
    breakdown.

    Every time the engine's clock advances it attributes the whole
    delta to one (or a split across a few) of the causes below, so the
    bucket sum reconstructs total modeled cycles instead of one opaque
    number — issue bandwidth vs i-cache misses vs data stalls vs the
    HFI serialization drains the paper's §3.4/§6 claims turn on.

    Attribution never feeds back into timing: with profiling on or off
    the modeled cycle count is bit-identical; the buckets are a pure
    decomposition. Bucket sums equal the engine's cycle total up to
    float summation order (≈1 ulp per instruction). *)

type cause =
  | Issue  (** base issue slots (1/width per committed instruction) *)
  | Icache_miss  (** front-end fetch penalties: fills + L2 stream bandwidth *)
  | Dcache_miss  (** issue stall on a producer that missed the d-cache *)
  | Dtlb_miss  (** issue stall on a producer that missed the dTLB *)
  | Exec_dep  (** issue stall on a producer's execution/hit latency *)
  | Hfi_serialization  (** drains caused by HFI (serialized transitions, §3.4) *)
  | Drain  (** architectural serialization: cpuid / mfence *)
  | Mispredict_refill  (** front-end refill penalty after a squash / BTB stall *)
  | Wrong_path  (** waiting for branch resolution while the wrong path runs *)
  | Kernel  (** modeled kernel time (syscalls) *)
  | Signal  (** signal-delivery cost on faults *)

val all_causes : cause list
val name : cause -> string

type t

val create : unit -> t

val global : t
(** The accumulator the cycle engine attributes into (profiling is a
    whole-process mode; the CLI resets this around one experiment). *)

val note : t -> cause -> float -> unit
(** Add cycles to a bucket. Unguarded — callers check
    [!Obs.profile_enabled] so the off path pays one branch, not a call. *)

val get : t -> cause -> float
val buckets : t -> (cause * float) list
val total : t -> float
val reset : t -> unit

val pp : Format.formatter -> t -> unit
(** Aligned table: cause, cycles, percent of the bucket sum. *)

val to_json : t -> string
