(** The verified-load admission gate (load ⇒ verify ⇒ admit).

    Every module entering the serving layer is compiled and fed to the
    {!Hfi_verify} static verifier before any instance of it may
    execute; only a [Safe] verdict admits it. [Unsafe] *and* [Unknown]
    are rejected — an obligation the verifier could not discharge is
    not proof of safety, so the LFI-style gate refuses to run it.

    Each gate compiles a module image once: it keeps a per-gate image
    table from a [workload] {e value} (compared with [==]), the
    strategy and the optimizer switch ([!Hfi_opt.Driver.enabled]) to
    the compiled program's fingerprint, so a warm check never
    recompiles. A [workload] value is therefore treated as an
    immutable module image: to change a module, submit a new value.
    A different value that reuses a name is a different image and is
    compiled and verified on its own.

    Verdicts are cached content-addressed: keyed by the compiled
    program's {!Program.fingerprint} plus the strategy, so identical
    module images verify once per gate however many tenants share
    them, and any compiler or module change invalidates by
    construction. With [HFI_VERIFY_CACHE] set, first-seen fingerprints
    also consult (and feed) the persistent
    {!Hfi_verify.Verdict_cache}, so verification survives process
    restarts; every lookup is counted both here ({!hits} / {!misses} /
    {!persisted}) and as the labeled
    [hfi_verify_cache_events_total{event=...}] observability counter. *)

type t
(** The image table and the verdict cache. Both live as long as the
    gate: nothing is shared between gates except through the opt-in
    persistent cache. *)

val create : unit -> t

type decision =
  | Admitted
  | Rejected of { verdict : string; detail : string }
      (** [verdict] is ["unsafe"] or ["unknown"]; [detail] names the
          first violation or undischarged obligation *)

val check :
  ?ctx:Hfi_obs.Span.ctx ->
  ?at:float ->
  t ->
  strategy:Hfi_sfi.Strategy.t ->
  Hfi_wasm.Instance.workload ->
  decision
(** Find the image's fingerprint (compiling only the first time this
    gate sees the image), look up its verdict (in-memory first, then
    the persistent cache if enabled), verify on a miss and store the
    fresh verdict back. Never instantiates or executes the module. With
    [ctx], records the verdict and its source as an instant admission
    span at virtual time [at] (default 0): outcomes are
    [admitted]/[rejected-*] for a fresh verification, with a [-cached]
    or [-persisted] qualifier for the two cache tiers. *)

val hits : t -> int
val misses : t -> int

val persisted : t -> int
(** Verdicts loaded from the persistent cache (a subset of neither
    {!hits} nor {!misses}: a persistent load is its own event). *)

val poison_workload : Hfi_wasm.Instance.workload
(** A region-escape module (writes a region register from inside the
    sandbox, then stores through it): verifiably [Unsafe], used as the
    poison-tenant image in chaos campaigns and as the admission-gate
    negative control. *)
