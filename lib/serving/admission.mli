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
    [hfi_verify_cache_events_total{event=...}] observability counter.

    Gates can also share a campaign {!memo}: the serving layer gives
    every shard of one [Server.simulate] call its own gate on one memo,
    so a campaign compiles and verifies each distinct image once, not
    once per shard. The memo only saves work: each gate still counts
    and reports exactly what it would without one. *)

type memo
(** Compiled images (program and fingerprint) and verifier reports,
    both pure functions of their keys, shared by the gates created on
    it. Safe to share across domains; it lives as long as its holder,
    so a campaign's memo dies with the campaign. *)

val memo : unit -> memo

type t
(** A gate: its own image table, verdict table and counters, plus the
    memo it was created on, if any. *)

val create : ?memo:memo -> unit -> t
(** Without [memo], the gate shares nothing with other gates except
    through the opt-in persistent cache. *)

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
    gate sees the image, or taking it from the memo), look up its
    verdict (this gate's table first, then the persistent cache if
    enabled, then the memo), verify on a miss and store the fresh
    verdict back. A verdict the memo supplies counts as this gate's
    miss, like a fresh verification. Never instantiates or executes
    the module. With [ctx], records the verdict and its source as an
    instant admission span at virtual time [at] (default 0): outcomes
    are [admitted]/[rejected-*] for a fresh or memo verdict, with a
    [-cached] or [-persisted] qualifier for the two cache tiers. *)

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
