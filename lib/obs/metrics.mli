(** Named-metric registry: monotonic counters, gauges, and fixed-bucket
    histograms, with optional labels (e.g. a per-sandbox or
    per-experiment dimension).

    Instruments are registered once (idempotently, keyed by name +
    labels) and held by the caller, so the hot-path update is O(1): one
    flag load and one [Atomic] update — no hashing, no allocation.
    Updates are domain-safe; the experiment pool can increment shared
    counters from every worker without losing counts.

    All updates are no-ops while {!Obs.metrics_on} is false, so an
    instrumented hot path costs a predictable branch when observability
    is off. *)

type counter
type gauge
type histogram

val counter : ?labels:(string * string) list -> string -> counter
(** Register (or fetch) the counter [name{labels}]. *)

val inc : counter -> unit
val add : counter -> int -> unit

val value : counter -> int

val gauge : ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit

val histogram : ?labels:(string * string) list -> buckets:float array -> string -> histogram
(** [buckets] are increasing upper bounds; an implicit overflow bucket
    catches everything above the last bound. Re-registering an existing
    histogram ignores the new bounds. *)

val observe : histogram -> float -> unit

val bucket_counts : histogram -> int array
(** Per-bucket counts, length [Array.length buckets + 1] (the last slot
    is the overflow bucket). *)

val bucket_bounds : histogram -> float array
val hist_count : histogram -> int
val hist_sum : histogram -> float

val snapshot : unit -> (string * float) list
(** Every registered instrument flattened to [(flat_name, value)] rows,
    sorted by name: counters and gauges one row each; histograms expand
    to [name_bucket{le="b"}], [name_count] and [name_sum] rows. *)

val delta : (string * float) list -> (string * float) list -> (string * float) list
(** [delta after before]: per-key difference, dropping zero rows — the
    per-experiment metrics block of [bench --json]. *)

val to_text : unit -> string
(** One ["name value"] line per snapshot row (Prometheus-style flat
    text). *)

val to_json : unit -> string
(** The snapshot as one flat JSON object. *)

val reset : unit -> unit
(** Zero every registered instrument (registration is kept). *)
