(** Master switches for the observability layer.

    Everything under [Hfi_obs] (metrics, event trace, cycle-attribution
    profile) must be a strict no-op unless explicitly enabled: modeled
    cycles stay bit-identical and the simulator hot paths pay only a
    single flag load per committed instruction when off.

    Enabling, in precedence order:
    - the [HFI_OBS] environment variable at startup: unset, empty or
      ["0"] leaves everything off; ["1"] turns all three subsystems on;
      a comma list (e.g. ["metrics,trace"]) turns on just those;
    - programmatic setters ([set_metrics] etc.), used by the CLI's
      [profile] subcommand and [trace --chrome], and by tests. *)

val metrics_enabled : bool ref
(** Direct flag ref for hot-path guards ([if !Obs.metrics_enabled]);
    prefer the accessors everywhere latency does not matter. *)

val trace_enabled : bool ref
val profile_enabled : bool ref

val metrics_on : unit -> bool
val trace_on : unit -> bool

val enabled : unit -> bool
(** Any of the three subsystems on. *)

val set_metrics : bool -> unit
val set_trace : bool -> unit
val set_profile : bool -> unit

val set_all : bool -> unit
(** Flip every subsystem at once (what [HFI_OBS=1] does at startup). *)
