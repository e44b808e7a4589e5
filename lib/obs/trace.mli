(** Structured event-trace sink: a fixed-capacity ring buffer of
    simulator events (commit, squash, drain, fault, sandbox transition,
    syscall), exportable as JSONL or as Chrome [trace_event] JSON that
    [chrome://tracing] / Perfetto loads directly.

    Timestamps are modeled cycles (rendered as microseconds in the
    Chrome export, so one trace "µs" is one modeled cycle). The sink is
    global and allocation-free per event after the ring is created;
    {!emit} is a no-op while {!Obs.trace_on} is false. Events are
    deterministic: two runs of the same seeded program emit identical
    streams.

    The ring keeps the most recent [capacity] events; earlier ones are
    counted in {!dropped} rather than kept. Single-domain use is
    assumed (the CLI trace/profile paths are sequential); concurrent
    emitters are memory-safe but may interleave arbitrarily. *)

type kind = Commit | Squash | Drain | Fault | Transition | Syscall

val kind_name : kind -> string

type event = {
  kind : kind;
  ts : float;  (** modeled cycles *)
  dur : float;  (** 0 for instant events *)
  a : int;  (** kind-specific argument; -1 when absent *)
  b : int;
}

val on : unit -> bool
(** [Obs.trace_on] — callers use this to skip argument computation. *)

val emit : ?dur:float -> ?a:int -> ?b:int -> kind -> ts:float -> unit

val length : unit -> int
(** Events currently retained (≤ capacity). *)

val dropped : unit -> int
(** Events emitted but overwritten by ring wrap-around. Surfaced as
    [dropped_events] in both exports; the first wrap also prints a
    one-time warning to stderr. *)

val events : unit -> event list
(** Retained events, oldest first. *)

val clear : unit -> unit

val set_capacity : int -> unit
(** Resize (and clear) the ring. Default 65536, or [HFI_OBS_TRACE_CAP]. *)

val to_chrome_string : unit -> string
(** The retained events as a Chrome [trace_event] JSON document. *)

val to_jsonl_string : unit -> string
(** One event per line, preceded by a meta line carrying the
    retained/dropped counts. *)
