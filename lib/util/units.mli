(** Size and time constants, conversions, and human-readable formatting.
    Cycle→time conversion uses the modeled core frequency (Table 2 of the
    paper: 3.3 GHz) unless overridden. *)

val kib : int
val mib : int
val gib : int
val tib : int

val page_size : int
(** 4 KiB, the base page of the modeled x86-64 MMU. *)

val core_frequency_hz : float
(** Modeled core clock, 3.3 GHz. *)

val cycles_to_seconds : ?hz:float -> float -> float
val cycles_to_ms : ?hz:float -> float -> float
val cycles_to_us : ?hz:float -> float -> float
val seconds_to_cycles : ?hz:float -> float -> float

val pp_bytes : int -> string
(** "512 B", "4.0 KiB", "8.0 GiB", ... *)

val pp_cycles : float -> string
(** Cycles with thousands separators. *)

val pp_time_s : float -> string
(** Seconds pretty-printed with an adaptive unit (ns/µs/ms/s). *)

val pp_ratio : float -> string
(** "+34.7%" / "-3.2%" style percentage-delta rendering of a ratio
    relative to 1.0. *)
