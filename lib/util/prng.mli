(** Deterministic pseudo-random number generation.

    All simulations in this repository are deterministic: every source of
    randomness flows through a [Prng.t] seeded explicitly, so experiments
    are reproducible run-to-run. The generator is splitmix64, which is
    fast, has a 64-bit state, and passes BigCrush. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy: advancing one does not affect the other. *)

val next : t -> int
(** Next raw value, uniform over the non-negative OCaml [int] range
    (62 random bits). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val int_in : t -> min:int -> max:int -> int
(** Uniform in the inclusive range [\[min, max\]]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal deviate by Box–Muller. *)

val exponential : t -> mean:float -> float
(** Exponential deviate with the given mean; used for request
    inter-arrival times. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val split : t -> t
(** Derive an independent generator from [t]'s stream, advancing [t]. *)
