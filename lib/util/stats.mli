(** Statistics helpers shared by every experiment: summary statistics over
    float samples, latency percentiles, and fixed-bucket histograms. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean; all inputs must be positive. 0 on the empty list. *)

val median : float list -> float

val stddev : float list -> float
(** Population standard deviation. *)

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [\[0,100\]], linear interpolation between
    order statistics. Raises [Invalid_argument] on the empty list. *)

val percentile_sorted : float -> float array -> float
(** [percentile] over samples already sorted with [Float.compare], so
    several percentiles of one sample set sort it once. *)

val min_max : float list -> float * float

(** Online accumulator for latency samples with percentile queries. *)
module Latency : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val percentile : t -> float -> float

  val tail : t -> float
  (** The p99 tail latency, as reported in Table 1 of the paper. *)

  val max : t -> float
end

(** Fixed-bucket histogram over a closed value range. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> buckets:int -> t
  val add : t -> float -> unit

  val counts : t -> int array
  (** Per-bucket counts; out-of-range samples clamp to the end buckets. *)

  val bucket_mid : t -> int -> float
  val total : t -> int

  val render : t -> width:int -> string
  (** ASCII rendering, one line per non-empty bucket. *)
end
