(** Relational extension of the verifier's value domain.

    Two mechanisms on top of the per-register {!Domain} lattice:

    - {b affine offset facts} [r = k*base + \[lo,hi\]] — born at loop-head
      joins (from register pairs that moved in lockstep between the two
      joined states) and at [lea]/[mov], maintained through constant
      increments by offset compensation, and consumed at memory
      operands ({!tighten}) and conditional branches ({!refine_base});
    - {b threshold widening} — interval bounds that grow during the
      ascending phase jump to the nearest compare immediate collected
      from the program instead of straight to infinity, so bounds the
      program itself tests against survive widening.

    Facts are {e must} information: a fact held by an abstract state
    constrains every concrete state it denotes, so joins keep a fact
    only when both sides entail it and widening keeps one only once it
    has stopped moving. *)

type fact = {
  base : int;  (** register index the subject is relative to *)
  k : int;  (** stride; [0 < |k| <= max_k] *)
  lo : int;
  hi : int;  (** inclusive offset hull: [r - k*base] in [lo, hi] *)
}

val max_k : int

val entails : fact option array -> Domain.t array -> int -> fact -> bool
(** [entails facts regs r f]: the state proves [r = f.k * f.base + o]
    with [o] within [f]'s offsets — through its own fact when it has
    one with the same base and stride, else through the interval hull
    of [r - k*base]. *)

val join_facts :
  int -> fact option array -> Domain.t array -> fact option array -> Domain.t array -> fact option
(** [join_facts r a_facts a_regs b_facts b_regs]: the strongest fact
    about register [r] entailed by both states, inferring a new one
    from singleton pairs when neither side carries a fact yet.
    Symmetric in the two states. Allocates only a fact that changed: a
    kept fact whose offsets already cover the other side's is returned
    as the very option [a_facts.(r)] (or [b_facts.(r)]) holds. *)

val widen_facts :
  int -> fact option array -> Domain.t array -> fact option array -> Domain.t array -> fact option
(** Keep a fact only when the incoming state entails the old offsets
    (the fact has stabilized); growing facts are dropped so the
    ascending chain stays finite. *)

val tighten : fact option array -> Domain.t array -> int -> Domain.t
(** [tighten facts regs r]: [regs.(r)] met with
    [k*bounds(base) + [lo,hi]] when [r] carries a fact — the
    concretization step used at memory operands. *)

val refine_base : fact -> refined:Domain.t -> Domain.t -> Domain.t
(** [refine_base f ~refined base_dom]: propagate a branch refinement of
    the fact's subject backwards to its base register:
    [base in [(rl-hi)/k, (rh-lo)/k]] with exact floor/ceiling rounding. *)

val kill : fact option array -> int -> unit
(** Register [d] takes an arbitrary value: drop its fact and every fact
    based on it. *)

val assign_copy : fact option array -> int -> int -> unit
(** [d := s]. *)

val assign_affine : fact option array -> int -> base:int -> k:int -> off:int -> unit
(** [d := k*base + off] (a [lea]). *)

val add_imm : fact option array -> int -> int -> unit
(** [d := d + imm], compensating offsets of [d]'s fact and of facts
    based on [d]. *)

val add_reg : fact option array -> int -> int -> unit
(** [d := d + s]; bumps [k] when [d] was already affine in [s]. *)

val widen_dom : thresholds:int array -> Domain.t -> Domain.t -> Domain.t
(** Interval widening with a sorted threshold ladder; non-interval
    shapes fall back to {!Domain.widen}. Returns [old] itself when no
    bound moved. *)

val leq_dom : Domain.t -> Domain.t -> bool
(** Lattice order via [join a b = b]. *)
