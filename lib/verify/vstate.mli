(** The verifier's abstract machine state, shared by the fixpoint
    driver ({!Checks}) and the independent proof validator
    ({!Proofcheck}): per-register {!Domain} values plus {!Rel} affine
    facts, the pending-compare snapshot, the in/out-of-sandbox flag and
    the active-bank region registers. Proof artifacts record one value
    per basic-block entry, so the JSON round-trip here is exact for the
    full 63-bit integer range (bounds are serialized as decimal
    strings).

    States are immutable once built: nothing may write into the arrays
    of a state another component can see. {!join} and {!widen} rely on
    this — they return their first operand itself, or share its arrays,
    whenever the corresponding component did not move — and {!equal}
    short-circuits on such physically shared components. *)

type sandbox = Sout | Sin | Smaybe

type rstate = Runset | Rknown of Hfi_iface.region | Runknown

type t = {
  regs : Domain.t array;  (** [Reg.count] entries *)
  facts : Rel.fact option array;  (** [Reg.count] entries *)
  cmp_reg : int;  (** register a pending Cmp constrains; -1 = invalid *)
  cmp_rhs : Domain.t;  (** snapshot of the comparison right-hand side *)
  sandbox : sandbox;
  regions : rstate array;  (** active-bank region registers *)
}

val initial : unit -> t
(** Registers [const 0] except a [Stackish] RSP; no facts, no pending
    compare, outside the sandbox, all region slots unset. *)

val equal : t -> t -> bool
(** Structural equality, the meaning of polymorphic [=] on states;
    allocates nothing and returns at once on physically equal states or
    components. *)

val join : t -> t -> t
(** Pointwise join; facts survive only when both sides entail them, and
    new facts are inferred from register pairs that moved in lockstep
    (see {!Rel.join_facts}). Not associative (fact inference depends on
    which side a fact is born on), so callers fold joins in a fixed
    order. Returns the first operand itself when it already covers the
    second, and otherwise shares each of its arrays that did not move. *)

val widen : thresholds:int array -> t -> t -> t
(** Widening: intervals climb the sorted threshold ladder
    ({!Rel.widen_dom}), facts are kept only once stable. Shares the old
    state's unchanged components like {!join}. *)

val leq : t -> t -> bool
(** Inclusion of denoted concrete states — the per-edge check the proof
    validator runs instead of a fixpoint. *)

val to_json : t -> string

exception Malformed of string

val of_json : Hfi_util.Json.t -> t
(** Raises {!Malformed} on any structural problem, including
    denormalized domain encodings and out-of-range register or fact
    indices — a tampered artifact must not round-trip. *)
