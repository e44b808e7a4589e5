(** Abstract value domain of the static verifier.

    Per-register abstraction combining three views of a 63-bit machine
    integer:

    - an interval [Itv] with saturating arithmetic — precise for loop
      counters, constants and effective-address ranges;
    - a bitset view [Masked]: the set [{ base lor s | s subset mask }]
      with [base land mask = 0], both non-negative. This is the shape
      SFI masking produces ([And scratch, size-1] then
      [Or scratch, base]) and is closed under [land]/[lor];
    - a [Stackish] taint for values derived from the stack pointer.
      Stack traffic is exempt from sandbox confinement (mirroring the
      rewriter's push/pop/stack-operand exemption), so the verifier only
      needs to know a value {e is} stack-derived, not its numeric range.

    The concretization of [Masked { base; mask }] has bounds
    [(base, base + mask)] — the two components have disjoint bits, so
    the sum never overflows and equals [base lor mask].

    {b Allocation.} Queries ([has_bounds], [lower], [upper],
    [is_singleton], [within], [disjoint], [equal]) never allocate, and
    operations allocate only the value they return: when the result is
    structurally equal to one of the inputs, that input is returned
    itself (e.g. [join a b] is [a] when [a] already covers [b]). Values
    are immutable, so callers may share them freely, and physical
    equality implies {!equal}. *)

type t =
  | Bot  (** unreachable / contradiction *)
  | Itv of { lo : int; hi : int }  (** [lo <= hi]; [top] is [min_int..max_int] *)
  | Masked of { base : int; mask : int }
      (** [base land mask = 0], [base >= 0], [mask > 0] *)
  | Stackish  (** derived from the stack pointer by constant offsets *)

val top : t
val const : int -> t

val itv : int -> int -> t
(** [itv lo hi]; [Bot] when [lo > hi]. *)

val masked : base:int -> mask:int -> t
(** Normalizing constructor: folds overlapping bits into [base], returns
    [const base] for an empty mask and [top] when either side is
    negative. *)

val is_bot : t -> bool

val equal : t -> t -> bool
(** Structural equality (the meaning of polymorphic [=]); short-circuits
    on physical equality. *)

(** {1 Allocation-free views} *)

val has_bounds : t -> bool
(** The value has a finite concretization hull: [Itv] and [Masked];
    [false] for [Bot] and [Stackish]. *)

val lower : t -> int
(** Lowest concrete value. Requires [has_bounds]; raises
    [Invalid_argument] otherwise. *)

val upper : t -> int
(** Highest concrete value ([base + mask] for [Masked]). Requires
    [has_bounds]; raises [Invalid_argument] otherwise. *)

val is_singleton : t -> bool
(** The abstraction denotes exactly one value, which is then [lower]
    (and [upper]). *)

(** {1 Lattice and transfer} *)

val join : t -> t -> t
(** Least upper bound; returns an input that already covers the other
    one as is. *)

val widen : t -> t -> t
(** [widen old next]: interval sides that grew jump to infinity; the
    [Masked] component joins (its lattice is finite, height <= 63). *)

val meet_itv : t -> lo:int -> hi:int -> t
(** Intersect with an interval (branch refinement). [Stackish] is kept
    as-is: the taint cannot be numerically refined. *)

val within : t -> lo:int -> hi:int -> bool
(** Every concrete value lies in [lo..hi] (both inclusive). [false] for
    [Stackish] (not numerically provable), [true] for [Bot]. *)

val disjoint : t -> lo:int -> hi:int -> bool
(** No concrete value lies in [lo..hi]. [false] for [Stackish]. *)

val add : t -> t -> t
(** Saturating interval addition; [Stackish + singleton] stays
    [Stackish] (frame arithmetic). *)

val sub : t -> t -> t

val alu : Instr.alu_op -> t -> t -> t
(** Transfer for [dst <- dst op src]. [And]/[Or]/[Xor] operate on the
    bitset view (an [And] with a non-negative constant always yields a
    [Masked], even from [top] or [Stackish] — this is what discharges
    SFI masking). Shifts require a constant non-negative count. Callers
    must special-case [Xor r, r] (idiomatic zeroing) themselves: the
    domain cannot see that both operands are the same variable. *)

val load_result : bytes:int -> t
(** Value produced by a zero-extending load of [bytes] (1, 2, 4 yield
    the exact bit range; 8 yields [top]). *)

val refine : Instr.cond -> t -> rhs:t -> t
(** [refine c x ~rhs]: [x] assuming [x c rhs] holds. Signed conditions
    refine via [rhs]'s interval; [Ult]/[Ule] refine to [0..rhi-1] /
    [0..rhi] when [rhs] is provably non-negative (the shape of an
    unsigned bounds check against a sandbox limit). Refining the
    fall-through edge is [refine (Instr.negate_cond c)]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
