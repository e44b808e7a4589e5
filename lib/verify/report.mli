(** Typed verdicts of the static sandbox-safety verifier.

    A verification run over one compiled program ends in exactly one of
    three states: [Safe] — all three properties (SFI discipline, HFI
    configuration invariants, CFI) were proved; [Unsafe] — at least one
    instruction demonstrably violates a property, each violation naming
    the offending instruction; [Unknown] — nothing was refuted but some
    obligation could not be discharged (an unresolved indirect target,
    an unproven confinement). [Unknown] is deliberately distinct from
    [Safe]: a load-time admission check can choose to reject it. *)

(** Which of the three verified properties a finding belongs to. *)
type property =
  | Sfi_discipline
      (** a memory operand is not confined to the sandbox data region by
          a dominating mask/bounds sequence *)
  | Hfi_invariant
      (** region-configuration state touched outside the trusted
          enter/exit sequences, or an [hmov] with no matching declared
          region *)
  | Cfi  (** a static or resolved branch target outside the code region *)

val property_name : property -> string
(** Stable short tag: ["sfi-discipline"], ["hfi-invariant"], ["cfi"]. *)

(** A refuted obligation, anchored to the offending instruction. *)
type violation = {
  property : property;
  index : int;  (** instruction index within the program *)
  addr : int;  (** byte address ([code_base] + offset) *)
  instr : string;  (** rendered instruction ([Instr.to_string]) *)
  detail : string;
}

(** An obligation the verifier could not discharge either way. *)
type reason = {
  r_index : int option;  (** instruction it arose at, when one exists *)
  what : string;
}

type verdict = Safe | Unsafe of violation list | Unknown of reason list

type t = {
  target : string;  (** program identifier (kernel name, fuzz seed, ...) *)
  strategy : string;
  verdict : verdict;
  blocks : int;  (** CFG basic blocks *)
  instrs : int;
  checked_mem : int;  (** memory operands with a discharged obligation *)
  checked_branches : int;  (** control transfers with a discharged obligation *)
  iterations : int;  (** fixpoint passes until convergence *)
}

val verdict_name : verdict -> string
(** ["safe"], ["unsafe"] or ["unknown"]. *)

val compare_violation : violation -> violation -> int
(** Total order by instruction index, then property kind, then detail
    text — the stable order the verifier sorts [Unsafe] details into so
    JSON output is byte-identical run to run. *)

val compare_reason : reason -> reason -> int
(** Total order: program-wide reasons (no instruction) first, then by
    instruction index, then text. *)

val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string

val to_string : t -> string
(** Stable multi-line rendering: one summary line, then one line per
    violation/reason. *)

val to_json : t -> string
(** Stable JSON object with fields [target], [strategy], [verdict],
    [blocks], [instrs], [checked_mem], [checked_branches],
    [iterations], and a [violations]/[reasons] array. *)

val escape : string -> string
(** {!Hfi_util.Json.escape}, under the name external callers use. *)

val of_json : Hfi_util.Json.t -> t option
(** Inverse of {!to_json} (via {!Hfi_util.Json}); [None] on any
    structural mismatch — a corrupt cache entry must read as a miss. *)
