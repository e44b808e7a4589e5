(** The single-basic-block abstract transfer, shared verbatim by the
    fixpoint driver ({!Checks}) and the independent proof validator
    ({!Proofcheck}). One copy of the semantics is the point: the
    validator re-runs exactly what the fixpoint ran, swapping the
    worklist for per-edge inclusion checks. *)

type spec = {
  strategy : Hfi_sfi.Strategy.t;
  code_base : int;  (** where the program's instruction 0 is fetched *)
}

type window = { wlo : int; whi : int }  (** inclusive plain-access window *)

val windows : Hfi_sfi.Strategy.t -> window list
(** Stack, globals, and heap-plus-guard-slack windows for the strategy. *)

(** Mutable per-verification context: the decoded program, its CFG, the
    windows, resolved indirect edges, and the obligation log the
    [~record] pass fills. *)
type ctx = {
  spec : spec;
  prog : Program.t;  (** resolves indirect targets ({!Program.index_of_byte}) *)
  uops : Uop.t array;
  cfg : Cfg.t;
  byte_size : int;
  imm : Domain.t array;
      (** per instruction, the constant its immediate operand denotes (a
          source immediate or a memory displacement), built once so block
          visits allocate none *)
  wins : window list;
  dyn_edges : (int * int, unit) Hashtbl.t;
  mutable viols : Report.violation list;
  mutable reasons : Report.reason list;
  mutable checked_mem : int;
  mutable checked_branches : int;
}

val make_ctx : spec -> Program.t -> ctx
(** Decode, build the CFG and the immediate-operand constants; empty
    logs. *)

val reason : ctx -> record:bool -> int -> string -> unit
val count_branch : ctx -> record:bool -> unit

val simulate : ctx -> record:bool -> Vstate.t -> Cfg.block -> (int * Vstate.t) list
(** Simulate one block from an in-state and return the per-out-edge
    contributions (conditional edges branch-refined, including backward
    refinement through affine facts; indirect edges resolved through
    the program's byte-offset index and logged in [dyn_edges]). With
    [~record:true], every discharged or failed obligation is logged in
    the context. The in-state is not modified; the out-states may share
    its unchanged arrays (see {!Vstate}). *)
