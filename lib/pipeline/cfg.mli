(** Control-flow graph over a decoded program.

    Blocks are the {!Hfi_pipeline.Uop.layout} basic-block extents:
    leaders are the entry, static branch targets and fallthroughs of
    block-ending instructions, so the graph partitions exactly the instruction runs
    the dispatch loop executes. Edges cover the statically resolvable
    flows; indirect jumps/calls get no build-time edges (the verifier
    adds edges it can resolve during fixpoint, and anything unresolved
    forces an [Unknown] verdict, which keeps the missing edges sound). *)

(** How a block ends. Successor payloads are {e block ids}. *)
type term =
  | Tfall of int option
      (** sequential end (plain fallthrough, syscall, HFI transition);
          [None] when the program runs off its end *)
  | Tjump of int
  | Tcond of { taken : int; fall : int option }
  | Tjump_ind  (** no static successors *)
  | Tcall of { target : int; ret : int option }
      (** [ret]: the return-point block after the call site *)
  | Tcall_ind of { ret : int option }
  | Tret  (** successors are every known return-point block *)
  | Thalt
  | Tout of int
      (** direct branch target out of program range (raw instruction
          index) — always a CFI violation *)

type block = {
  id : int;
  first : int;  (** leader instruction index *)
  last : int;  (** last instruction index *)
  term : term;
  succs : int list;  (** successor block ids, including ret edges *)
}

type t = {
  blocks : block array;  (** entry is block 0 *)
  block_of_instr : int array;  (** instruction index -> block id *)
  ret_points : int list;
      (** blocks that are the return point of some (direct or indirect)
          call site; the successor set of every [Tret] *)
}

val build : Uop.t array -> Uop.layout -> t
(** The graph of a program's µops and their layout (as {!Uop.decode}
    and {!Uop.layout} give them). *)

val is_sink : t -> block -> bool
(** A block other than the entry whose terminator can yield no
    out-edge: [Thalt], [Tfall None], [Tout _], or [Tret] when the
    program has no return points. No other block's state is derived
    from a sink's, so a fixpoint may solve it once, after the rest has
    converged (the shared Wasm trap block is one, with an in-edge from
    every bounds check). Indirect jumps and calls are never sinks:
    the verifier resolves their edges during the fixpoint. *)

val reachable : t -> bool array
(** Blocks reachable from the entry along all recorded edges. *)

val depth0_reachable : ?extra_edges:(int * int) list -> t -> bool array
(** Blocks reachable from the entry with an {e empty call stack}: calls
    continue at their return point (assuming the callee returns) without
    entering the callee, and traversal stops at [Tret]. A [Tret] block
    in this set may execute [ret] without a frame to return to.
    [extra_edges] adds (from-block, to-block) pairs for indirect jumps
    the verifier resolved during fixpoint. *)
