(** Execution tracing and run statistics — the debugging surface a user
    of the simulator reaches for first: per-instruction traces with
    register effects, and a printable summary of a cycle-engine run. *)

type entry = {
  seq : int;  (** committed-instruction sequence number *)
  index : int;  (** instruction index *)
  disasm : string;
  reg_writes : (Reg.t * int) list;  (** registers changed by this instruction *)
  mem : Machine.access option;
  signal : Msr.t option;
}

val pp_entry : Format.formatter -> entry -> unit

val trace : ?limit:int -> Machine.t -> entry list
(** Run the machine one instruction at a time through {!Machine.run}
    (the dispatch path the engines use), recording up to [limit]
    committed instructions (default 200). The machine keeps its final
    architectural state; the trace covers execution from its current
    point. *)

val pp_result : Format.formatter -> Cycle_engine.result -> unit
(** Human-readable cycle-engine summary: cycles, IPC, miss and
    mispredict counts, drains, transient instructions. *)
