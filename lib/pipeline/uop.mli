(** Pre-decoded µops.

    Each distinct instruction of a {!Hfi_isa.Program.t} is lowered once
    into a flat record: operand registers resolved to [Reg.index] ints,
    immediates extracted, cost metadata (latency, cost class, encoded
    length, off-critical-path flag) precomputed. Every field is derived
    by the same [Instr] functions the engines previously called per
    dynamic instruction, so consuming the decoded form cannot change
    modeled cycle counts.

    A µop is position-free and read-only. It records nothing about where
    its instruction sits, so structurally equal instructions share one
    record, at every position of a program and across the programs the
    optimizer derives from it ({!carry}). Where an instruction sits is
    the program's {!layout}: its basic-block extent and fetch address.
    At run time the executing position travels in the machine's event
    ({!Machine.event}'s [index] and [fetch_addr]), not in the µop.

    The decoded array and the layout are memoized together on the
    program itself (via {!Hfi_isa.Program.set_decoded}), keyed by the
    code base address. Programs the optimizer rebuilds arrive with them
    already memoized ({!carry}), equal to what {!decode_fresh} gives. *)

(** Pre-resolved operand form of [Instr.t]. Register operands are
    [Reg.index] ints; -1 means "absent" (no base/index register,
    immediate source). [sreg]/[simm] pairs encode an [Instr.src]:
    register if [sreg >= 0], else the immediate [simm]. *)
type op =
  | Omov of { d : int; sreg : int; simm : int }
  | Oload of { bytes : int; d : int; mbase : int; midx : int; mscale : int; mdisp : int }
  | Ostore of {
      bytes : int;
      mask : int;  (** land-mask for the stored value; -1 for full width *)
      mbase : int;
      midx : int;
      mscale : int;
      mdisp : int;
      sreg : int;
      simm : int;
    }
  | Ohload of { region : int; bytes : int; d : int; midx : int; mscale : int; mdisp : int }
  | Ohstore of {
      region : int;
      bytes : int;
      mask : int;
      midx : int;
      mscale : int;
      mdisp : int;
      sreg : int;
      simm : int;
    }
  | Olea of { d : int; mbase : int; midx : int; mscale : int; mdisp : int }
  | Oalu of { op : Instr.alu_op; d : int; sreg : int; simm : int }
  | Ocmp of { d : int; sreg : int; simm : int }
  | Ocmp_mem of { d : int; mbase : int; midx : int; mscale : int; mdisp : int }
  | Ojmp of int
  | Ojcc of { cond : Instr.cond; target : int }
  | Ojmp_ind of int
  | Ocall of int
  | Ocall_ind of int
  | Oret
  | Opush of int
  | Opop of int
  | Osyscall
  | Ohfi_enter of Hfi_iface.sandbox_spec
  | Ohfi_exit
  | Ohfi_reenter
  | Ohfi_set_region of { slot : int; region : Hfi_iface.region }
  | Ohfi_clear_region of int
  | Ohfi_clear_all
  | Ohfi_get_region of { slot : int; d : int }
  | Ocpuid
  | Ordtsc of int
  | Ordmsr of int
  | Oclflush of { mbase : int; midx : int; mscale : int; mdisp : int }
  | Omfence
  | Onop
  | Ohalt

(** Fast-engine base-cost class. *)
type cost_class = Cmul | Cdiv | Calu | Cload | Cstore | Cbranch | Cother

(** One distinct instruction, decoded. Read-only: a record is shared by
    every position holding an equal instruction and by every program
    carried from this one, and the empty and one-register [reads] and
    [writes] arrays are shared by all µops, so writing into any of them
    would corrupt every other user. *)
type t = {
  op : op;
  instr : Instr.t;  (** original AST node (tracing, trap paths, pp) *)
  length : int;  (** encoded length in bytes ([Instr.length]) *)
  reads : int array;  (** [Reg.index] of [Instr.reads], in order *)
  writes : int array;  (** [Reg.index] of [Instr.writes], in order *)
  off_critical : bool;  (** resolved off the issue critical path *)
  base_serializing : bool;  (** cpuid/mfence: serializes regardless of HFI *)
  is_cpuid : bool;
  latency : float;  (** cycle-engine execution latency *)
  cost_class : cost_class;
}

(** Where each instruction of one program, loaded at one code base,
    sits. Indexed by instruction index, like the µop array. Read-only. *)
type layout = {
  block_last : int array;
      (** index of the last instruction of the basic block containing
          each instruction *)
  fetch_addr : int array;  (** code_base + byte offset of each instruction *)
}

val decode : Program.t -> code_base:int -> t array
(** Decoded form of the whole program: position [i] holds the µop of
    instruction [i]. Memoized on the program with its {!layout}, keyed by
    [code_base]; a different base re-decodes and replaces the memo. *)

val layout : Program.t -> code_base:int -> layout
(** The layout memoized with {!decode} (decoding first if needed). *)

val decode_fresh : Program.t -> code_base:int -> t array * layout
(** Always re-decode, bypassing the memo (tests). *)

val memoized : Program.t -> code_base:int -> t array option
(** The memo, when it holds µops decoded at [code_base]; never decodes. *)

val carry : t array -> origin:int array -> Program.t -> code_base:int -> unit
(** [carry src ~origin prog ~code_base] seeds [prog]'s memo from the
    µops [src] of the program it was rebuilt from. [origin.(j)] is the
    source index of instruction [j], or -1 when it is new. When
    instruction [j] equals [src.(origin.(j)).instr] (physically or
    structurally), its µop is that very record; every other instruction
    is lowered exactly as {!decode_fresh} lowers it, and the layout is
    computed afresh. The seeded memo is therefore structurally equal to
    [decode_fresh prog ~code_base], and shares its records with [src].

    Programs rebuilt by the optimizer's edit buffer from a program whose
    memo already holds µops at the same base arrive this way, so each
    optimized program is decoded from scratch once, before its first
    pass. *)

(** {1 Control-flow metadata — read-only view}

    The block extents and statically resolved branch targets the
    dispatch loop uses internally, exported for pre-execution analyses
    (the static verifier in [lib/verify]). Everything here is derived
    from the same decoded array the engines execute, so an analysis over
    this view reasons about exactly the program the machine runs. *)

(** How control leaves an instruction. Targets are instruction indices
    (not byte addresses) and are reported even when out of program
    range — consumers decide whether that is a fault or a violation. *)
type flow =
  | Seq  (** falls through to [index + 1] only *)
  | Jump of int  (** unconditional direct jump *)
  | Cond_jump of int  (** taken target; falls through otherwise *)
  | Indirect_jump  (** target read from a register at runtime *)
  | Direct_call of int  (** pushes a return address, jumps to the target *)
  | Indirect_call
  | Return  (** target read from the stack *)
  | Syscall_flow  (** falls through, or redirects to the exit handler *)
  | Transition_flow
      (** hfi_enter/exit/reenter: falls through, or jumps to the
          configured exit handler *)
  | Stop  (** halt *)

val flow_of : t -> flow

val static_successors : t array -> int -> int list
(** Indices execution can transfer to from instruction [i] along
    statically resolvable edges. Excludes targets read from registers or
    the stack (indirect jumps/calls, returns), trap redirections, and
    exit-handler jumps; out-of-range direct targets are dropped. For the
    fully static flows ([Seq], [Jump], [Cond_jump], [Direct_call]) the
    interpreter's actual successor is always a member of this list
    unless the instruction trapped. *)

val is_block_head : layout -> int -> bool
(** True when instruction [i] starts a basic block (the entry, a static
    branch target, or the fallthrough of a block-ending instruction) —
    the leaders matching the [block_last] extents. *)
