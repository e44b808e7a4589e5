(** Branch prediction state: a gshare PHT for conditional branches, a
    direct-mapped tagged BTB for indirect branches, and a return-address
    stack. These are the structures Spectre-PHT and Spectre-BTB mistrain;
    the cycle engine consults them to decide when wrong-path (transient)
    execution happens. *)

type t

type config = {
  pht_bits : int;  (** log2 of PHT entries *)
  btb_entries : int;
  ras_depth : int;
}

val default_config : config

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] unless [btb_entries] and [ras_depth] are
    powers of two. *)

val predict_cond : t -> pc:int -> bool
(** Taken/not-taken prediction for the conditional branch at [pc]. *)

val update_cond : t -> pc:int -> taken:bool -> unit
(** Train the PHT and shift the global history. *)

val predict_indirect : t -> pc:int -> int
(** BTB lookup: the predicted target index, or -1 on a tag miss.
    Targets are instruction indices, so never negative. *)

val update_indirect : t -> pc:int -> target:int -> unit

val push_ras : t -> int -> unit
val pop_ras : t -> int
(** The predicted return index, or -1 when the stack is empty. *)

val reset : t -> unit
(** Return to the post-[create] state (PHT weakly not-taken, BTB and RAS
    empty, counters zeroed) without reallocating the tables. *)

val cond_lookups : t -> int
val cond_mispredicts : t -> int
val note_cond_mispredict : t -> unit

val indirect_lookups : t -> int
(** BTB lookups plus RAS pops — the denominator for the indirect
    mispredict rate (ret mispredicts count against it too). *)

val indirect_mispredicts : t -> int
val note_indirect_mispredict : t -> unit
