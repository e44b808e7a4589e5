(** The forward worklist fixpoint over a {!Cfg}, shared by the static
    verifier and the optimizer's interval analysis; each supplies its
    own abstract state and block transfer. An ascending phase (widening
    after three growths of a block, at most [200 * nb + 1000] visits
    for [nb] blocks) is followed by a narrowing reset and a descending
    phase of at most [32 * nb] visits. {!Cfg.is_sink} blocks stay off
    the worklist and are solved once, at the end. *)

type 'a result = {
  states : 'a option array;
      (** per block in-state, [None] if never reached; not sound
          unless [converged] *)
  converged : bool;  (** the ascending phase finished within its budget *)
  stable : bool;
      (** [converged] and the descending phase drained too: every
          recorded contribution is the transfer of its source's state,
          and every state covers the join of its contributions *)
  iterations : int;  (** worklist pops over both phases *)
}

val solve :
  init:'a ->
  join:('a -> 'a -> 'a) ->
  widen:('a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  transfer:('a -> Cfg.block -> (int * 'a) list) ->
  Cfg.t ->
  'a result
(** [init] is the entry block's state, [widen old (join old j)] the
    widened join, and [transfer s blk] the (target block, contribution)
    out-edges of [blk] from in-state [s]. An empty CFG is [stable]. *)
