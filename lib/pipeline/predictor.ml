type config = { pht_bits : int; btb_entries : int; ras_depth : int }

let default_config = { pht_bits = 12; btb_entries = 512; ras_depth = 16 }

type t = {
  cfg : config;
  btb_mask : int;  (* btb_entries - 1: a power of two, so [land] indexes *)
  ras_mask : int;  (* ras_depth - 1 *)
  pht : int array;  (* 2-bit saturating counters *)
  mutable history : int;
  btb_tags : int array;
  btb_targets : int array;
  ras : int array;
  mutable ras_top : int;
  mutable cond_lookups : int;
  mutable cond_miss : int;
  mutable ind_lookups : int;
  mutable ind_miss : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ?(config = default_config) () =
  if not (is_pow2 config.btb_entries && is_pow2 config.ras_depth) then
    invalid_arg "Predictor.create: btb_entries and ras_depth must be powers of two";
  {
    cfg = config;
    btb_mask = config.btb_entries - 1;
    ras_mask = config.ras_depth - 1;
    pht = Array.make (1 lsl config.pht_bits) 1 (* weakly not-taken *);
    history = 0;
    btb_tags = Array.make config.btb_entries (-1);
    btb_targets = Array.make config.btb_entries 0;
    ras = Array.make config.ras_depth 0;
    ras_top = 0;
    cond_lookups = 0;
    cond_miss = 0;
    ind_lookups = 0;
    ind_miss = 0;
  }

let pht_index t ~pc =
  let mask = (1 lsl t.cfg.pht_bits) - 1 in
  (pc lxor t.history) land mask

let predict_cond t ~pc =
  t.cond_lookups <- t.cond_lookups + 1;
  t.pht.(pht_index t ~pc) >= 2

let update_cond t ~pc ~taken =
  let i = pht_index t ~pc in
  let c = t.pht.(i) in
  t.pht.(i) <- (if taken then Stdlib.min 3 (c + 1) else Stdlib.max 0 (c - 1));
  t.history <- ((t.history lsl 1) lor if taken then 1 else 0) land ((1 lsl t.cfg.pht_bits) - 1)

(* Power-of-two geometry (checked at [create]): these run on every
   simulated branch/call/return, so index math is a mask, not a divide. *)
let btb_index t ~pc = pc land t.btb_mask
let ras_slot t i = i land t.ras_mask

let predict_indirect t ~pc =
  t.ind_lookups <- t.ind_lookups + 1;
  let i = btb_index t ~pc in
  if t.btb_tags.(i) = pc then t.btb_targets.(i) else -1

let update_indirect t ~pc ~target =
  let i = btb_index t ~pc in
  t.btb_tags.(i) <- pc;
  t.btb_targets.(i) <- target

let push_ras t v =
  t.ras.(ras_slot t t.ras_top) <- v;
  t.ras_top <- t.ras_top + 1

let pop_ras t =
  t.ind_lookups <- t.ind_lookups + 1;
  if t.ras_top = 0 then -1
  else begin
    t.ras_top <- t.ras_top - 1;
    t.ras.(ras_slot t t.ras_top)
  end

(* Back to the post-[create] state without reallocating the tables. *)
let reset t =
  Array.fill t.pht 0 (Array.length t.pht) 1 (* weakly not-taken *);
  t.history <- 0;
  Array.fill t.btb_tags 0 (Array.length t.btb_tags) (-1);
  Array.fill t.btb_targets 0 (Array.length t.btb_targets) 0;
  Array.fill t.ras 0 (Array.length t.ras) 0;
  t.ras_top <- 0;
  t.cond_lookups <- 0;
  t.cond_miss <- 0;
  t.ind_lookups <- 0;
  t.ind_miss <- 0

let cond_lookups t = t.cond_lookups
let cond_mispredicts t = t.cond_miss
let note_cond_mispredict t = t.cond_miss <- t.cond_miss + 1
let indirect_lookups t = t.ind_lookups
let indirect_mispredicts t = t.ind_miss
let note_indirect_mispredict t = t.ind_miss <- t.ind_miss + 1
