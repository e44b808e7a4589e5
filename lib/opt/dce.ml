(* Dead-code elimination over the liveness solution: delete pure
   register writes whose destination is dead. Only [Mov], [Lea] and
   non-trapping [Alu] qualify — everything with a memory, stack, flag,
   timing or HFI side effect stays, and [Cmp] stays because a later
   branch reads its snapshot. The main customers are the address-feeding
   [movi]s the constant-index folding in [Rewrite] strands.

   Each round ([round]) solves liveness per block and walks the blocks
   itself; [sweep] over a full [Liveness.solve] is the per-instruction
   reference it must match, kept for the tests. *)

let deletable (u : Uop.t) =
  match u.Uop.op with
  | Uop.Omov _ | Uop.Olea _ -> true
  | Uop.Oalu { op = Instr.Div; sreg; simm; _ } -> sreg < 0 && simm <> 0
  | Uop.Oalu _ -> true
  | _ -> false

let max_rounds = 8

let deletes (u : Uop.t) live_out =
  deletable u && Array.length u.Uop.writes = 1 && not (Liveness.is_live live_out u.Uop.writes.(0))

(* Reference round, over a full per-instruction solution: mark every
   live instruction that is deletable and whose destination is dead
   after it under [live]; returns how many. [round] must delete exactly
   what this deletes. *)
let sweep (uops : Uop.t array) (live : Liveness.t) dead =
  let count = ref 0 in
  for i = 0 to Array.length uops - 1 do
    if (not dead.(i)) && deletes uops.(i) live.Liveness.live_out.(i) then begin
      dead.(i) <- true;
      incr count
    end
  done;
  !count

(* One round: solve the block-level problem under [dead], then walk each
   block backwards with a running live-out mask, as [Liveness.solve]
   does, but without per-instruction arrays. The dead set stays frozen
   for the whole walk — an instruction deleted this round still reads
   its operands until the next round — so the new deletions are
   collected and applied after it. Returns how many. *)
let round (p : Liveness.prepared) dead =
  let uops = p.Liveness.uops in
  let blocks = p.Liveness.cfg.Cfg.blocks in
  let blk_in = Liveness.solve_blocks ~dead p in
  let deleted = ref [] and count = ref 0 in
  for b = 0 to Array.length blocks - 1 do
    let blk = blocks.(b) in
    let live = ref (Liveness.block_out p blk_in b) in
    for i = blk.Cfg.last downto blk.Cfg.first do
      if not dead.(i) then begin
        if deletes uops.(i) !live then begin
          deleted := i :: !deleted;
          incr count
        end;
        live := !live land lnot p.Liveness.kill.(i) lor p.Liveness.gen.(i)
      end
    done
  done;
  List.iter (fun i -> dead.(i) <- true) !deleted;
  !count

(* Rounds over one decode: deleting a use can kill its feeder (movi
   chains), so each round re-solves liveness with the deletions so far
   masked out, up to [max_rounds] — a cap the SPEC-like corpus reaches
   with deletions still pending, so the rounds are not run to their
   limit. A deletion only lets branch targets slide to the next
   surviving instruction, so the masked solution is the one the rebuilt
   program would give. Returns the dead set and the count of each round
   that deleted something, in round order. *)
let rounds (p : Liveness.prepared) =
  let dead = Array.make (Array.length p.Liveness.uops) false in
  let rec go acc r =
    if r >= max_rounds then List.rev acc
    else begin
      let count = round p dead in
      if count = 0 then List.rev acc else go (count :: acc) (r + 1)
    end
  in
  let counts = go [] 0 in
  (dead, counts)

(* One [Edit.rebuild] at the end lays out every round's deletions at once. *)
let run_fix ~code_base prog =
  let uops = Uop.decode prog ~code_base in
  let dead, counts = rounds (Liveness.prepare uops (Cfg.build uops (Uop.layout prog ~code_base))) in
  let total = List.fold_left ( + ) 0 counts in
  if total = 0 then (prog, 0)
  else begin
    let edit = Edit.create prog ~code_base in
    Array.iteri (fun i d -> if d then Edit.delete edit i) dead;
    (Edit.rebuild edit, total)
  end
