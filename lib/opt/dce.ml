(* Dead-code elimination over the liveness solution: delete pure
   register writes whose destination is dead. Only [Mov], [Lea] and
   non-trapping [Alu] qualify — everything with a memory, stack, flag,
   timing or HFI side effect stays, and [Cmp] stays because a later
   branch reads its snapshot. The main customers are the address-feeding
   [movi]s the constant-index folding in [Rewrite] strands. *)

let deletable (u : Uop.t) =
  match u.Uop.op with
  | Uop.Omov _ | Uop.Olea _ -> true
  | Uop.Oalu { op = Instr.Div; sreg; simm; _ } -> sreg < 0 && simm <> 0
  | Uop.Oalu _ -> true
  | _ -> false

let max_rounds = 8

(* One round: mark every live instruction that is deletable and whose
   destination is dead after it under [live]; returns how many. *)
let sweep (uops : Uop.t array) (live : Liveness.t) dead =
  let count = ref 0 in
  for i = 0 to Array.length uops - 1 do
    let u = uops.(i) in
    if (not dead.(i)) && deletable u && Array.length u.Uop.writes = 1 then
      if not (Liveness.is_live live.Liveness.live_out.(i) u.Uop.writes.(0)) then begin
        dead.(i) <- true;
        incr count
      end
  done;
  !count

(* Rounds over one decode: deleting a use can kill its feeder (movi
   chains), so each round re-solves liveness with the deletions so far
   masked out, up to [max_rounds]. A deletion only lets branch targets
   slide to the next surviving instruction, so the masked solution is
   the one the rebuilt program would give, and one [Edit.rebuild] at
   the end lays out every round's deletions at once. *)
let run_fix ~code_base prog =
  let uops = Uop.decode prog ~code_base in
  let live_p = Liveness.prepare uops (Cfg.build uops) in
  let dead = Array.make (Array.length uops) false in
  let rec go total round =
    if round >= max_rounds then total
    else begin
      let count = sweep uops (Liveness.solve ~dead live_p) dead in
      if count = 0 then total else go (total + count) (round + 1)
    end
  in
  let total = go 0 0 in
  if total = 0 then (prog, 0)
  else begin
    let edit = Edit.create (Program.instrs prog) in
    Array.iteri (fun i d -> if d then Edit.delete edit i) dead;
    (Edit.rebuild edit, total)
  end
