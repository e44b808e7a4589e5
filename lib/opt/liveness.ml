(* Backward register liveness over the µop CFG, as 16-bit register
   bitmasks (one bit per [Reg.index]). Syscalls, HFI transitions and
   region instructions are treated as reading every register (the
   kernel and trusted runtime may inspect any of them); [Halt] exposes
   the RAX result convention.

   Solved per block: each block's instructions fold into one gen/kill
   pair, and a predecessor worklist re-solves only blocks whose
   successors' live-in grew. The problem is union-only, so the least
   fixpoint is unique and independent of visit order.

   Everything a solve needs that does not depend on the dead set — the
   per-instruction gen/kill masks and the block predecessor lists — is
   computed once by [prepare]. A [prepared] value is immutable and
   describes one decoded program: [solve] may run on it any number of
   times, with any dead set, and returns exactly what [compute] on the
   same program and dead set returns.

   Two consumers share the block-level fixpoint [solve_blocks]. [solve]
   expands it into per-instruction [live_in]/[live_out] arrays for
   [Regalloc] (which also reads the kill masks as the per-instruction
   write sets) and for the tests. DCE prepares once per run and, in
   each round, walks the blocks itself from [block_out] without
   building those arrays ([Dce.round]); [solve] followed by [Dce.sweep]
   is the reference that round is tested against. *)

let all_mask = (1 lsl Reg.count) - 1
let rax_mask = 1 lsl Reg.index Reg.RAX

let mask_of_arr (a : int array) =
  let m = ref 0 in
  for j = 0 to Array.length a - 1 do
    m := !m lor (1 lsl a.(j))
  done;
  !m

(* Instructions whose register effects extend beyond [Uop.reads]. *)
let reads_everything (u : Uop.t) =
  match u.Uop.op with
  | Uop.Osyscall | Uop.Ohfi_enter _ | Uop.Ohfi_exit | Uop.Ohfi_reenter | Uop.Ohfi_set_region _
  | Uop.Ohfi_clear_region _ | Uop.Ohfi_clear_all | Uop.Ocpuid ->
    true
  | _ -> false

let gen_of (u : Uop.t) = if reads_everything u then all_mask else mask_of_arr u.Uop.reads
let kill_of (u : Uop.t) = mask_of_arr u.Uop.writes
let gen_kill u = (gen_of u, kill_of u)

type prepared = {
  uops : Uop.t array;
  cfg : Cfg.t;
  gen : int array;  (* per instruction *)
  kill : int array;  (* per instruction: the registers it writes *)
  preds : int list array;  (* per block *)
}

let prepare (uops : Uop.t array) (cfg : Cfg.t) =
  { uops; cfg; gen = Array.map gen_of uops; kill = Array.map kill_of uops; preds = Dom.preds_of cfg }

type t = { live_in : int array; live_out : int array }

let is_dead dead i = match dead with Some d -> d.(i) | None -> false

let term_live (b : Cfg.block) =
  match b.Cfg.term with
  | Cfg.Thalt -> rax_mask
  (* unresolved control flow: assume anything may be read next *)
  | Cfg.Tjump_ind | Cfg.Tcall_ind _ | Cfg.Tout _ -> all_mask
  | Cfg.Tfall None -> all_mask  (* running off the end: conservative *)
  | _ -> 0

let rec or_live_in blk_in acc = function
  | [] -> acc
  | s :: rest -> or_live_in blk_in (acc lor blk_in.(s)) rest

(* Blocks waiting to be re-solved, each on it at most once: a stack of
   [nb] slots (any order reaches the same fixpoint) *)
type worklist = { stack : int array; on : bool array; mutable top : int }

let push w b =
  if not w.on.(b) then begin
    w.on.(b) <- true;
    w.stack.(w.top) <- b;
    w.top <- w.top + 1
  end

let rec push_all w = function
  | [] -> ()
  | b :: rest ->
    push w b;
    push_all w rest

(* Registers live at the end of block [b], given each block's live-in. *)
let block_out p blk_in b =
  let blk = p.cfg.Cfg.blocks.(b) in
  or_live_in blk_in (term_live blk) blk.Cfg.succs

(* The block-level problem, shared by [solve] and [Dce.round]: each
   block's live-in under [dead], which marks instructions to treat as
   deleted — they neither read nor write, exactly as if [Edit.rebuild]
   had dropped them. *)
let solve_blocks ?dead p =
  let blocks = p.cfg.Cfg.blocks in
  let nb = Array.length blocks in
  (* block transfer: live_in = gen | (live_out & ~kill) *)
  let gen = Array.make nb 0 and kill = Array.make nb 0 in
  for b = 0 to nb - 1 do
    let blk = blocks.(b) in
    for i = blk.Cfg.last downto blk.Cfg.first do
      if not (is_dead dead i) then begin
        let k = p.kill.(i) in
        gen.(b) <- p.gen.(i) lor (gen.(b) land lnot k);
        kill.(b) <- kill.(b) lor k
      end
    done
  done;
  let blk_in = Array.make nb 0 in
  let w = { stack = Array.make nb 0; on = Array.make nb false; top = 0 } in
  (* the last block first: liveness flows backwards *)
  for b = 0 to nb - 1 do
    push w b
  done;
  while w.top > 0 do
    w.top <- w.top - 1;
    let b = w.stack.(w.top) in
    w.on.(b) <- false;
    let ni = gen.(b) lor (block_out p blk_in b land lnot kill.(b)) in
    if ni <> blk_in.(b) then begin
      blk_in.(b) <- ni;
      push_all w p.preds.(b)
    end
  done;
  blk_in

(* Per-instruction solution: each block's live-out walked backwards.
   Kept for [Regalloc] and as the reference DCE's rounds are tested
   against ([Dce.sweep]). *)
let solve ?dead p =
  let n = Array.length p.uops in
  let blocks = p.cfg.Cfg.blocks in
  let blk_in = solve_blocks ?dead p in
  let live_in = Array.make n 0 in
  let live_out = Array.make n 0 in
  for b = 0 to Array.length blocks - 1 do
    let blk = blocks.(b) in
    let live = ref (block_out p blk_in b) in
    for i = blk.Cfg.last downto blk.Cfg.first do
      live_out.(i) <- !live;
      if not (is_dead dead i) then live := !live land lnot p.kill.(i) lor p.gen.(i);
      live_in.(i) <- !live
    done
  done;
  { live_in; live_out }

let compute ?dead uops cfg = solve ?dead (prepare uops cfg)

let is_live mask r = mask land (1 lsl r) <> 0
