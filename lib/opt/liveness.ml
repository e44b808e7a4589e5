(* Backward register liveness over the µop CFG, as 16-bit register
   bitmasks (one bit per [Reg.index]). Syscalls, HFI transitions and
   region instructions are treated as reading every register (the
   kernel and trusted runtime may inspect any of them); [Halt] exposes
   the RAX result convention.

   Solved per block: each block's instructions fold into one gen/kill
   pair, and a predecessor worklist re-solves only blocks whose
   successors' live-in grew. The problem is union-only, so the least
   fixpoint is unique and independent of visit order. *)

let all_mask = (1 lsl Reg.count) - 1
let rax_mask = 1 lsl Reg.index Reg.RAX

let mask_of_arr (a : int array) =
  let m = ref 0 in
  Array.iter (fun r -> m := !m lor (1 lsl r)) a;
  !m

(* Instructions whose register effects extend beyond [Uop.reads]. *)
let reads_everything (u : Uop.t) =
  match u.Uop.op with
  | Uop.Osyscall | Uop.Ohfi_enter _ | Uop.Ohfi_exit | Uop.Ohfi_reenter | Uop.Ohfi_set_region _
  | Uop.Ohfi_clear_region _ | Uop.Ohfi_clear_all | Uop.Ocpuid ->
    true
  | _ -> false

let gen_kill (u : Uop.t) =
  let gen = if reads_everything u then all_mask else mask_of_arr u.Uop.reads in
  let kill = mask_of_arr u.Uop.writes in
  (gen, kill)

type t = { live_in : int array; live_out : int array }

(* [dead] marks instructions to treat as deleted: they neither read nor
   write, exactly as if [Edit.rebuild] had dropped them. *)
let compute ?dead (uops : Uop.t array) (cfg : Cfg.t) =
  let n = Array.length uops in
  let nb = Array.length cfg.Cfg.blocks in
  let is_dead = match dead with Some d -> fun i -> d.(i) | None -> fun _ -> false in
  let term_live (b : Cfg.block) =
    match b.Cfg.term with
    | Cfg.Thalt -> rax_mask
    (* unresolved control flow: assume anything may be read next *)
    | Cfg.Tjump_ind | Cfg.Tcall_ind _ | Cfg.Tout _ -> all_mask
    | Cfg.Tfall None -> all_mask  (* running off the end: conservative *)
    | _ -> 0
  in
  (* block transfer: live_in = gen | (live_out & ~kill) *)
  let gen = Array.make nb 0 and kill = Array.make nb 0 in
  Array.iter
    (fun (blk : Cfg.block) ->
      let b = blk.Cfg.id in
      for i = blk.Cfg.last downto blk.Cfg.first do
        if not (is_dead i) then begin
          let g, k = gen_kill uops.(i) in
          gen.(b) <- g lor (gen.(b) land lnot k);
          kill.(b) <- kill.(b) lor k
        end
      done)
    cfg.Cfg.blocks;
  let preds = Dom.preds_of cfg in
  let blk_in = Array.make nb 0 in
  let block_out b =
    let blk = cfg.Cfg.blocks.(b) in
    List.fold_left (fun acc s -> acc lor blk_in.(s)) (term_live blk) blk.Cfg.succs
  in
  let queue = Queue.create () in
  let on_queue = Array.make nb true in
  for b = nb - 1 downto 0 do
    Queue.push b queue
  done;
  while not (Queue.is_empty queue) do
    let b = Queue.pop queue in
    on_queue.(b) <- false;
    let ni = gen.(b) lor (block_out b land lnot kill.(b)) in
    if ni <> blk_in.(b) then begin
      blk_in.(b) <- ni;
      List.iter
        (fun p ->
          if not on_queue.(p) then begin
            on_queue.(p) <- true;
            Queue.push p queue
          end)
        preds.(b)
    end
  done;
  let live_in = Array.make n 0 in
  let live_out = Array.make n 0 in
  for b = 0 to nb - 1 do
    let blk = cfg.Cfg.blocks.(b) in
    let live = ref (block_out b) in
    for i = blk.Cfg.last downto blk.Cfg.first do
      live_out.(i) <- !live;
      if not (is_dead i) then begin
        let g, k = gen_kill uops.(i) in
        live := !live land lnot k lor g
      end;
      live_in.(i) <- !live
    done
  done;
  { live_in; live_out }

let is_live mask r = mask land (1 lsl r) <> 0
