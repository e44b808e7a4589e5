(* Program edit buffer: passes record per-instruction replacements and
   fallthrough-only insertions against ORIGINAL instruction indices;
   [rebuild] lays the surviving code out and retargets every direct
   branch in one sweep.

   Conventions:
   - [replace i l] substitutes the instruction list [l] for instruction
     [i] ([[]] deletes it).
   - [insert_before i l] places [l] ahead of instruction [i] on the
     fallthrough path only: a direct branch targeting [i] lands past the
     inserted code. This is exactly the loop-preheader shape — back
     edges skip the hoisted check, the sequential entry runs it.
   - Branch targets inside replacement/inserted code are ORIGINAL
     instruction indices (e.g. the trap block head) and are remapped
     like every other target.
   - A branch to a deleted instruction lands on the next surviving
     instruction's body (still skipping that instruction's insertion). *)

type t = {
  src : Program.t;
  code_base : int;
  orig : Instr.t array;
  repl : Instr.t list option array;
  pre : Instr.t list array;
  mutable dirty : bool;
}

let create src ~code_base =
  let orig = Program.instrs src in
  {
    src;
    code_base;
    orig;
    repl = Array.make (Array.length orig) None;
    pre = Array.make (Array.length orig) [];
    dirty = false;
  }

let length t = Array.length t.orig
let original t i = t.orig.(i)
let is_replaced t i = t.repl.(i) <> None

let replace t i l =
  t.repl.(i) <- Some l;
  t.dirty <- true

let delete t i = replace t i []

let insert_before t i l =
  if l <> [] then begin
    t.pre.(i) <- t.pre.(i) @ l;
    t.dirty <- true
  end

let changed t = t.dirty

(* One pass lays the output out: [target_map.(i)] becomes where
   instruction [i]'s body starts, [target_map.(n)] the output length.
   A backward sweep then sends each deleted instruction to the next
   surviving body, and one forward pass fills the output array. When the
   source program's µops are memoized at [code_base], the output's memo
   is seeded from them ([Uop.carry]): instructions copied unchanged keep
   their µop records, so the next pass does not decode the program
   again. *)
let rebuild t =
  let n = Array.length t.orig in
  let target_map = Array.make (n + 1) 0 in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    pos := !pos + List.length t.pre.(i);
    target_map.(i) <- !pos;
    pos := !pos + (match t.repl.(i) with None -> 1 | Some l -> List.length l)
  done;
  target_map.(n) <- !pos;
  (* branch to a deleted instruction falls to the next surviving one *)
  for i = n - 1 downto 0 do
    match t.repl.(i) with Some [] -> target_map.(i) <- target_map.(i + 1) | _ -> ()
  done;
  let map tgt = if tgt >= 0 && tgt <= n then target_map.(tgt) else tgt in
  let src_uops = Uop.memoized t.src ~code_base:t.code_base in
  let out = Array.make !pos Instr.Nop in
  let seeding = Option.is_some src_uops in
  let origin = if seeding then Array.make !pos (-1) else [||] in
  let j = ref 0 in
  let put (ins : Instr.t) =
    out.(!j) <-
      (match ins with
      | Instr.Jmp tgt -> Instr.Jmp (map tgt)
      | Instr.Jcc (c, tgt) -> Instr.Jcc (c, map tgt)
      | Instr.Call tgt -> Instr.Call (map tgt)
      | _ -> ins);
    incr j
  in
  for i = 0 to n - 1 do
    List.iter put t.pre.(i);
    match t.repl.(i) with
    | Some l -> List.iter put l
    | None ->
      if seeding then origin.(!j) <- i;
      put t.orig.(i)
  done;
  let prog = Program.of_instrs out in
  (match src_uops with
  | Some uops -> Uop.carry uops ~origin prog ~code_base:t.code_base
  | None -> ());
  prog
