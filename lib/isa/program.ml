type t = {
  instrs : Instr.t array;
  offsets : int array;  (* byte offset of each instruction *)
  byte_size : int;
  mutable rev : int array option;
      (* byte offset -> instruction index (-1 between starts), built on
         the first decode-address lookup; programs are constructed and
         consumed within one domain, so plain laziness suffices *)
  mutable fingerprint_ : string option;
  mutable decoded : exn option;
      (* universal slot for a derived decoded form (the pipeline's µop
         table, carried as an extensible-constructor payload so this
         module needs no dependency on the pipeline); decode then
         happens once per program, not once per run *)
}

let of_instrs instrs =
  let n = Array.length instrs in
  let offsets = Array.make n 0 in
  let off = ref 0 in
  for i = 0 to n - 1 do
    offsets.(i) <- !off;
    off := !off + Instr.length instrs.(i)
  done;
  { instrs; offsets; byte_size = !off; rev = None; fingerprint_ = None; decoded = None }

let instrs t = t.instrs
let length t = Array.length t.instrs
let get t i = t.instrs.(i)
let byte_offset t i = t.offsets.(i)
let byte_size t = t.byte_size

let rev_table t =
  match t.rev with
  | Some r -> r
  | None ->
    let r = Array.make t.byte_size (-1) in
    Array.iteri (fun i o -> r.(o) <- i) t.offsets;
    t.rev <- Some r;
    r

let index_of_byte t b =
  (* O(1) lookup in the memoized reverse-offset table (indirect branches
     and returns resolve a target address on every execution). *)
  if b < 0 || b >= t.byte_size then None
  else begin
    let i = (rev_table t).(b) in
    if i >= 0 then Some i else None
  end

let fingerprint t =
  match t.fingerprint_ with
  | Some d -> d
  | None ->
    (* Instr.t is pure data (ints, bools, nested records), so its
       marshaled form is deterministic for a given compiler version —
       which the result cache already folds in via the executable
       digest. *)
    let d = Digest.to_hex (Digest.string (Marshal.to_string t.instrs [])) in
    t.fingerprint_ <- Some d;
    d

let decoded t = t.decoded
let set_decoded t payload = t.decoded <- Some payload

let pp ppf t =
  Array.iteri (fun i ins -> Format.fprintf ppf "%4d: %a@." i Instr.pp ins) t.instrs

module Asm = struct
  type item =
    | Fixed of Instr.t
    | Jmp_to of string
    | Jcc_to of Instr.cond * string
    | Call_to of string

  type builder = {
    mutable items : item list;  (* reversed *)
    mutable count : int;
    labels : (string, int) Hashtbl.t;
    mutable fresh : int;
  }

  let create () = { items = []; count = 0; labels = Hashtbl.create 16; fresh = 0 }

  let label b name =
    if Hashtbl.mem b.labels name then
      invalid_arg (Printf.sprintf "Asm.label: duplicate label %S" name);
    Hashtbl.replace b.labels name b.count

  let fresh_label b prefix =
    b.fresh <- b.fresh + 1;
    Printf.sprintf "%s__%d" prefix b.fresh

  let push b item =
    b.items <- item :: b.items;
    b.count <- b.count + 1

  let emit b i = push b (Fixed i)
  let jmp b name = push b (Jmp_to name)
  let jcc b c name = push b (Jcc_to (c, name))
  let call b name = push b (Call_to name)
  let here b = b.count

  let resolve b name =
    match Hashtbl.find_opt b.labels name with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Asm.assemble: undefined label %S" name)

  let assemble b =
    let items = List.rev b.items in
    let instrs =
      List.map
        (function
          | Fixed i -> i
          | Jmp_to name -> Instr.Jmp (resolve b name)
          | Jcc_to (c, name) -> Instr.Jcc (c, resolve b name)
          | Call_to name -> Instr.Call (resolve b name))
        items
    in
    of_instrs (Array.of_list instrs)

  let label_index _t b name = resolve b name
end
