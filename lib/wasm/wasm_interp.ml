type trap =
  | Out_of_bounds of int
  | Division_by_zero
  | Unreachable_executed
  | Call_stack_exhausted

type outcome = Value of int | No_value | Trap of trap

let pp_outcome ppf = function
  | Value v -> Format.fprintf ppf "value %d" v
  | No_value -> Format.pp_print_string ppf "no value"
  | Trap (Out_of_bounds a) -> Format.fprintf ppf "trap: out of bounds at %d" a
  | Trap Division_by_zero -> Format.pp_print_string ppf "trap: division by zero"
  | Trap Unreachable_executed -> Format.pp_print_string ppf "trap: unreachable"
  | Trap Call_stack_exhausted -> Format.pp_print_string ppf "trap: call stack exhausted"

exception Branch of int
exception Return_exn
exception Trap_exn of trap
exception Out_of_fuel

(* Arithmetic mirrors the machine model exactly (OCaml native-int
   semantics, 63-bit): the differential tests depend on both sides
   computing identically, not on true 64-bit wrap-around. *)
let apply_binop op a b =
  match op with
  | Wasm_ir.Add -> a + b
  | Wasm_ir.Sub -> a - b
  | Wasm_ir.Mul -> a * b
  | Wasm_ir.Div -> if b = 0 then raise (Trap_exn Division_by_zero) else a / b
  | Wasm_ir.And -> a land b
  | Wasm_ir.Or -> a lor b
  | Wasm_ir.Xor -> a lxor b
  | Wasm_ir.Shl -> a lsl (b land 63)
  | Wasm_ir.Shr_u -> a lsr (b land 63)

let ucompare a b = compare (a lxor min_int) (b lxor min_int)

let apply_relop op a b =
  let r =
    match op with
    | Wasm_ir.Eq -> a = b
    | Wasm_ir.Ne -> a <> b
    | Wasm_ir.Lt_s -> a < b
    | Wasm_ir.Le_s -> a <= b
    | Wasm_ir.Gt_s -> a > b
    | Wasm_ir.Ge_s -> a >= b
    | Wasm_ir.Lt_u -> ucompare a b < 0
    | Wasm_ir.Ge_u -> ucompare a b >= 0
  in
  if r then 1 else 0

type state = {
  m : Wasm_ir.module_;
  memory : Bytes.t;
  globals : int array;
  mutable fuel : int;
}

let mask_of_bytes = function
  | 1 -> 0xff
  | 2 -> 0xffff
  | 4 -> 0xffffffff
  | _ -> -1

let mem_read st addr bytes =
  if addr < 0 || addr + bytes > Bytes.length st.memory then raise (Trap_exn (Out_of_bounds addr));
  let v = ref 0 in
  for k = bytes - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get st.memory (addr + k))
  done;
  !v

let mem_write st addr bytes v =
  if addr < 0 || addr + bytes > Bytes.length st.memory then raise (Trap_exn (Out_of_bounds addr));
  for k = 0 to bytes - 1 do
    Bytes.set st.memory (addr + k) (Char.chr ((v lsr (8 * k)) land 0xff))
  done

let max_call_depth = 2000

let rec call st ~depth fidx args =
  if depth > max_call_depth then raise (Trap_exn Call_stack_exhausted);
  let f = st.m.Wasm_ir.funcs.(fidx) in
  let locals = Array.make (f.Wasm_ir.params + f.Wasm_ir.locals) 0 in
  List.iteri (fun k v -> locals.(k) <- v) args;
  let stack = ref [] in
  let push v = stack := v :: !stack in
  let pop () =
    match !stack with
    | v :: rest ->
      stack := rest;
      v
    | [] -> invalid_arg "Wasm_interp: stack underflow (unvalidated module?)"
  in
  let rec block instrs =
    List.iter
      (fun ins ->
        st.fuel <- st.fuel - 1;
        if st.fuel <= 0 then raise Out_of_fuel;
        match (ins : Wasm_ir.instr) with
        | Wasm_ir.Const v -> push v
        | Wasm_ir.Local_get i -> push locals.(i)
        | Wasm_ir.Local_set i -> locals.(i) <- pop ()
        | Wasm_ir.Local_tee i ->
          let v = pop () in
          locals.(i) <- v;
          push v
        | Wasm_ir.Global_get i -> push st.globals.(i)
        | Wasm_ir.Global_set i -> st.globals.(i) <- pop ()
        | Wasm_ir.Load { bytes; offset } ->
          let addr = (pop () land 0xffffffff) + offset in
          push (mem_read st addr bytes land mask_of_bytes bytes)
        | Wasm_ir.Store { bytes; offset } ->
          let v = pop () in
          let addr = (pop () land 0xffffffff) + offset in
          mem_write st addr bytes (v land mask_of_bytes bytes)
        | Wasm_ir.Binop op ->
          let b = pop () in
          let a = pop () in
          push (apply_binop op a b)
        | Wasm_ir.Relop op ->
          let b = pop () in
          let a = pop () in
          push (apply_relop op a b)
        | Wasm_ir.Eqz -> push (if pop () = 0 then 1 else 0)
        | Wasm_ir.Drop -> ignore (pop ())
        | Wasm_ir.Select ->
          let c = pop () in
          let b = pop () in
          let a = pop () in
          push (if c <> 0 then a else b)
        | Wasm_ir.Block body -> begin
          try block body with Branch 0 -> () | Branch n -> raise (Branch (n - 1))
        end
        | Wasm_ir.Loop body ->
          let rec again () =
            try block body with Branch 0 -> again () | Branch n -> raise (Branch (n - 1))
          in
          again ()
        | Wasm_ir.If (t, e) -> begin
          let c = pop () in
          try block (if c <> 0 then t else e)
          with Branch 0 -> () | Branch n -> raise (Branch (n - 1))
        end
        | Wasm_ir.Br n -> raise (Branch n)
        | Wasm_ir.Br_if n -> if pop () <> 0 then raise (Branch n)
        | Wasm_ir.Call i ->
          let callee = st.m.Wasm_ir.funcs.(i) in
          let args = List.init callee.Wasm_ir.params (fun _ -> pop ()) |> List.rev in
          let result = call st ~depth:(depth + 1) i args in
          (match result with Some v -> push v | None -> ())
        | Wasm_ir.Return -> raise Return_exn
        | Wasm_ir.Nop -> ()
        | Wasm_ir.Unreachable -> raise (Trap_exn Unreachable_executed))
      instrs
  in
  (try block f.Wasm_ir.body with
  | Return_exn -> ()
  | Branch _ -> invalid_arg "Wasm_interp: branch escaped function (unvalidated module?)");
  if f.Wasm_ir.results = 1 then Some (pop ()) else None

let fresh_state ?(fuel = 10_000_000) (m : Wasm_ir.module_) =
  let memory = Bytes.make (m.Wasm_ir.memory_pages * 65536) '\000' in
  List.iter
    (fun (off, s) -> Bytes.blit_string s 0 memory off (String.length s))
    m.Wasm_ir.data;
  { m; memory; globals = Array.copy m.Wasm_ir.globals; fuel }

let run ?fuel m =
  let st = fresh_state ?fuel m in
  try
    match call st ~depth:0 m.Wasm_ir.start [] with
    | Some v -> Value v
    | None -> No_value
  with Trap_exn t -> Trap t

let memory_byte ?fuel m addr =
  let st = fresh_state ?fuel m in
  (try ignore (call st ~depth:0 m.Wasm_ir.start []) with Trap_exn _ -> ());
  Char.code (Bytes.get st.memory addr)
