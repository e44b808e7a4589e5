type access = Read | Write | Exec

type kind =
  | Bounds_violation of { addr : int; access : access; cause : string }
  | Syscall_trap of int
  | Hardware_fault of { addr : int; detail : string }
  | Privileged_op
  | Invalid_region
  | Wasm_trap of string
  | Exit of string
  | Injected of { point : string; detail : string }
  | Timeout of { limit_s : float }
  | Resource_exhausted of { resource : string; limit : int }
  | Crash of { exn : string; backtrace : string }

type t = {
  kind : kind;
  addr : int option;
  region : int option;
  pc : int option;
  cycle : int option;
  sandbox : string option;
}

let make ?addr ?region ?pc ?cycle ?sandbox kind =
  (* Lift the kind's own address into the record when the caller did not
     supply one, so [t.addr] is the one place to look. *)
  let addr =
    match (addr, kind) with
    | (Some _ as a), _ -> a
    | None, Bounds_violation { addr; _ } -> Some addr
    | None, Hardware_fault { addr; _ } -> Some addr
    | None, _ -> None
  in
  { kind; addr; region; pc; cycle; sandbox }

let kind_name = function
  | Bounds_violation _ -> "bounds-violation"
  | Syscall_trap _ -> "syscall-trap"
  | Hardware_fault _ -> "hardware-fault"
  | Privileged_op -> "privileged-op"
  | Invalid_region -> "invalid-region"
  | Wasm_trap _ -> "wasm-trap"
  | Exit _ -> "exit"
  | Injected _ -> "injected"
  | Timeout _ -> "timeout"
  | Resource_exhausted _ -> "resource-exhausted"
  | Crash _ -> "crash"

let is_modeled t =
  match t.kind with
  | Bounds_violation _ | Syscall_trap _ | Hardware_fault _ | Privileged_op
  | Invalid_region | Wasm_trap _ | Exit _ ->
    true
  | Injected _ | Timeout _ | Resource_exhausted _ | Crash _ -> false

let is_transient t = match t.kind with Injected _ -> true | _ -> false

let access_to_string = function Read -> "read" | Write -> "write" | Exec -> "exec"

(* The kind-specific part of the one-line rendering. *)
let kind_detail = function
  | Bounds_violation { addr; access; cause } ->
    Printf.sprintf "%s at 0x%x (%s)" cause addr (access_to_string access)
  | Syscall_trap n -> Printf.sprintf "syscall %d" n
  | Hardware_fault { addr; detail } ->
    if detail = "" then Printf.sprintf "at 0x%x" addr
    else Printf.sprintf "%s at 0x%x" detail addr
  | Privileged_op -> "locked instruction in native sandbox"
  | Invalid_region -> "descriptor failed validation"
  | Wasm_trap s -> s
  | Exit s -> s
  | Injected { point; detail } ->
    if detail = "" then point else Printf.sprintf "%s: %s" point detail
  | Timeout { limit_s } -> Printf.sprintf "exceeded %gs watchdog budget" limit_s
  | Resource_exhausted { resource; limit } ->
    Printf.sprintf "%s exhausted (limit %d)" resource limit
  | Crash { exn; _ } -> exn

let to_string t =
  let b = Buffer.create 64 in
  Buffer.add_string b (kind_name t.kind);
  Buffer.add_string b ": ";
  Buffer.add_string b (kind_detail t.kind);
  let opt fmt = function None -> () | Some v -> Buffer.add_string b (fmt v) in
  opt (Printf.sprintf " region=%d") t.region;
  opt (Printf.sprintf " pc=0x%x") t.pc;
  opt (Printf.sprintf " cycle=%d") t.cycle;
  opt (Printf.sprintf " sandbox=%s") t.sandbox;
  Buffer.contents b

let to_json t =
  let opt k fmt v = Option.to_list (Option.map (fun v -> (k, fmt v)) v) in
  Json.obj
    ([ ("kind", Json.str (kind_name t.kind)); ("detail", Json.str (kind_detail t.kind)) ]
    @ (match t.kind with
      | Syscall_trap n -> [ ("syscall", string_of_int n) ]
      | Crash { backtrace; _ } when backtrace <> "" -> [ ("backtrace", Json.str backtrace) ]
      | _ -> [])
    @ opt "addr" string_of_int t.addr
    @ opt "region" string_of_int t.region
    @ opt "pc" string_of_int t.pc
    @ opt "cycle" string_of_int t.cycle
    @ opt "sandbox" Json.str t.sandbox)

exception Simulator_bug of string
exception Transient of string

let of_exn ?sandbox exn bt =
  match exn with
  | Transient detail -> make ?sandbox (Injected { point = "transient"; detail })
  | _ ->
    make ?sandbox
      (Crash { exn = Printexc.to_string exn; backtrace = Printexc.raw_backtrace_to_string bt })

let () =
  Printexc.register_printer (function
    | Simulator_bug m -> Some ("Simulator_bug: " ^ m)
    | Transient m -> Some ("Transient fault: " ^ m)
    | _ -> None)
