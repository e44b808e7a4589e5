type kind = Commit | Squash | Drain | Fault | Transition | Syscall

let kind_name = function
  | Commit -> "commit"
  | Squash -> "squash"
  | Drain -> "drain"
  | Fault -> "fault"
  | Transition -> "transition"
  | Syscall -> "syscall"

let kind_code = function
  | Commit -> 0
  | Squash -> 1
  | Drain -> 2
  | Fault -> 3
  | Transition -> 4
  | Syscall -> 5

let kind_of_code = [| Commit; Squash; Drain; Fault; Transition; Syscall |]

type event = { kind : kind; ts : float; dur : float; a : int; b : int }

(* Struct-of-arrays ring: no per-event allocation once created. *)
type ring = {
  cap : int;
  kinds : int array;
  tss : float array;
  durs : float array;
  aas : int array;
  bbs : int array;
  mutable head : int;  (* next write slot *)
  mutable count : int;  (* total emitted since clear *)
}

let default_capacity =
  match Sys.getenv_opt "HFI_OBS_TRACE_CAP" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 65536)
  | None -> 65536

let make_ring cap =
  {
    cap;
    kinds = Array.make cap 0;
    tss = Array.make cap 0.0;
    durs = Array.make cap 0.0;
    aas = Array.make cap 0;
    bbs = Array.make cap 0;
    head = 0;
    count = 0;
  }

(* Created lazily on the first emit so a run that never traces pays no
   ring allocation. *)
let ring = ref None

let capacity = ref default_capacity

let the_ring () =
  match !ring with
  | Some r -> r
  | None ->
    let r = make_ring !capacity in
    ring := Some r;
    r

let on () = !Obs.trace_enabled

(* Warn exactly once per ring lifetime when the buffer first wraps:
   dropped events silently skew any analysis of the export, so the wrap
   must be loud — but a warning per overwritten event would be noise.
   Reset by [clear] / [set_capacity] along with the ring itself. *)
let wrap_warned = ref false

let warn_wrap r =
  if not !wrap_warned then begin
    wrap_warned := true;
    Printf.eprintf
      "hfi-obs: trace ring wrapped at %d events; oldest events are being dropped (raise HFI_OBS_TRACE_CAP to keep more)\n%!"
      r.cap
  end

let emit ?(dur = 0.0) ?(a = -1) ?(b = -1) kind ~ts =
  if !Obs.trace_enabled then begin
    let r = the_ring () in
    let i = r.head in
    r.kinds.(i) <- kind_code kind;
    r.tss.(i) <- ts;
    r.durs.(i) <- dur;
    r.aas.(i) <- a;
    r.bbs.(i) <- b;
    r.head <- (if i + 1 = r.cap then 0 else i + 1);
    r.count <- r.count + 1;
    if r.count = r.cap + 1 then warn_wrap r
  end

let length () =
  match !ring with None -> 0 | Some r -> if r.count > r.cap then r.cap else r.count

let dropped () =
  match !ring with None -> 0 | Some r -> if r.count > r.cap then r.count - r.cap else 0

let clear () =
  wrap_warned := false;
  match !ring with
  | None -> ()
  | Some r ->
    r.head <- 0;
    r.count <- 0

let set_capacity n =
  if n <= 0 then invalid_arg "Trace.set_capacity";
  wrap_warned := false;
  capacity := n;
  ring := Some (make_ring n)

let events () =
  match !ring with
  | None -> []
  | Some r ->
    let n = if r.count > r.cap then r.cap else r.count in
    let start = if r.count > r.cap then r.head else 0 in
    List.init n (fun k ->
        let i = (start + k) mod r.cap in
        {
          kind = kind_of_code.(r.kinds.(i));
          ts = r.tss.(i);
          dur = r.durs.(i);
          a = r.aas.(i);
          b = r.bbs.(i);
        })

(* ---- export ---- *)

let transition_name = function
  | 0 -> "hfi_enter"
  | 1 -> "hfi_exit"
  | 2 -> "hfi_reenter"
  | _ -> "transition"

let chrome_name e =
  match e.kind with Transition -> transition_name e.a | k -> kind_name k

let chrome_cat = function
  | Commit | Fault -> "machine"
  | Squash | Drain -> "pipeline"
  | Transition -> "transition"
  | Syscall -> "kernel"

let chrome_args e =
  match e.kind with
  | Commit -> Printf.sprintf "{\"index\":%d}" e.a
  | Squash -> Printf.sprintf "{\"transient_instrs\":%d}" e.a
  | Drain -> Printf.sprintf "{\"hfi_caused\":%s}" (if e.b = 1 then "true" else "false")
  | Fault -> Printf.sprintf "{\"msr\":%d}" e.a
  | Transition -> "{}"
  | Syscall -> Printf.sprintf "{\"rax\":%d}" e.a

let to_chrome_string () =
  Chrome.document
    ~other_data:
      [
        ("clock", Hfi_util.Json.str "modeled cycles (1 cycle = 1 trace us)");
        ("dropped_events", string_of_int (dropped ()));
      ]
    (fun c ->
      List.iter
        (fun e ->
          Chrome.event c ~name:(chrome_name e) ~cat:(chrome_cat e.kind) ~ts:e.ts ~dur:e.dur ~pid:1
            ~tid:1 ~args:(chrome_args e))
        (events ()))

let to_jsonl_string () =
  let buf = Buffer.create 4096 in
  (* Meta line first so consumers see the retained/dropped split before
     any event, mirroring the Chrome export's otherData. *)
  Printf.bprintf buf "{\"meta\":\"hfi-trace\",\"events\":%d,\"dropped_events\":%d}\n" (length ())
    (dropped ());
  List.iter
    (fun e ->
      Printf.bprintf buf "{\"kind\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"a\":%d,\"b\":%d}\n"
        (kind_name e.kind) e.ts e.dur e.a e.b)
    (events ());
  Buffer.contents buf
