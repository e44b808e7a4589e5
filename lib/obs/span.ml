(* Per-request span records for the serving simulation.

   A span covers one stage of one request's life — breaker gate,
   admission, queueing, cold start, execution attempt, backoff wait —
   with start/duration in virtual seconds and a short outcome tag. The
   serving layer emits spans through an optional context: when the
   trace subsystem is off no sink exists and every emit is a strict
   no-op, so the simulation's modeled behavior and output are
   bit-identical with spans on or off (recording never feeds back).

   Collection is per shard: each serving shard owns a private sink
   (domain-local, no synchronization), and the shard join concatenates
   sinks in shard-plan order. Since shards are deterministic and
   [Hfi_util.Pool.map] preserves input order, the merged span list —
   and both exports — are byte-identical for any HFI_JOBS.

   Exports share Trace's Chrome exporter ({!Chrome}): trace_event
   JSON (one process per strategy, one thread per tenant, 1 trace µs =
   1 virtual µs) and JSONL with a leading meta line. *)

type stage =
  | Request  (** root span: arrival to terminal outcome *)
  | Breaker_gate
  | Admission
  | Queue
  | Pool  (** instance-pool acquire: warm hit / cold / degraded *)
  | Cold_start
  | Execute
  | Backoff_wait
  | Chaos_inject

let stage_name = function
  | Request -> "request"
  | Breaker_gate -> "breaker"
  | Admission -> "admission"
  | Queue -> "queue"
  | Pool -> "pool"
  | Cold_start -> "cold-start"
  | Execute -> "execute"
  | Backoff_wait -> "backoff"
  | Chaos_inject -> "chaos-inject"

type t = {
  req : int;  (** deterministic request id, unique across shards *)
  tenant : int;
  stage : stage;
  start_s : float;  (** virtual seconds *)
  dur_s : float;  (** 0 for instant spans *)
  outcome : string;
}

type sink = { mutable items : t list; mutable n : int }

let create_sink () = { items = []; n = 0 }

type ctx = { sink : sink; req : int; tenant : int }

let ctx sink ~req ~tenant = { sink; req; tenant }

let emit ctx stage ~start_s ~dur_s ~outcome =
  match ctx with
  | None -> ()
  | Some c ->
    c.sink.items <-
      { req = c.req; tenant = c.tenant; stage; start_s; dur_s; outcome } :: c.sink.items;
    c.sink.n <- c.sink.n + 1

let spans sink = List.rev sink.items

let length sink = sink.n

let merge sinks = List.concat_map spans sinks

(* ---- export ---- *)

module Json = Hfi_util.Json

(* One Chrome process per span group (the serving exports group by
   strategy), one thread per tenant. Timestamps are virtual seconds
   rendered as microseconds. *)
let to_chrome_string groups =
  Chrome.document
    ~other_data:[ ("clock", Json.str "virtual seconds (1 trace us = 1 virtual us)") ]
    (fun c ->
      List.iteri (fun i (name, _) -> Chrome.process_name c ~pid:(i + 1) name) groups;
      List.iteri
        (fun i (_, spans) ->
          List.iter
            (fun s ->
              Chrome.event c ~name:(stage_name s.stage) ~cat:"serving" ~ts:(s.start_s *. 1e6)
                ~dur:(s.dur_s *. 1e6) ~pid:(i + 1) ~tid:s.tenant
                ~args:(Printf.sprintf {|{"req":%d,"outcome":%s}|} s.req (Json.str s.outcome)))
            spans)
        groups)

let to_jsonl_string groups =
  let buf = Buffer.create 4096 in
  let total = List.fold_left (fun acc (_, spans) -> acc + List.length spans) 0 groups in
  Printf.bprintf buf "{\"meta\":\"hfi-serving-spans\",\"groups\":%d,\"spans\":%d}\n"
    (List.length groups) total;
  List.iter
    (fun (name, spans) ->
      List.iter
        (fun (s : t) ->
          Printf.bprintf buf
            "{\"group\":%s,\"req\":%d,\"tenant\":%d,\"stage\":\"%s\",\"start_s\":%.9f,\"dur_s\":%.9f,\"outcome\":%s}\n"
            (Json.str name) s.req s.tenant (stage_name s.stage) s.start_s s.dur_s
            (Json.str s.outcome))
        spans)
    groups;
  Buffer.contents buf
