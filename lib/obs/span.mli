(** Per-request span tracing for the serving simulation.

    Each span covers one stage of one request (breaker gate, admission,
    queueing, cold start, execution attempt, backoff wait, …) with
    start/duration in virtual seconds and an outcome tag. Spans are
    emitted through an optional {!ctx}: the serving layer only builds a
    context when tracing is enabled, so with tracing off every emit
    site passes [None] and recording is a strict no-op — modeled
    behavior and all outputs stay bit-identical.

    Sinks are per serving shard (domain-local, unsynchronized); the
    shard join concatenates them in shard-plan order, which makes the
    merged list — and both exports — byte-identical for any HFI_JOBS. *)

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

val stage_name : stage -> string

type t = {
  req : int;  (** deterministic request id, unique across shards *)
  tenant : int;
  stage : stage;
  start_s : float;  (** virtual seconds *)
  dur_s : float;  (** 0 for instant spans *)
  outcome : string;
}

type sink

val create_sink : unit -> sink

type ctx
(** A (sink, request id, tenant) triple carried through one request's
    processing; every stage emits against it. *)

val ctx : sink -> req:int -> tenant:int -> ctx

val emit : ctx option -> stage -> start_s:float -> dur_s:float -> outcome:string -> unit
(** No-op on [None]. *)

val spans : sink -> t list
(** In emission order. *)

val length : sink -> int

val merge : sink list -> t list
(** Concatenation in list order — pass sinks in shard-plan order. *)

val to_chrome_string : (string * t list) list -> string
(** Chrome [trace_event] document; one process per named group (the
    serving exports group by strategy), one thread per tenant,
    1 trace µs = 1 virtual µs. *)

val to_jsonl_string : (string * t list) list -> string
(** One JSON object per span, preceded by a meta line with totals. *)
