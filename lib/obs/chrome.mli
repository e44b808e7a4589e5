(** Chrome [trace_event] JSON, the format [chrome://tracing] and
    Perfetto load: the one exporter behind {!Trace} and {!Span}.
    Callers supply names, categories, timestamps already in trace
    microseconds, rendered [args] objects and the document's
    [otherData]. *)

type t
(** An open [traceEvents] array. *)

val process_name : t -> pid:int -> string -> unit
(** A metadata event naming process [pid]. *)

val event :
  t -> name:string -> cat:string -> ts:float -> dur:float -> pid:int -> tid:int -> args:string ->
  unit
(** A complete event, or a thread-scoped instant when [dur = 0]. [args]
    is a rendered JSON object. *)

val document : other_data:(string * string) list -> (t -> unit) -> string
(** [document ~other_data f] is the whole document holding the events
    [f] adds, in order; [other_data] values are rendered JSON. *)
