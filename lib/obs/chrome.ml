(* Chrome trace_event JSON, the one writer behind the Trace and Span
   exports. *)

module Json = Hfi_util.Json

type t = { buf : Buffer.t; mutable empty : bool }

let sep t = if t.empty then t.empty <- false else Buffer.add_char t.buf ','

let process_name t ~pid name =
  sep t;
  Printf.bprintf t.buf {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}|} pid
    (Json.str name)

(* Zero-duration events are thread-scoped instants (ph "i"); everything
   with a duration is a complete event (ph "X"). *)
let event t ~name ~cat ~ts ~dur ~pid ~tid ~args =
  sep t;
  Printf.bprintf t.buf {|{"name":%s,"cat":%s,"ph":|} (Json.str name) (Json.str cat);
  if dur = 0.0 then Buffer.add_string t.buf {|"i","s":"t",|}
  else Printf.bprintf t.buf {|"X","dur":%.3f,|} dur;
  Printf.bprintf t.buf {|"ts":%.3f,"pid":%d,"tid":%d,"args":%s}|} ts pid tid args

let document ~other_data events =
  let t = { buf = Buffer.create 4096; empty = true } in
  Buffer.add_string t.buf {|{"traceEvents":[|};
  events t;
  Printf.bprintf t.buf {|],"displayTimeUnit":"ms","otherData":%s}|} (Json.obj other_data);
  Buffer.contents t.buf
