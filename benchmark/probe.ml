(* Spans and counters recorded around each call into a layer.

   Spans are kept only while [tracing] is set (the [--trace 1] run);
   counters are plain sums and are always kept, because they cost two
   hash lookups per op and the output check of a traced and a plain rep
   must see the same program. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

(* Words allocated on the OCaml heap so far (minor plus direct major). *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  start_ns : int64;
  dur_ns : int64;
  alloc_words : float;
}

let tracing = ref false
let finished : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let a0 = allocated_words () in
    let t0 = now_ns () in
    let close () =
      let t1 = now_ns () in
      open_spans := List.tl !open_spans;
      finished :=
        { id; name; parent; start_ns = t0; dur_ns = Int64.sub t1 t0;
          alloc_words = allocated_words () -. a0 }
        :: !finished
    in
    Fun.protect ~finally:close f
  end

let counts : (string, float) Hashtbl.t = Hashtbl.create 64
let counted name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)
let count name v = Hashtbl.replace counts name (v +. counted name)
let reset_counts () = Hashtbl.reset counts

(* A span's self time: its duration minus the part its direct children
   cover (children never overlap: the benchmark is single-threaded). *)
let self_ns all =
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (Int64.add s.dur_ns (Option.value ~default:0L (Hashtbl.find_opt child_ns s.parent))))
    all;
  fun s -> Int64.sub s.dur_ns (Option.value ~default:0L (Hashtbl.find_opt child_ns s.id))

let json_string s = "\"" ^ Hfi_verify.Report.escape s ^ "\""

(* One JSON object per span, times in nanoseconds from the first span. *)
let write_spans path all =
  let t0 = match all with [] -> 0L | s :: _ -> s.start_ns in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%s,\"parent\":%d,\"start_ns\":%Ld,\"dur_ns\":%Ld,\"alloc_words\":%.0f}"
            (if i = 0 then "" else ",\n")
            s.id (json_string s.name) s.parent (Int64.sub s.start_ns t0) s.dur_ns s.alloc_words)
        all;
      output_string oc "\n]\n")
