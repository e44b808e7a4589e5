let metrics_enabled = ref false
let trace_enabled = ref false
let profile_enabled = ref false

let metrics_on () = !metrics_enabled
let trace_on () = !trace_enabled
let enabled () = !metrics_enabled || !trace_enabled || !profile_enabled

let set_metrics b = metrics_enabled := b
let set_trace b = trace_enabled := b
let set_profile b = profile_enabled := b

let set_all b =
  metrics_enabled := b;
  trace_enabled := b;
  profile_enabled := b

(* HFI_OBS: "1" = everything; a comma list picks subsystems. *)
let () =
  match Sys.getenv_opt "HFI_OBS" with
  | None | Some "" | Some "0" -> ()
  | Some "1" -> set_all true
  | Some spec ->
    let parts = String.split_on_char ',' spec in
    let has k = List.mem k parts in
    metrics_enabled := has "metrics";
    trace_enabled := has "trace";
    profile_enabled := has "profile"
