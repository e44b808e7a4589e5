type cause =
  | Issue
  | Icache_miss
  | Dcache_miss
  | Dtlb_miss
  | Exec_dep
  | Hfi_serialization
  | Drain
  | Mispredict_refill
  | Wrong_path
  | Kernel
  | Signal

let all_causes =
  [
    Issue; Icache_miss; Dcache_miss; Dtlb_miss; Exec_dep; Hfi_serialization; Drain;
    Mispredict_refill; Wrong_path; Kernel; Signal;
  ]

let index = function
  | Issue -> 0
  | Icache_miss -> 1
  | Dcache_miss -> 2
  | Dtlb_miss -> 3
  | Exec_dep -> 4
  | Hfi_serialization -> 5
  | Drain -> 6
  | Mispredict_refill -> 7
  | Wrong_path -> 8
  | Kernel -> 9
  | Signal -> 10

let n_causes = 11

let name = function
  | Issue -> "issue"
  | Icache_miss -> "icache-miss"
  | Dcache_miss -> "dcache-miss"
  | Dtlb_miss -> "dtlb-miss"
  | Exec_dep -> "exec-dep"
  | Hfi_serialization -> "hfi-serialization"
  | Drain -> "drain"
  | Mispredict_refill -> "mispredict-refill"
  | Wrong_path -> "wrong-path"
  | Kernel -> "kernel"
  | Signal -> "signal"

type t = float array

let create () = Array.make n_causes 0.0
let global = create ()

let note (t : t) cause v =
  let i = index cause in
  Array.unsafe_set t i (Array.unsafe_get t i +. v)

let get (t : t) cause = t.(index cause)
let buckets (t : t) = List.map (fun c -> (c, t.(index c))) all_causes
let total (t : t) = Array.fold_left ( +. ) 0.0 t
let reset (t : t) = Array.fill t 0 n_causes 0.0

let pp ppf (t : t) =
  let sum = total t in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun c ->
      let v = t.(index c) in
      Format.fprintf ppf "%-18s %16s  %5.1f%%@ " (name c) (Hfi_util.Units.pp_cycles v)
        (if sum > 0.0 then 100.0 *. v /. sum else 0.0))
    all_causes;
  Format.fprintf ppf "%-18s %16s  100.0%%@]" "total" (Hfi_util.Units.pp_cycles sum)

(* Full float precision: consumers check that the buckets sum back to
   [total], which %.6g rounding would spoil. *)
let to_json (t : t) =
  let open Hfi_util.Json in
  obj
    (List.map (fun c -> (name c, num_exact t.(index c))) all_causes
    @ [ ("total", num_exact (total t)) ])
