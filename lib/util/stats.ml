let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let mean_a a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let geomean = function
  | [] -> 0.0
  | xs ->
    let sum_logs =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geomean: non-positive sample";
          acc +. log x)
        0.0 xs
    in
    exp (sum_logs /. float_of_int (List.length xs))

let percentile_sorted p a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty"
  else if n = 1 then a.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

(* [Float.compare] orders exactly as polymorphic [compare] does on
   floats (NaN first, -0 equal to +0) without its generic dispatch. *)
let percentile p xs = percentile_sorted p (Array.of_list (List.sort Float.compare xs))

let median xs = match xs with [] -> 0.0 | _ -> percentile 50.0 xs

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) ** 2.0) xs) in
    sqrt var

let min_max = function
  | [] -> (0.0, 0.0)
  | x :: xs -> List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) xs

module Latency = struct
  type t = { mutable samples : float list; mutable n : int; mutable sum : float }

  let create () = { samples = []; n = 0; sum = 0.0 }

  let add t x =
    t.samples <- x :: t.samples;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
  let percentile t p = if t.n = 0 then 0.0 else percentile p t.samples
  let tail t = percentile t 99.0
  let max t = List.fold_left Float.max 0.0 t.samples
end

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    counts : int array;
    mutable total : int;
  }

  let create ~lo ~hi ~buckets =
    if buckets <= 0 then invalid_arg "Histogram.create: buckets";
    if hi <= lo then invalid_arg "Histogram.create: range";
    { lo; hi; counts = Array.make buckets 0; total = 0 }

  let bucket_of t x =
    let n = Array.length t.counts in
    let idx = int_of_float ((x -. t.lo) /. (t.hi -. t.lo) *. float_of_int n) in
    Stdlib.max 0 (Stdlib.min (n - 1) idx)

  let add t x =
    t.counts.(bucket_of t x) <- t.counts.(bucket_of t x) + 1;
    t.total <- t.total + 1

  let counts t = Array.copy t.counts
  let total t = t.total

  let bucket_mid t i =
    let n = float_of_int (Array.length t.counts) in
    t.lo +. ((float_of_int i +. 0.5) /. n *. (t.hi -. t.lo))

  let render t ~width =
    let buf = Buffer.create 256 in
    let peak = Array.fold_left Stdlib.max 1 t.counts in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          let bar = String.make (Stdlib.max 1 (c * width / peak)) '#' in
          Buffer.add_string buf (Printf.sprintf "%10.1f | %-*s %d\n" (bucket_mid t i) width bar c)
        end)
      t.counts;
    Buffer.contents buf
end
