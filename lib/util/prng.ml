type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64 step; the final mix guarantees good avalanche even for
   sequential seeds. *)
let next64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  next t mod bound

let int_in t ~min ~max =
  if max < min then invalid_arg "Prng.int_in: max < min";
  min + int t (max - min + 1)

let float t bound =
  let max53 = 9007199254740992.0 in
  let bits = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  bits /. max53 *. bound

let bool t = Int64.logand (next64 t) 1L = 1L

let gaussian t ~mean ~stddev =
  (* Box–Muller; we discard the second deviate for simplicity. *)
  let u1 = Float.max 1e-12 (float t 1.0) in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let exponential t ~mean =
  let u = Float.max 1e-12 (float t 1.0) in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t = { state = next64 t }
