let kib = 1024
let mib = 1024 * kib
let gib = 1024 * mib
let tib = 1024 * gib
let page_size = 4 * kib
let core_frequency_hz = 3.3e9

let cycles_to_seconds ?(hz = core_frequency_hz) c = c /. hz
let cycles_to_ms ?hz c = cycles_to_seconds ?hz c *. 1e3
let cycles_to_us ?hz c = cycles_to_seconds ?hz c *. 1e6
let seconds_to_cycles ?(hz = core_frequency_hz) s = s *. hz

let pp_bytes n =
  let f = float_of_int n in
  if n < kib then Printf.sprintf "%d B" n
  else if n < mib then Printf.sprintf "%.1f KiB" (f /. float_of_int kib)
  else if n < gib then Printf.sprintf "%.1f MiB" (f /. float_of_int mib)
  else if n < tib then Printf.sprintf "%.1f GiB" (f /. float_of_int gib)
  else Printf.sprintf "%.1f TiB" (f /. float_of_int tib)

let pp_cycles c =
  let s = Printf.sprintf "%.0f" c in
  let n = String.length s in
  let buf = Buffer.create (n + (n / 3)) in
  String.iteri
    (fun i ch ->
      if i > 0 && (n - i) mod 3 = 0 && ch <> '-' then Buffer.add_char buf ',';
      Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let pp_time_s s =
  let abs = Float.abs s in
  if abs < 1e-6 then Printf.sprintf "%.1f ns" (s *. 1e9)
  else if abs < 1e-3 then Printf.sprintf "%.1f us" (s *. 1e6)
  else if abs < 1.0 then Printf.sprintf "%.1f ms" (s *. 1e3)
  else Printf.sprintf "%.2f s" s

let pp_ratio r =
  let pct = (r -. 1.0) *. 100.0 in
  if pct >= 0.0 then Printf.sprintf "+%.1f%%" pct else Printf.sprintf "%.1f%%" pct
