type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;
  miss_latency : int;
}

let skylake_l1d =
  (* miss_latency is the L1-miss service time assuming an L2 hit — the
     common case for the modeled working sets. *)
  { size_bytes = 32 * 1024; ways = 8; line_bytes = 64; hit_latency = 4; miss_latency = 18 }

let skylake_l1i =
  { size_bytes = 32 * 1024; ways = 8; line_bytes = 64; hit_latency = 1; miss_latency = 30 }

type t = {
  cfg : config;
  line_shift : int;  (* log2 line_bytes *)
  set_mask : int;  (* sets - 1 *)
  (* tags.(set).(way) = line tag, or -1 if invalid; lru.(set).(way) =
     recency stamp, larger = more recent. *)
  tags : int array array;
  lru : int array array;
  (* mru.(set) = way of that set's last hit or fill — purely a lookup
     hint (sequential fetch and stack traffic re-touch the same line),
     never consulted for replacement, so modeled behavior is unchanged *)
  mru : int array;
  mutable stamp : int;
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let k = ref 0 in
  while 1 lsl !k < n do
    incr k
  done;
  !k

let create cfg =
  let sets = cfg.size_bytes / (cfg.ways * cfg.line_bytes) in
  if sets <= 0 then invalid_arg "Cache.create: bad geometry";
  if not (is_pow2 sets && is_pow2 cfg.line_bytes) then
    invalid_arg "Cache.create: set count and line size must be powers of two";
  {
    cfg;
    line_shift = log2 cfg.line_bytes;
    set_mask = sets - 1;
    tags = Array.init sets (fun _ -> Array.make cfg.ways (-1));
    lru = Array.init sets (fun _ -> Array.make cfg.ways 0);
    mru = Array.make sets 0;
    stamp = 0;
    hits = 0;
    misses = 0;
  }

(* Hot path: [create] admits only power-of-two geometry, so the
   per-access index math is a shift and a mask, not two divisions. *)
let line_of t addr = addr lsr t.line_shift
let set_of t line = line land t.set_mask

(* Way holding [tag] in [set], or -1. Unsafe indexing throughout this
   block: [set] comes from [set_of] (always < sets) and way indices
   stay < ways by construction, and these loops run three times per
   simulated instruction. A loop, not a local recursive function: that
   would allocate its closure on every call. *)
let find_way t set tag =
  let ways = Array.unsafe_get t.tags set in
  let n = t.cfg.ways in
  let i = ref 0 in
  while !i < n && Array.unsafe_get ways !i <> tag do
    incr i
  done;
  if !i < n then !i else -1

let touch t set way =
  t.stamp <- t.stamp + 1;
  Array.unsafe_set (Array.unsafe_get t.lru set) way t.stamp

let victim_way t set =
  let lru = Array.unsafe_get t.lru set in
  let best = ref 0 in
  for i = 1 to t.cfg.ways - 1 do
    if Array.unsafe_get lru i < Array.unsafe_get lru !best then best := i
  done;
  !best

let access t addr =
  let tag = line_of t addr in
  let set = set_of t tag in
  (* Most accesses re-touch the set's last-used way (sequential fetch,
     stack locality): check it before scanning. A stale hint can only
     point at a non-matching or invalidated (-1) tag, which real tags
     (>= 0) never equal, so it falls through to the full scan. *)
  let hint = Array.unsafe_get t.mru set in
  let w =
    if Array.unsafe_get (Array.unsafe_get t.tags set) hint = tag then hint
    else find_way t set tag
  in
  if w >= 0 then begin
    t.mru.(set) <- w;
    touch t set w;
    t.hits <- t.hits + 1;
    `Hit
  end
  else begin
    let w = victim_way t set in
    t.tags.(set).(w) <- tag;
    t.mru.(set) <- w;
    touch t set w;
    t.misses <- t.misses + 1;
    `Miss
  end

let probe t addr =
  let tag = line_of t addr in
  find_way t (set_of t tag) tag >= 0

let latency t = function `Hit -> t.cfg.hit_latency | `Miss -> t.cfg.miss_latency

let timed_access t addr = latency t (access t addr)

let flush_line t addr =
  let tag = line_of t addr in
  let set = set_of t tag in
  let w = find_way t set tag in
  if w >= 0 then t.tags.(set).(w) <- -1

let flush_all t =
  Array.iter (fun ways -> Array.fill ways 0 (Array.length ways) (-1)) t.tags

let hits t = t.hits
let misses t = t.misses

(* Back to the post-[create] state without reallocating the tag/lru
   arrays — repeated simulations (fig2/fig3 matrices, fuzz) reuse one
   cache per worker instead of churning the allocator. *)
let reset t =
  Array.iter (fun ways -> Array.fill ways 0 (Array.length ways) (-1)) t.tags;
  Array.iter (fun stamps -> Array.fill stamps 0 (Array.length stamps) 0) t.lru;
  Array.fill t.mru 0 (Array.length t.mru) 0;
  t.stamp <- 0;
  t.hits <- 0;
  t.misses <- 0
