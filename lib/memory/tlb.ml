type config = { entries : int; ways : int; hit_latency : int; miss_latency : int }

let skylake_dtlb = { entries = 64; ways = 4; hit_latency = 1; miss_latency = 26 }

(* Reuse the set-associative machinery of Cache with page-granular lines. *)
type t = { cache : Cache.t; cfg : config }

let create cfg =
  let cache_cfg =
    {
      Cache.size_bytes = cfg.entries * 4096;
      ways = cfg.ways;
      line_bytes = 4096;
      hit_latency = cfg.hit_latency;
      miss_latency = cfg.miss_latency;
    }
  in
  { cache = Cache.create cache_cfg; cfg }

let access t addr = Cache.access t.cache addr
let timed_access t addr = Cache.timed_access t.cache addr
let flush_all t = Cache.flush_all t.cache
let hits t = Cache.hits t.cache
let misses t = Cache.misses t.cache
let reset t = Cache.reset t.cache
