(** §6.3.1 (teardown batching) and §6.3.2 (sandbox-count scaling).

    Teardown: 2000 sandboxes run a trivial workload, then are torn down
    under three regimes — stock per-sandbox madvise; HFI-batched madvise
    over guard-free adjacent heaps; and batched madvise *without* guard
    elision, which walks every intervening guard region. Paper:
    25.7 µs / 23.1 µs (-10.1%) / 31.1 µs per sandbox.

    Scaling: with guard pages every instance reserves its heap max plus
    a 4 GiB guard, so a 2^47 user address space holds ~16K of the
    paper's 8 GiB footprints; eliding guards, 1 GiB sandboxes pack at
    their real size. Paper: Wasmtime created 256,000 1 GiB sandboxes. *)

module Lifecycle = Hfi_wasm.Lifecycle
module Lm = Hfi_wasm.Linear_memory

type teardown_variant = Stock | Hfi_batched | Batched_without_elision

let variant_name = function
  | Stock -> "stock (madvise per sandbox)"
  | Hfi_batched -> "HFI batched (guards elided)"
  | Batched_without_elision -> "batched without guard elision"

let teardown_us_per_sandbox ?(sandboxes = 2000) variant =
  let strategy =
    match variant with
    | Stock | Batched_without_elision -> Hfi_sfi.Strategy.Guard_pages
    | Hfi_batched -> Hfi_sfi.Strategy.Hfi
  in
  let mem = Addr_space.create () in
  let kernel = Kernel.create ~multithreaded:true mem in
  let heap_bytes = 16 * 65536 in
  let pool = Lifecycle.create ~strategy ~kernel ~slots:sandboxes ~heap_bytes () in
  for i = 0 to sandboxes - 1 do
    Lifecycle.instantiate pool i;
    Lifecycle.run_trivial pool i ~touch_pages:48
  done;
  Kernel.reset_cycles kernel;
  let r0 = Lifecycle.runtime_cycles pool in
  (match variant with
  | Stock -> Lifecycle.teardown_each pool
  | Hfi_batched | Batched_without_elision -> Lifecycle.teardown_batched pool);
  let cycles = Kernel.cycles kernel +. (Lifecycle.runtime_cycles pool -. r0) in
  Hfi_util.Units.cycles_to_us (cycles /. float_of_int sandboxes)

let run_teardown ?(quick = false) () =
  let sandboxes = if quick then 200 else 2000 in
  let stock = teardown_us_per_sandbox ~sandboxes Stock in
  let hfi = teardown_us_per_sandbox ~sandboxes Hfi_batched in
  let noelide = teardown_us_per_sandbox ~sandboxes Batched_without_elision in
  let table =
    Hfi_util.Table.render
      ~header:[ "teardown variant"; "per-sandbox"; "paper" ]
      [
        [ variant_name Stock; Printf.sprintf "%.1f us" stock; "25.7 us" ];
        [ variant_name Hfi_batched; Printf.sprintf "%.1f us" hfi; "23.1 us" ];
        [ variant_name Batched_without_elision; Printf.sprintf "%.1f us" noelide; "31.1 us" ];
      ]
  in
  {
    Report.id = "teardown";
    data = [];
    title = Printf.sprintf "FaaS sandbox teardown (%d sandboxes)" sandboxes;
    paper_claim = "stock 25.7 us; HFI batched 23.1 us (10.1% better); batching without guard elision 31.1 us (worse than stock)";
    table;
    verdict =
      Printf.sprintf "stock %.1f us; HFI batched %.1f us (%.1f%% better); non-elided %.1f us (%.1f%% worse than stock)"
        stock hfi ((1.0 -. (hfi /. stock)) *. 100.0) noelide ((noelide /. stock -. 1.0) *. 100.0);
  }

let gib = 1 lsl 30

let max_sandboxes ~va_bits ~heap_bytes ~guard_bytes =
  (1 lsl va_bits) / (heap_bytes + guard_bytes)

let run_scaling ?(quick = false) () =
  (* Demonstrate with live reservations at small scale, then budget the
     full address space arithmetically. *)
  let demo_slots = if quick then 64 else 512 in
  let mem = Addr_space.create () in
  let kernel = Kernel.create mem in
  let pool =
    Lifecycle.create ~strategy:Hfi_sfi.Strategy.Hfi ~kernel ~slots:demo_slots ~heap_bytes:gib ()
  in
  let dense = Lifecycle.reserved_bytes pool = demo_slots * gib in
  let guard = Hfi_sfi.Strategy.guard_region_bytes Hfi_sfi.Strategy.Guard_pages in
  let rows =
    List.map
      (fun va_bits ->
        [
          Printf.sprintf "2^%d" va_bits;
          string_of_int (max_sandboxes ~va_bits ~heap_bytes:(4 * gib) ~guard_bytes:guard);
          string_of_int (max_sandboxes ~va_bits ~heap_bytes:gib ~guard_bytes:0);
        ])
      [ 47; 48 ]
  in
  let table =
    Hfi_util.Table.render
      ~header:[ "user VA"; "guard pages (8 GiB footprint)"; "HFI (1 GiB, guards elided)" ]
      rows
  in
  {
    Report.id = "scaling";
    data = [];
    title = "concurrent-sandbox capacity of one address space";
    paper_claim =
      "guard pages cap at ~16K instances in 2^47 (8 GiB each); eliding guards, Wasmtime created 256,000 1 GiB sandboxes";
    table;
    verdict =
      Printf.sprintf
        "%d live 1 GiB reservations packed densely (%b); capacity 2^47: %d vs %d, 2^48: %d vs %d"
        demo_slots dense
        (max_sandboxes ~va_bits:47 ~heap_bytes:(4 * gib) ~guard_bytes:guard)
        (max_sandboxes ~va_bits:47 ~heap_bytes:gib ~guard_bytes:0)
        (max_sandboxes ~va_bits:48 ~heap_bytes:(4 * gib) ~guard_bytes:guard)
        (max_sandboxes ~va_bits:48 ~heap_bytes:gib ~guard_bytes:0);
  }
