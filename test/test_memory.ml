open Hfi_memory

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mib = 1024 * 1024

let test_mmap_load_store () =
  let m = Addr_space.create () in
  Addr_space.mmap m ~addr:0x10000 ~len:4096 Perm.rw;
  Addr_space.store m ~addr:0x10008 ~bytes:8 0xdeadbeef;
  check_int "load back" 0xdeadbeef (Addr_space.load m ~addr:0x10008 ~bytes:8);
  check_int "zero fill elsewhere" 0 (Addr_space.load m ~addr:0x10100 ~bytes:8)

let test_widths_little_endian () =
  let m = Addr_space.create () in
  Addr_space.mmap m ~addr:0x10000 ~len:4096 Perm.rw;
  Addr_space.store m ~addr:0x10000 ~bytes:4 0x11223344;
  check_int "byte 0 is LSB" 0x44 (Addr_space.load m ~addr:0x10000 ~bytes:1);
  check_int "byte 3 is MSB" 0x11 (Addr_space.load m ~addr:0x10003 ~bytes:1);
  check_int "2-byte" 0x3344 (Addr_space.load m ~addr:0x10000 ~bytes:2)

let test_unmapped_faults () =
  let m = Addr_space.create () in
  (try
     ignore (Addr_space.load m ~addr:0x5000 ~bytes:8);
     Alcotest.fail "expected fault"
   with Addr_space.Fault f ->
     check_bool "unmapped" true (f.reason = `Unmapped);
     check_int "addr" 0x5000 f.addr)

let test_protection_fault () =
  let m = Addr_space.create () in
  Addr_space.mmap m ~addr:0x10000 ~len:4096 Perm.r;
  check_int "read ok" 0 (Addr_space.load m ~addr:0x10000 ~bytes:8);
  try
    Addr_space.store m ~addr:0x10000 ~bytes:8 1;
    Alcotest.fail "expected protection fault"
  with Addr_space.Fault f -> check_bool "protection" true (f.reason = `Protection)

let test_guard_region_semantics () =
  (* The Wasm trick: heap then PROT_NONE guard; any access into the guard
     faults. *)
  let m = Addr_space.create () in
  Addr_space.mmap m ~addr:0x100000 ~len:(2 * mib) Perm.none;
  Addr_space.mprotect m ~addr:0x100000 ~len:mib Perm.rw;
  Addr_space.store m ~addr:0x100000 ~bytes:8 7;
  try
    ignore (Addr_space.load m ~addr:(0x100000 + mib) ~bytes:8);
    Alcotest.fail "guard should trap"
  with Addr_space.Fault f -> check_bool "guard protection" true (f.reason = `Protection)

let test_mprotect_hole_enomem () =
  let m = Addr_space.create () in
  Addr_space.mmap m ~addr:0x10000 ~len:4096 Perm.rw;
  (* hole at 0x11000 *)
  Addr_space.mmap m ~addr:0x12000 ~len:4096 Perm.rw;
  try
    Addr_space.mprotect m ~addr:0x10000 ~len:(3 * 4096) Perm.r;
    Alcotest.fail "expected ENOMEM-style fault"
  with Addr_space.Fault f -> check_bool "unmapped hole" true (f.reason = `Unmapped)

let test_mprotect_splits_vma () =
  let m = Addr_space.create () in
  Addr_space.mmap m ~addr:0x10000 ~len:(4 * 4096) Perm.rw;
  check_int "one vma" 1 (Addr_space.vma_count m);
  Addr_space.mprotect m ~addr:0x11000 ~len:4096 Perm.r;
  check_int "split into three" 3 (Addr_space.vma_count m);
  check_bool "middle read-only" true (Addr_space.perm_at m 0x11000 = Some Perm.r);
  check_bool "ends rw" true (Addr_space.perm_at m 0x13000 = Some Perm.rw)

let test_munmap_drops_data () =
  let m = Addr_space.create () in
  Addr_space.mmap m ~addr:0x10000 ~len:4096 Perm.rw;
  Addr_space.store m ~addr:0x10000 ~bytes:8 99;
  Addr_space.munmap m ~addr:0x10000 ~len:4096;
  check_bool "unmapped now" false (Addr_space.is_mapped m 0x10000);
  Addr_space.mmap m ~addr:0x10000 ~len:4096 Perm.rw;
  check_int "fresh zero" 0 (Addr_space.load m ~addr:0x10000 ~bytes:8)

let test_madvise_zeroes_but_keeps_mapping () =
  let m = Addr_space.create () in
  Addr_space.mmap m ~addr:0x10000 ~len:(2 * 4096) Perm.rw;
  Addr_space.store m ~addr:0x10000 ~bytes:8 42;
  check_int "resident 1" 1 (Addr_space.resident_pages_in m ~addr:0x10000 ~len:(2 * 4096));
  Addr_space.madvise_dontneed m ~addr:0x10000 ~len:(2 * 4096);
  check_int "resident 0" 0 (Addr_space.resident_pages_in m ~addr:0x10000 ~len:(2 * 4096));
  check_bool "still mapped" true (Addr_space.is_mapped m 0x10000);
  check_int "reads zero" 0 (Addr_space.load m ~addr:0x10000 ~bytes:8)

let test_reserved_accounting () =
  let m = Addr_space.create () in
  let gib = 1024 * mib in
  Addr_space.mmap m ~addr:(16 * gib) ~len:(8 * gib) Perm.none;
  check_int "8 GiB reserved" (8 * gib) (Addr_space.reserved_bytes m);
  Addr_space.munmap m ~addr:(16 * gib) ~len:(4 * gib);
  check_int "4 GiB left" (4 * gib) (Addr_space.reserved_bytes m)

let test_mmap_anywhere_no_overlap () =
  let m = Addr_space.create () in
  let a = Addr_space.mmap_anywhere m ~len:mib Perm.rw in
  let b = Addr_space.mmap_anywhere m ~len:mib Perm.rw in
  check_bool "disjoint" true (b >= a + mib || a >= b + mib);
  Addr_space.store m ~addr:a ~bytes:8 1;
  Addr_space.store m ~addr:b ~bytes:8 2;
  check_int "a intact" 1 (Addr_space.load m ~addr:a ~bytes:8)

let test_absent_pages_accounting () =
  let m = Addr_space.create () in
  Addr_space.mmap m ~addr:0x100000 ~len:(16 * 4096) Perm.rw;
  Addr_space.store m ~addr:0x100000 ~bytes:8 1;
  Addr_space.store m ~addr:0x104000 ~bytes:8 1;
  check_int "2 resident" 2 (Addr_space.resident_pages_in m ~addr:0x100000 ~len:(16 * 4096));
  check_int "14 absent" 14 (Addr_space.absent_pages_in m ~addr:0x100000 ~len:(16 * 4096))

let test_minor_fault_counting () =
  let m = Addr_space.create () in
  Addr_space.mmap m ~addr:0x10000 ~len:(4 * 4096) Perm.rw;
  let f0 = Addr_space.minor_faults m in
  Addr_space.store m ~addr:0x10000 ~bytes:8 1;
  Addr_space.store m ~addr:0x10008 ~bytes:8 2;
  (* same page *)
  Addr_space.store m ~addr:0x11000 ~bytes:8 3;
  check_int "2 first touches" 2 (Addr_space.minor_faults m - f0)

let test_peek_poke_bypass_perms () =
  let m = Addr_space.create () in
  Addr_space.mmap m ~addr:0x10000 ~len:4096 Perm.none;
  Addr_space.poke m ~addr:0x10000 ~bytes:8 77;
  check_int "peek" 77 (Addr_space.peek m ~addr:0x10000 ~bytes:8)

let test_blit_and_read_string () =
  let m = Addr_space.create () in
  Addr_space.mmap m ~addr:0x10000 ~len:4096 Perm.rw;
  Addr_space.blit_in m ~addr:0x10000 "hello";
  Alcotest.(check string) "roundtrip" "hello" (Addr_space.read_string m ~addr:0x10000 ~len:5)

let test_cache_hit_after_miss () =
  let c = Cache.create Cache.skylake_l1d in
  check_bool "first is miss" true (Cache.access c 0x1000 = `Miss);
  check_bool "second is hit" true (Cache.access c 0x1000 = `Hit);
  check_bool "same line hits" true (Cache.access c 0x1020 = `Hit);
  check_bool "different line misses" true (Cache.access c 0x1040 = `Miss)

let test_cache_lru_eviction () =
  let cfg = { Cache.size_bytes = 4 * 64; ways = 2; line_bytes = 64; hit_latency = 1; miss_latency = 10 } in
  let c = Cache.create cfg in
  (* 2 sets, 2 ways. Addresses mapping to set 0: multiples of 128. *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 128);
  ignore (Cache.access c 0);
  (* touch 0 so 128 is LRU *)
  ignore (Cache.access c 256);
  (* evicts 128 *)
  check_bool "0 still present" true (Cache.probe c 0);
  check_bool "128 evicted" false (Cache.probe c 128);
  check_bool "256 present" true (Cache.probe c 256)

(* Index math is a shift and a mask, so only power-of-two geometry is
   admitted. *)
let test_cache_rejects_non_pow2_line () =
  let cfg =
    { Cache.size_bytes = 48 * 64; ways = 4; line_bytes = 48; hit_latency = 1; miss_latency = 10 }
  in
  match Cache.create cfg with
  | _ -> Alcotest.fail "a 48-byte line was accepted"
  | exception Invalid_argument _ -> ()

let test_cache_flush () =
  let c = Cache.create Cache.skylake_l1d in
  ignore (Cache.access c 0x2000);
  check_bool "present" true (Cache.probe c 0x2000);
  Cache.flush_line c 0x2000;
  check_bool "flushed" false (Cache.probe c 0x2000);
  ignore (Cache.access c 0x3000);
  Cache.flush_all c;
  check_bool "all flushed" false (Cache.probe c 0x3000)

let test_cache_latency () =
  let c = Cache.create Cache.skylake_l1d in
  check_int "miss latency" 18 (Cache.timed_access c 0x9000);
  check_int "hit latency" 4 (Cache.timed_access c 0x9000)

let test_tlb () =
  let t = Tlb.create Tlb.skylake_dtlb in
  check_bool "cold miss" true (Tlb.access t 0x10000 = `Miss);
  check_bool "warm hit" true (Tlb.access t 0x10008 = `Hit);
  Tlb.flush_all t;
  check_bool "miss after flush" true (Tlb.access t 0x10000 = `Miss)

let test_kernel_file_ops () =
  let m = Addr_space.create () in
  let k = Kernel.create m in
  Addr_space.mmap m ~addr:0x20000 ~len:4096 Perm.rw;
  Kernel.add_file k ~id:1 ~content:"file contents here";
  let fd = Kernel.sys_open k ~id:1 in
  check_bool "fd valid" true (fd >= 3);
  let n = Kernel.sys_read k ~fd ~buf:0x20000 ~len:4 in
  check_int "read 4" 4 n;
  Alcotest.(check string) "data" "file" (Addr_space.read_string m ~addr:0x20000 ~len:4);
  let n2 = Kernel.sys_read k ~fd ~buf:0x20000 ~len:100 in
  check_int "rest" (String.length "file contents here" - 4) n2;
  check_int "close ok" 0 (Kernel.sys_close k ~fd);
  check_int "double close fails" (-1) (Kernel.sys_close k ~fd)

let test_kernel_open_missing () =
  let k = Kernel.create (Addr_space.create ()) in
  check_int "missing file" (-1) (Kernel.sys_open k ~id:99)

let test_kernel_costs_accumulate () =
  let k = Kernel.create (Addr_space.create ()) in
  Kernel.add_file k ~id:1 ~content:"x";
  let c0 = Kernel.cycles k in
  ignore (Kernel.sys_open k ~id:1);
  check_bool "open charged" true (Kernel.cycles k > c0)

let test_kernel_seccomp_overhead () =
  let mk seccomp =
    let k = Kernel.create (Addr_space.create ()) in
    Kernel.add_file k ~id:1 ~content:"y";
    Kernel.set_seccomp k seccomp;
    ignore (Kernel.dispatch k ~number:(Hfi_isa.Syscall.number Hfi_isa.Syscall.Getpid) ~arg0:0 ~arg1:0 ~arg2:0);
    Kernel.cycles k
  in
  let plain = mk false and filtered = mk true in
  check_bool "seccomp costs more" true (filtered > plain);
  check_int "delta is the filter cost"
    Cost.seccomp_filter_per_syscall
    (int_of_float (filtered -. plain))

let test_kernel_madvise_cost_scales_with_absent () =
  let m = Addr_space.create () in
  let k = Kernel.create m in
  (* Two regions, same resident count, different absent-page spans. *)
  Addr_space.mmap m ~addr:0x100000 ~len:(1024 * 4096) Perm.rw;
  Addr_space.store m ~addr:0x100000 ~bytes:8 1;
  Kernel.reset_cycles k;
  Kernel.sys_madvise_dontneed k ~addr:0x100000 ~len:4096;
  let small = Kernel.cycles k in
  Addr_space.store m ~addr:0x100000 ~bytes:8 1;
  Kernel.reset_cycles k;
  Kernel.sys_madvise_dontneed k ~addr:0x100000 ~len:(1024 * 4096);
  let large = Kernel.cycles k in
  check_bool "absent-page walk costs" true (large > small)

let test_kernel_shootdown_multithreaded () =
  let cost_of multithreaded =
    let m = Addr_space.create () in
    let k = Kernel.create ~multithreaded m in
    Addr_space.mmap m ~addr:0x10000 ~len:4096 Perm.rw;
    Kernel.reset_cycles k;
    Kernel.sys_mprotect k ~addr:0x10000 ~len:4096 Perm.r;
    Kernel.cycles k
  in
  check_bool "shootdown charged" true (cost_of true > cost_of false)

let test_kernel_syscall_dispatch () =
  let m = Addr_space.create () in
  let k = Kernel.create m in
  let pid = Kernel.dispatch k ~number:(Hfi_isa.Syscall.number Hfi_isa.Syscall.Getpid) ~arg0:0 ~arg1:0 ~arg2:0 in
  check_int "getpid" 4242 pid;
  check_int "bad syscall" (-1) (Kernel.dispatch k ~number:9999 ~arg0:0 ~arg1:0 ~arg2:0);
  check_int "2 syscalls" 2 (Kernel.syscall_count k)

let suite =
  [
    Alcotest.test_case "mmap/load/store" `Quick test_mmap_load_store;
    Alcotest.test_case "little-endian widths" `Quick test_widths_little_endian;
    Alcotest.test_case "unmapped faults" `Quick test_unmapped_faults;
    Alcotest.test_case "protection fault" `Quick test_protection_fault;
    Alcotest.test_case "guard region traps" `Quick test_guard_region_semantics;
    Alcotest.test_case "mprotect hole = ENOMEM" `Quick test_mprotect_hole_enomem;
    Alcotest.test_case "mprotect splits VMAs" `Quick test_mprotect_splits_vma;
    Alcotest.test_case "munmap drops data" `Quick test_munmap_drops_data;
    Alcotest.test_case "madvise semantics" `Quick test_madvise_zeroes_but_keeps_mapping;
    Alcotest.test_case "reserved VA accounting" `Quick test_reserved_accounting;
    Alcotest.test_case "mmap_anywhere non-overlap" `Quick test_mmap_anywhere_no_overlap;
    Alcotest.test_case "absent page accounting" `Quick test_absent_pages_accounting;
    Alcotest.test_case "minor fault counting" `Quick test_minor_fault_counting;
    Alcotest.test_case "peek/poke bypass" `Quick test_peek_poke_bypass_perms;
    Alcotest.test_case "blit/read string" `Quick test_blit_and_read_string;
    Alcotest.test_case "cache hit after miss" `Quick test_cache_hit_after_miss;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache rejects a non-power-of-two line" `Quick
      test_cache_rejects_non_pow2_line;
    Alcotest.test_case "cache flush" `Quick test_cache_flush;
    Alcotest.test_case "cache latencies" `Quick test_cache_latency;
    Alcotest.test_case "tlb" `Quick test_tlb;
    Alcotest.test_case "kernel file ops" `Quick test_kernel_file_ops;
    Alcotest.test_case "kernel open missing" `Quick test_kernel_open_missing;
    Alcotest.test_case "kernel costs" `Quick test_kernel_costs_accumulate;
    Alcotest.test_case "kernel seccomp overhead" `Quick test_kernel_seccomp_overhead;
    Alcotest.test_case "madvise absent-page cost" `Quick test_kernel_madvise_cost_scales_with_absent;
    Alcotest.test_case "tlb shootdown cost" `Quick test_kernel_shootdown_multithreaded;
    Alcotest.test_case "syscall dispatch" `Quick test_kernel_syscall_dispatch;
  ]
