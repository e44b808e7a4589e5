let syscall_ring_transition = 500
let syscall_open = 2400
let syscall_read_base = 900
let syscall_read_per_byte = 0.06
let syscall_write_base = 900
let syscall_write_per_byte = 0.06
let syscall_close = 600
let syscall_getpid = 100

let mmap_base = 2200
let munmap_base = 2200
let munmap_per_resident_page = 320
let mprotect_base = 2600
let mprotect_per_page = 240
let madvise_base = 2600
let madvise_per_resident_page = 350
let madvise_per_absent_page = 0.025
let tlb_shootdown = 4200
let page_fault = 2300

let serialization_drain = 45
let cpuid_drain = 130
let hfi_set_region_cycles = 8
let wrpkru = 24
let mpk_per_transition_extra = 41
let seccomp_filter_per_syscall = 86
let process_context_switch = 4500
let signal_delivery = 3100
