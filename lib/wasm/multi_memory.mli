(** Wasm multi-memory support (§2, §3.3.1): an instance with several
    linear memories. Under guard pages each memory costs another 8 GiB
    reservation; under HFI the memories pack at their real size and are
    addressed through the four explicit regions, with the in-sandbox
    runtime multiplexing [hfi_set_region] when an instance has more
    memories than regions. *)

type t

val create :
  strategy:Hfi_sfi.Strategy.t ->
  kernel:Kernel.t ->
  ?hfi:Hfi.t ->
  count:int ->
  bytes_each:int ->
  unit ->
  t

val count : t -> int
val memory : t -> int -> Linear_memory.t

val footprint : t -> int
(** Total reserved address space across the memories. *)

val region_for : t -> memory:int -> int
(** The hmov region (0–3) through which the memory is currently
    addressable, binding it first if necessary — evicting the
    least-recently-used binding when all four regions are taken. *)

val rebinds : t -> int
(** Number of [hfi_set_region] multiplexing operations performed beyond
    the initial four bindings. *)
