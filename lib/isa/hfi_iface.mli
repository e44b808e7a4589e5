(** The HFI software interface, transcribed from Figure 6 of the paper
    (appendix A.1). These are pure data descriptions of the parameters the
    HFI instructions take; the semantics live in [Hfi_core].

    Region register numbering follows the paper:
    regions 0–1 are implicit code regions, 2–5 implicit data regions, and
    6–9 explicit data regions (the paper writes 6–10 but allocates four
    explicit regions; we use the four slots 6–9). *)

type implicit_code_region = {
  base_prefix : int;  (** base address prefix (aligned to the region size) *)
  lsb_mask : int;  (** mask covering the region's offset bits, e.g. [size-1] *)
  permission_exec : bool;
}

type implicit_data_region = {
  base_prefix : int;
  lsb_mask : int;
  permission_read : bool;
  permission_write : bool;
}

type explicit_data_region = {
  base_address : int;
  bound : int;  (** size of the region in bytes; offsets in [\[0, bound)] *)
  permission_read : bool;
  permission_write : bool;
  is_large_region : bool;
      (** Large regions: base and bound are multiples of 64 KiB, bound up to
          256 TiB. Small regions: byte-granular, bound up to 4 GiB, and the
          region must not span a 4 GiB-aligned boundary. *)
}

type region =
  | Implicit_code of implicit_code_region
  | Implicit_data of implicit_data_region
  | Explicit_data of explicit_data_region

type sandbox_spec = {
  is_hybrid : bool;  (** hybrid (trusted-compiler) vs native sandbox *)
  is_serialized : bool;  (** serialize enter/exit for Spectre protection *)
  switch_on_exit : bool;  (** use the switch-on-exit extension (§3.4) *)
  exit_handler : int option;
      (** if set, interpose on [hfi_exit] (and syscalls in native
          sandboxes) by jumping here *)
}

val code_region_slots : int list
(** [\[0; 1\]] *)

val implicit_data_slots : int list
(** [\[2; 3; 4; 5\]] *)

val region_count : int
(** 10 region register slots in total. *)

val slot_kind : int -> [ `Code | `Implicit_data | `Explicit_data ]
(** Classification of a slot number. Raises [Invalid_argument] if the slot
    is outside [\[0, region_count)]. *)

val explicit_index : int -> int
(** Map an explicit slot (6–9) to the [hmov{0-3}] region number. *)

val slot_of_explicit_index : int -> int
(** Inverse of [explicit_index]. *)

val pp_region : Format.formatter -> region -> unit

val default_native_spec : sandbox_spec
(** Native, serialized, no switch-on-exit; the exit handler must still be
    provided by the runtime. *)

val default_hybrid_spec : sandbox_spec
