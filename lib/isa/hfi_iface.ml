type implicit_code_region = {
  base_prefix : int;
  lsb_mask : int;
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
  bound : int;
  permission_read : bool;
  permission_write : bool;
  is_large_region : bool;
}

type region =
  | Implicit_code of implicit_code_region
  | Implicit_data of implicit_data_region
  | Explicit_data of explicit_data_region

type sandbox_spec = {
  is_hybrid : bool;
  is_serialized : bool;
  switch_on_exit : bool;
  exit_handler : int option;
}

let code_region_slots = [ 0; 1 ]
let implicit_data_slots = [ 2; 3; 4; 5 ]
let region_count = 10

let slot_kind slot =
  if slot < 0 || slot >= region_count then invalid_arg "Hfi_iface.slot_kind"
  else if slot <= 1 then `Code
  else if slot <= 5 then `Implicit_data
  else `Explicit_data

let explicit_index slot =
  match slot_kind slot with
  | `Explicit_data -> slot - 6
  | `Code | `Implicit_data -> invalid_arg "Hfi_iface.explicit_index: not explicit"

let slot_of_explicit_index i =
  if i < 0 || i > 3 then invalid_arg "Hfi_iface.slot_of_explicit_index";
  i + 6

let pp_region ppf = function
  | Implicit_code r ->
    Format.fprintf ppf "code[prefix=0x%x mask=0x%x x=%b]" r.base_prefix r.lsb_mask
      r.permission_exec
  | Implicit_data r ->
    Format.fprintf ppf "idata[prefix=0x%x mask=0x%x r=%b w=%b]" r.base_prefix r.lsb_mask
      r.permission_read r.permission_write
  | Explicit_data r ->
    Format.fprintf ppf "edata[base=0x%x bound=0x%x r=%b w=%b %s]" r.base_address r.bound
      r.permission_read r.permission_write
      (if r.is_large_region then "large" else "small")

let default_native_spec =
  { is_hybrid = false; is_serialized = true; switch_on_exit = false; exit_handler = None }

let default_hybrid_spec =
  { is_hybrid = true; is_serialized = false; switch_on_exit = false; exit_handler = None }
