type mechanism = Native | Hfi_native | Mpk_erim

let kib = 1024

let file_sizes = [ 0; kib; 2 * kib; 4 * kib; 8 * kib; 16 * kib; 32 * kib; 64 * kib; 128 * kib ]

(* Request cost model, calibrated to ERIM's single-core NGINX setup:
   fixed connection work plus record-layer crypto per byte. *)
let request_base_cycles = 64_000.0
let crypto_cycles_per_byte = 1.5
let tls_record_bytes = 16 * kib
let handshake_transitions = 23

let transitions_per_request ~file_bytes =
  let records = (file_bytes + tls_record_bytes - 1) / tls_record_bytes in
  handshake_transitions + (3 * records)

(* One domain round-trip (in and out of the crypto domain). *)
let transition_cycles = function
  | Native -> 0.0
  | Hfi_native ->
    (* Serialized enter + exit, plus moving the region metadata from
       memory into the HFI registers — the "few cycles" that put HFI
       slightly above MPK in Fig. 5. *)
    float_of_int ((2 * Cost.serialization_drain) + (10 * Cost.hfi_set_region_cycles))
  | Mpk_erim -> float_of_int (2 * (Cost.wrpkru + Cost.mpk_per_transition_extra))

let request_cycles mech ~file_bytes =
  let work = request_base_cycles +. (float_of_int file_bytes *. crypto_cycles_per_byte) in
  let t = float_of_int (transitions_per_request ~file_bytes) *. transition_cycles mech in
  work +. t

let throughput mech ~file_bytes =
  Hfi_util.Units.core_frequency_hz /. request_cycles mech ~file_bytes

type point = { file_bytes : int; requests_per_sec : float; relative_throughput : float }

let sweep mech =
  List.map
    (fun s ->
      {
        file_bytes = s;
        requests_per_sec = throughput mech ~file_bytes:s;
        relative_throughput = throughput mech ~file_bytes:s /. throughput Native ~file_bytes:s;
      })
    file_sizes
