(** The NGINX/OpenSSL native-sandboxing model of §6.4.2 (Fig. 5):
    a webserver delivering TLS content whose crypto functions and session
    keys live in a protection domain, following ERIM's setup.

    A request at file size [s] performs:
    - fixed connection/parse work,
    - session-key and handshake-state accesses (a fixed number of domain
      transitions per connection),
    - record-layer crypto over [s] bytes, entering and leaving the
      protected domain twice per 16 KiB TLS record.

    Domain-switch costs per mechanism: none for [Native]; serialized
    [hfi_enter]/[hfi_exit] plus region-metadata loads for [Hfi_native]
    (slightly more expensive than MPK because HFI must move region
    metadata from memory to registers, §6.4.2); [wrpkru] and call-gate
    glue for [Mpk] (via {!Hfi_sfi.Mpk}). *)

type mechanism = Native | Hfi_native | Mpk_erim

val file_sizes : int list
(** The Fig. 5 x-axis: 0 B to 128 KiB. *)

type point = {
  file_bytes : int;
  requests_per_sec : float;
  relative_throughput : float;  (** vs [Native] at the same size *)
}

val throughput : mechanism -> file_bytes:int -> float
(** Modeled requests/second on one isolated core. *)

val sweep : mechanism -> point list

val transitions_per_request : file_bytes:int -> int
