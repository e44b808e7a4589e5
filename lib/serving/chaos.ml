module Prng = Hfi_util.Prng
module Fault = Hfi_util.Fault

type rates = {
  sandbox_crash : float;
  kernel_fault : float;
  cold_stall : float;
  stall_factor : float;
  verifier_reject : float;
  poison_tenants : float;
}

let none =
  {
    sandbox_crash = 0.0;
    kernel_fault = 0.0;
    cold_stall = 0.0;
    stall_factor = 1.0;
    verifier_reject = 0.0;
    poison_tenants = 0.0;
  }

let default =
  {
    sandbox_crash = 0.02;
    kernel_fault = 0.015;
    cold_stall = 0.10;
    stall_factor = 8.0;
    verifier_reject = 0.002;
    poison_tenants = 0.08;
  }

type attempt_fault = Sandbox_crash | Kernel_fault

let attempt_fault_name = function
  | Sandbox_crash -> "sandbox-crash"
  | Kernel_fault -> "kernel-fault"

(* One uniform draw decides both hazards, so the draw count per executed
   attempt is constant — deterministic replay does not depend on which
   fault (if any) fired last time. *)
let draw_attempt ?ctx ?(at = 0.0) rates rng =
  let u = Prng.float rng 1.0 in
  let fault =
    if u < rates.sandbox_crash then Some Sandbox_crash
    else if u < rates.sandbox_crash +. rates.kernel_fault then Some Kernel_fault
    else None
  in
  (match fault with
  | Some kind ->
    Hfi_obs.Span.emit ctx Hfi_obs.Span.Chaos_inject ~start_s:at ~dur_s:0.0
      ~outcome:(attempt_fault_name kind)
  | None -> ());
  fault

let draw_cold_stall rates rng =
  let u = Prng.float rng 1.0 in
  if u < rates.cold_stall then rates.stall_factor else 1.0

let draw_spurious_reject rates rng = Prng.float rng 1.0 < rates.verifier_reject
let draw_poisoned rates rng = Prng.float rng 1.0 < rates.poison_tenants
