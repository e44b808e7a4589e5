(** The serving-level fault injector: seeded hazards for chaos
    campaigns, all drawn from the caller's {!Hfi_util.Prng.t} so a
    campaign is replayable from its seed.

    Five hazard classes, mirroring what a dense FaaS fleet actually
    sees: sandbox crashes mid-request (instance lost, retryable),
    transient kernel faults (retryable), cold-start stalls (the
    instance comes up [stall_factor] slower), spurious verifier rejects
    at admission, and poison tenants — whose module image is replaced by
    a genuinely unverifiable region-escape module that the admission
    gate must refuse to ever execute. *)

type rates = {
  sandbox_crash : float;  (** probability per executed attempt *)
  kernel_fault : float;  (** probability per executed attempt *)
  cold_stall : float;  (** probability per cold start *)
  stall_factor : float;  (** cold-start multiplier when stalled *)
  verifier_reject : float;  (** spurious admission reject, per request *)
  poison_tenants : float;  (** fraction of tenants given the poison image *)
}

val none : rates
(** All hazards off (steady/burst scenarios). *)

val default : rates
(** The serve_chaos mix: 2% crash, 1.5% kernel fault, 10% of cold
    starts stalled 8x, 0.2% spurious reject, 8% poison tenants. *)

type attempt_fault = Sandbox_crash | Kernel_fault

val attempt_fault_name : attempt_fault -> string

val draw_attempt :
  ?ctx:Hfi_obs.Span.ctx -> ?at:float -> rates -> Hfi_util.Prng.t -> attempt_fault option
(** Exactly one uniform draw per call, whatever the outcome. With
    [ctx], a fired hazard is recorded as an instant chaos-inject span at
    virtual time [at] (default 0). *)

val draw_cold_stall : rates -> Hfi_util.Prng.t -> float
(** [stall_factor] with probability [cold_stall], else [1.0]. *)

val draw_spurious_reject : rates -> Hfi_util.Prng.t -> bool
val draw_poisoned : rates -> Hfi_util.Prng.t -> bool
