type bank = Active | Inactive

type effect_ =
  | Continue
  | Jump of int
  | Trap of Msr.t

type stats = {
  mutable enters : int;
  mutable exits : int;
  mutable syscall_traps : int;
  mutable violations : int;
  mutable region_updates : int;
  mutable drains : int;
}

type saved_ctx = {
  s_regions : Hfi_iface.region option array;
  s_spec : Hfi_iface.sandbox_spec;
}

(* Precomputed summary of the active bank's implicit regions, so the
   common in-bounds check is a mask-compare instead of a slot walk. The
   summaries are recomputed after every operation that can change the
   active bank (region writes, bank swaps, save/restore). *)
type data_summary =
  | D_single of { nmask : int; prefix : int; read : bool; write : bool }
      (* exactly one implicit data region configured *)
  | D_pair of {
      nmask1 : int;
      prefix1 : int;
      read1 : bool;
      write1 : bool;
      nmask2 : int;
      prefix2 : int;
      read2 : bool;
      write2 : bool;
    }
      (* exactly two, in slot order — the runtime's usual stack+globals
         layout; first-match order is preserved *)
  | D_general  (* zero or 3+ regions: take the first-match walk *)

type code_summary =
  | C_single of { nmask : int; prefix : int; exec : bool }
  | C_general

type t = {
  mutable active : Hfi_iface.region option array;
  mutable inactive : Hfi_iface.region option array;
  mutable enabled_ : bool;
  mutable spec : Hfi_iface.sandbox_spec option;
  mutable soe_saved : saved_ctx option;
      (* runtime context stashed by a switch-on-exit enter *)
  mutable last_spec : Hfi_iface.sandbox_spec option;  (* for hfi_reenter *)
  mutable msr : Msr.t;
  mutable dsum : data_summary;
  mutable csum : code_summary;
  st : stats;
}

let fresh_bank () = Array.make Hfi_iface.region_count None

let recompute_summaries t =
  let data =
    List.filter_map
      (fun s ->
        match t.active.(s) with Some (Hfi_iface.Implicit_data r) -> Some r | _ -> None)
      Hfi_iface.implicit_data_slots
  in
  t.dsum <-
    (match data with
    | [ r ] ->
      D_single
        {
          nmask = lnot r.Hfi_iface.lsb_mask;
          prefix = r.Hfi_iface.base_prefix;
          read = r.Hfi_iface.permission_read;
          write = r.Hfi_iface.permission_write;
        }
    | [ r1; r2 ] ->
      D_pair
        {
          nmask1 = lnot r1.Hfi_iface.lsb_mask;
          prefix1 = r1.Hfi_iface.base_prefix;
          read1 = r1.Hfi_iface.permission_read;
          write1 = r1.Hfi_iface.permission_write;
          nmask2 = lnot r2.Hfi_iface.lsb_mask;
          prefix2 = r2.Hfi_iface.base_prefix;
          read2 = r2.Hfi_iface.permission_read;
          write2 = r2.Hfi_iface.permission_write;
        }
    | _ -> D_general);
  let code =
    List.filter_map
      (fun s ->
        match t.active.(s) with Some (Hfi_iface.Implicit_code r) -> Some r | _ -> None)
      Hfi_iface.code_region_slots
  in
  t.csum <-
    (match code with
    | [ r ] ->
      C_single
        {
          nmask = lnot r.Hfi_iface.lsb_mask;
          prefix = r.Hfi_iface.base_prefix;
          exec = r.Hfi_iface.permission_exec;
        }
    | _ -> C_general)

let create () =
  {
    active = fresh_bank ();
    inactive = fresh_bank ();
    enabled_ = false;
    spec = None;
    soe_saved = None;
    last_spec = None;
    msr = Msr.No_exit;
    dsum = D_general;
    csum = C_general;
    st =
      {
        enters = 0;
        exits = 0;
        syscall_traps = 0;
        violations = 0;
        region_updates = 0;
        drains = 0;
      };
  }

let enabled t = t.enabled_
let current_spec t = t.spec
let exit_reason t = t.msr
let stats t = t.st

let region t ?(bank = Active) slot =
  if slot < 0 || slot >= Hfi_iface.region_count then invalid_arg "Hfi.region: slot";
  (match bank with Active -> t.active | Inactive -> t.inactive).(slot)

let in_native_sandbox t =
  t.enabled_ && (match t.spec with Some s -> not s.Hfi_iface.is_hybrid | None -> false)

let drain t = t.st.drains <- t.st.drains + 1

(* Disable sandboxing for reason [r]; in switch-on-exit mode restore the
   runtime context instead of turning HFI off. *)
let leave_sandbox t reason =
  t.msr <- reason;
  t.last_spec <- t.spec;
  (match t.spec with
  | Some s when s.Hfi_iface.switch_on_exit -> begin
    match t.soe_saved with
    | Some saved ->
      (* Swap back: the child's registers return to the inactive bank so
         the runtime can re-enter it cheaply. *)
      let child = t.active in
      t.active <- saved.s_regions;
      t.inactive <- child;
      t.spec <- Some saved.s_spec;
      t.soe_saved <- None
      (* HFI stays enabled: we are back in the runtime's (hybrid) sandbox. *)
    | None ->
      (* Entered with switch-on-exit from a disabled state; degenerates to
         a plain exit. *)
      t.enabled_ <- false;
      t.spec <- None
  end
  | _ ->
    t.enabled_ <- false;
    t.spec <- None);
  recompute_summaries t

let trap t reason =
  t.st.violations <- t.st.violations + 1;
  leave_sandbox t reason;
  Trap reason

let exec_enter t spec =
  if in_native_sandbox t then trap t Msr.Privileged_in_native
  else begin
    t.st.enters <- t.st.enters + 1;
    if spec.Hfi_iface.is_serialized then drain t;
    if spec.Hfi_iface.switch_on_exit then begin
      (match t.spec with
      | Some runtime_spec ->
        t.soe_saved <- Some { s_regions = t.active; s_spec = runtime_spec }
      | None -> t.soe_saved <- None);
      (* The child's registers were prepared in the inactive bank. *)
      let child = t.inactive in
      t.inactive <- t.active;
      t.active <- child;
      recompute_summaries t
    end;
    t.spec <- Some spec;
    t.enabled_ <- true;
    Continue
  end

let handler_effect spec =
  match spec.Hfi_iface.exit_handler with Some h -> Jump h | None -> Continue

let exec_exit t =
  if not t.enabled_ then Continue
  else begin
    match t.spec with
    | None -> Continue
    | Some spec ->
      t.st.exits <- t.st.exits + 1;
      if spec.Hfi_iface.is_serialized then drain t;
      leave_sandbox t Msr.Exit_instruction;
      handler_effect spec
  end

let exec_reenter t =
  match t.last_spec with
  | None -> Continue
  | Some spec ->
    if in_native_sandbox t then trap t Msr.Privileged_in_native
    else begin
      t.st.enters <- t.st.enters + 1;
      if spec.Hfi_iface.is_serialized then drain t;
      if spec.Hfi_iface.switch_on_exit then begin
        (match t.spec with
        | Some runtime_spec ->
          t.soe_saved <- Some { s_regions = t.active; s_spec = runtime_spec }
        | None -> t.soe_saved <- None);
        let child = t.inactive in
        t.inactive <- t.active;
        t.active <- child;
        recompute_summaries t
      end;
      t.spec <- Some spec;
      t.enabled_ <- true;
      Continue
    end

let bank_and_slot t slot =
  if slot >= 0 && slot < Hfi_iface.region_count then Some (t.active, slot)
  else if slot >= Hfi_iface.region_count && slot < 2 * Hfi_iface.region_count then
    Some (t.inactive, slot - Hfi_iface.region_count)
  else None

let exec_set_region t ~slot region =
  if in_native_sandbox t then trap t Msr.Privileged_in_native
  else begin
    match bank_and_slot t slot with
    | None -> trap t Msr.Invalid_region_descriptor
    | Some (bank, s) -> begin
      match Region.validate ~slot:s region with
      | Error _ -> trap t Msr.Invalid_region_descriptor
      | Ok () ->
        t.st.region_updates <- t.st.region_updates + 1;
        (* §4.3: region updates serialize when HFI is enabled (hybrid). *)
        if t.enabled_ then drain t;
        bank.(s) <- Some region;
        recompute_summaries t;
        Continue
    end
  end

(* Fault-injection hook: overwrite a region register as a hardware
   bit-flip would — no validation, no serialization, no stats, no trap.
   Only the derived summaries are refreshed, since real hardware would
   likewise consult the (corrupted) register file on the next access. *)
let inject_region t ~slot region =
  match bank_and_slot t slot with
  | None -> invalid_arg "Hfi.inject_region: slot out of range"
  | Some (bank, s) ->
    bank.(s) <- region;
    recompute_summaries t

let exec_clear_region t ~slot =
  if in_native_sandbox t then trap t Msr.Privileged_in_native
  else begin
    match bank_and_slot t slot with
    | None -> trap t Msr.Invalid_region_descriptor
    | Some (bank, s) ->
      t.st.region_updates <- t.st.region_updates + 1;
      if t.enabled_ then drain t;
      bank.(s) <- None;
      recompute_summaries t;
      Continue
  end

let exec_clear_all t =
  if in_native_sandbox t then trap t Msr.Privileged_in_native
  else begin
    t.st.region_updates <- t.st.region_updates + 1;
    if t.enabled_ then drain t;
    Array.fill t.active 0 Hfi_iface.region_count None;
    Array.fill t.inactive 0 Hfi_iface.region_count None;
    recompute_summaries t;
    Continue
  end

let exec_get_region t ~slot =
  if in_native_sandbox t then Error Msr.Privileged_in_native
  else begin
    match bank_and_slot t slot with
    | None -> Error Msr.Invalid_region_descriptor
    | Some (bank, s) ->
      Ok
        (match bank.(s) with
        | None -> 0
        | Some (Hfi_iface.Implicit_code r) -> r.base_prefix
        | Some (Hfi_iface.Implicit_data r) -> r.base_prefix
        | Some (Hfi_iface.Explicit_data r) -> r.base_address)
  end

(* First-match lookup over the implicit data regions (slots 2–5). *)
let data_byte_allowed t addr access =
  let rec go = function
    | [] -> Error { Msr.addr; access = (match access with `Read -> Msr.Read | `Write -> Msr.Write); cause = Msr.No_matching_region }
    | slot :: rest -> begin
      match t.active.(slot) with
      | Some (Hfi_iface.Implicit_data r) -> begin
        match Region.implicit_data_allows r ~addr access with
        | `Hit true -> Ok ()
        | `Hit false ->
          Error
            {
              Msr.addr;
              access = (match access with `Read -> Msr.Read | `Write -> Msr.Write);
              cause = Msr.Permission;
            }
        | `Miss -> go rest
      end
      | _ -> go rest
    end
  in
  go Hfi_iface.implicit_data_slots

let check_data_slow t ~addr ~bytes access =
  match data_byte_allowed t addr access with
  | Error v -> Error v
  | Ok () -> if bytes > 1 then data_byte_allowed t (addr + bytes - 1) access else Ok ()

(* One endpoint against a two-region summary, first match wins: a
   matching region with a denied permission stops the search (no
   fall-through). Top-level, so the per-access check allocates no
   closure. *)
let pair_endpoint_ok ~nmask1 ~prefix1 ~ok1 ~nmask2 ~prefix2 ~ok2 e =
  if e land nmask1 = prefix1 then ok1 else if e land nmask2 = prefix2 then ok2 else false

let check_data_access t ~addr ~bytes access =
  if not t.enabled_ then Ok ()
  else begin
    (* Fast path: a single configured region whose prefix covers both
       endpoints and grants the access. Any miss (including a denied
       permission) falls back to the walk, which builds the identical
       violation record. *)
    match t.dsum with
    | D_single s
      when addr land s.nmask = s.prefix
           && (bytes = 1 || (addr + bytes - 1) land s.nmask = s.prefix)
           && (match access with `Read -> s.read | `Write -> s.write) ->
      Ok ()
    | D_pair s ->
      (* First-match per endpoint, as in the walk. *)
      let ok1 = match access with `Read -> s.read1 | `Write -> s.write1 in
      let ok2 = match access with `Read -> s.read2 | `Write -> s.write2 in
      let nmask1 = s.nmask1 and prefix1 = s.prefix1 in
      let nmask2 = s.nmask2 and prefix2 = s.prefix2 in
      if
        pair_endpoint_ok ~nmask1 ~prefix1 ~ok1 ~nmask2 ~prefix2 ~ok2 addr
        && (bytes = 1
           || pair_endpoint_ok ~nmask1 ~prefix1 ~ok1 ~nmask2 ~prefix2 ~ok2 (addr + bytes - 1))
      then Ok ()
      else check_data_slow t ~addr ~bytes access
    | _ -> check_data_slow t ~addr ~bytes access
  end

let check_ifetch_slow t ~addr =
  let rec go = function
    | [] -> Error { Msr.addr; access = Msr.Exec; cause = Msr.No_matching_region }
    | slot :: rest -> begin
      match t.active.(slot) with
      | Some (Hfi_iface.Implicit_code r) -> begin
        match Region.implicit_code_allows r ~addr with
        | `Hit true -> Ok ()
        | `Hit false -> Error { Msr.addr; access = Msr.Exec; cause = Msr.Permission }
        | `Miss -> go rest
      end
      | _ -> go rest
    end
  in
  go Hfi_iface.code_region_slots

let check_ifetch t ~addr =
  if not t.enabled_ then Ok ()
  else begin
    match t.csum with
    | C_single s when addr land s.nmask = s.prefix && s.exec -> Ok ()
    | _ -> check_ifetch_slow t ~addr
  end

let check_hmov t ~region ~index_value ~scale ~disp ~bytes ~write =
  let access = if write then Msr.Write else Msr.Read in
  if region < 0 || region > 3 then
    Error { Msr.addr = 0; access; cause = Msr.Region_not_configured }
  else begin
    let slot = Hfi_iface.slot_of_explicit_index region in
    match if t.enabled_ then t.active.(slot) else t.active.(slot) with
    | Some (Hfi_iface.Explicit_data r) -> begin
      match Region.hmov_access r ~index_value ~scale ~disp ~bytes ~write with
      | Ok chk -> Ok chk.Region.effective_address
      | Error cause ->
        Error { Msr.addr = r.base_address + (index_value * scale) + disp; access; cause }
    end
    | _ -> Error { Msr.addr = 0; access; cause = Msr.Region_not_configured }
  end

let check_hmov_ea t ~region ~index_value ~scale ~disp ~bytes ~write =
  if region < 0 || region > 3 then -1
  else begin
    match t.active.(Hfi_iface.slot_of_explicit_index region) with
    | Some (Hfi_iface.Explicit_data r) -> Region.hmov_ea r ~index_value ~scale ~disp ~bytes ~write
    | _ -> -1
  end

let record_violation t v =
  t.st.violations <- t.st.violations + 1;
  leave_sandbox t (Msr.Bounds_violation v);
  Trap (Msr.Bounds_violation v)

let on_syscall t ~number =
  if in_native_sandbox t then begin
    match t.spec with
    | Some spec -> begin
      t.st.syscall_traps <- t.st.syscall_traps + 1;
      match spec.Hfi_iface.exit_handler with
      | Some h ->
        leave_sandbox t (Msr.Syscall_trap number);
        `Redirect h
      | None ->
        leave_sandbox t (Msr.Syscall_trap number);
        `Fault
    end
    | None -> `Allow
  end
  else `Allow

let on_hardware_fault t ~addr =
  if t.enabled_ then leave_sandbox t (Msr.Hardware_fault addr)

type saved = {
  x_active : Hfi_iface.region option array;
  x_inactive : Hfi_iface.region option array;
  x_enabled : bool;
  x_spec : Hfi_iface.sandbox_spec option;
  x_soe_saved : saved_ctx option;
  x_last_spec : Hfi_iface.sandbox_spec option;
  x_msr : Msr.t;
}

let xsave t =
  {
    x_active = Array.copy t.active;
    x_inactive = Array.copy t.inactive;
    x_enabled = t.enabled_;
    x_spec = t.spec;
    x_soe_saved = t.soe_saved;
    x_last_spec = t.last_spec;
    x_msr = t.msr;
  }

let xrstor t saved =
  if in_native_sandbox t then trap t Msr.Privileged_in_native
  else begin
    t.active <- Array.copy saved.x_active;
    t.inactive <- Array.copy saved.x_inactive;
    t.enabled_ <- saved.x_enabled;
    t.spec <- saved.x_spec;
    t.soe_saved <- saved.x_soe_saved;
    t.last_spec <- saved.x_last_spec;
    t.msr <- saved.x_msr;
    recompute_summaries t;
    Continue
  end

let kernel_xrstor t saved =
  t.active <- Array.copy saved.x_active;
  t.inactive <- Array.copy saved.x_inactive;
  t.enabled_ <- saved.x_enabled;
  t.spec <- saved.x_spec;
  t.soe_saved <- saved.x_soe_saved;
  t.last_spec <- saved.x_last_spec;
  t.msr <- saved.x_msr;
  recompute_summaries t
