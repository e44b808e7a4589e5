(** The bench regression gate: diff a fresh bench JSON document against
    a committed baseline (e.g. BENCH_PR9.json) and fail loudly when the
    tree got slower or a deterministic key figure drifted.

    Three families of checks, each with its own tolerance:

    - per-experiment wall time ([uncached_seconds], falling back to
      [seconds]): host time, so compared as a ratio with a generous
      factor and a floor below which an experiment is too fast to
      measure reliably and is skipped;
    - per-tier reference-kernel timings ([tiers]): host time again,
      same factor, microsecond-scale floor;
    - per-experiment key figures ([data], e.g. the serving campaigns'
      tail latencies): virtual-time quantities that are bit-deterministic
      at a fixed config, so compared with a tight relative band.

    The comparison refuses documents that are not comparable (different
    [schema_version], v6 and v7 excepted, or [mode]) rather than
    reporting a vacuous pass.
    Bechamel micro estimates are deliberately not gated: ns-scale OLS
    estimates on shared CI runners are too noisy to act on. *)

module Json = Hfi_util.Json

type tolerance = {
  timing_factor : float;  (** max allowed current/baseline wall-time ratio *)
  min_seconds : float;  (** skip experiment-time checks under this baseline *)
  min_tier_seconds : float;  (** skip tier-time checks under this baseline *)
  data_rel_tol : float;  (** max |current - baseline| / baseline for data *)
}

(* 1.5x trips a genuine 2x slowdown while riding out run-to-run host
   noise on one machine; CI against a baseline from different hardware
   passes a wider factor explicitly. *)
let default_tolerance =
  { timing_factor = 1.5; min_seconds = 0.05; min_tier_seconds = 1e-5; data_rel_tol = 0.01 }

type status = Pass | Regression | Skipped | Missing

let status_name = function
  | Pass -> "pass"
  | Regression -> "REGRESSION"
  | Skipped -> "skipped"
  | Missing -> "MISSING"

type check = {
  subject : string;  (** experiment id, or ["tier:<name>"] *)
  metric : string;
  baseline : float;
  current : float;
  status : status;
  detail : string;
}

let regressions checks =
  List.filter (fun c -> c.status = Regression || c.status = Missing) checks

(* ---- document access ---- *)

let experiments doc =
  match Option.bind (Json.member "experiments" doc) Json.to_list with
  | Some l -> l
  | None -> []

let exp_id e = Option.value ~default:"?" (Json.str_member "id" e)

let find_experiment doc id = List.find_opt (fun e -> exp_id e = id) (experiments doc)

(* An experiment's comparable wall time: the honest uncached figure when
   the entry was served from the result cache, its own run time
   otherwise. *)
let wall_seconds e =
  match Json.num_member "uncached_seconds" e with
  | Some s -> Some s
  | None -> Json.num_member "seconds" e

let data_fields e =
  match Option.bind (Json.member "data" e) (function Json.Obj f -> Some f | _ -> None) with
  | Some fields ->
    List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_num v)) fields
  | None -> []

let tiers doc =
  match Option.bind (Json.member "tiers" doc) Json.to_list with
  | Some l ->
    List.filter_map
      (fun t ->
        match (Json.str_member "tier" t, Json.num_member "seconds_per_run" t) with
        | Some name, Some s -> Some (name, s)
        | _ -> None)
      l
  | None -> []

(* ---- comparison ---- *)

let ratio_check ~subject ~metric ~factor ~floor ~slowdown base cur =
  let cur = cur *. slowdown in
  if base < floor then
    {
      subject;
      metric;
      baseline = base;
      current = cur;
      status = Skipped;
      detail = Printf.sprintf "baseline %.3gs under %.3gs floor" base floor;
    }
  else
    let r = if base > 0.0 then cur /. base else infinity in
    {
      subject;
      metric;
      baseline = base;
      current = cur;
      status = (if r <= factor then Pass else Regression);
      detail = Printf.sprintf "%.2fx vs %.2fx allowed" r factor;
    }

let data_check ~subject ~metric ~rel_tol base cur =
  let denom = Float.max (Float.abs base) 1e-9 in
  let rel = Float.abs (cur -. base) /. denom in
  {
    subject;
    metric;
    baseline = base;
    current = cur;
    status = (if rel <= rel_tol then Pass else Regression);
    detail = Printf.sprintf "drift %.4f vs %.4f allowed" rel rel_tol;
  }

(* [slowdown] artificially multiplies every *current* timing before the
   check — the bench's --inject-slowdown, used by CI to prove the gate
   actually trips. Deterministic data figures are left alone: they
   could only be faked by changing the simulation itself. *)
let compare_docs ?(tol = default_tolerance) ?(slowdown = 1.0) ~baseline ~current () =
  (* v7 only added per-experiment [alloc_mb], which no check reads, so
     v6 and v7 documents share a layout. *)
  let sv doc =
    Option.map (fun v -> if v = 7.0 then 6.0 else v) (Json.num_member "schema_version" doc)
  in
  let mode doc = Json.str_member "mode" doc in
  match (sv baseline, sv current) with
  | Some b, Some c when b <> c ->
    Error (Printf.sprintf "schema_version mismatch: baseline %g, current %g" b c)
  | None, _ | _, None -> Error "schema_version missing from one of the documents"
  | Some _, Some _ ->
    if mode baseline <> mode current then
      Error
        (Printf.sprintf "mode mismatch: baseline %s, current %s"
           (Option.value ~default:"?" (mode baseline))
           (Option.value ~default:"?" (mode current)))
    else begin
      let checks = ref [] in
      let push c = checks := c :: !checks in
      (* Experiments: gate on the baseline's entries, so an experiment
         added since the baseline passes (nothing to compare) and one
         that disappeared or now fails is itself a finding. *)
      List.iter
        (fun b_exp ->
          let id = exp_id b_exp in
          if Json.str_member "status" b_exp = Some "ok" then
            match find_experiment current id with
            | None ->
              push
                {
                  subject = id;
                  metric = "presence";
                  baseline = 1.0;
                  current = 0.0;
                  status = Missing;
                  detail = "experiment absent from current run";
                }
            | Some c_exp when Json.str_member "status" c_exp <> Some "ok" ->
              push
                {
                  subject = id;
                  metric = "status";
                  baseline = 1.0;
                  current = 0.0;
                  status = Missing;
                  detail = "experiment failed in current run";
                }
            | Some c_exp ->
              (match (wall_seconds b_exp, wall_seconds c_exp) with
              | Some b, Some c ->
                push
                  (ratio_check ~subject:id ~metric:"uncached_seconds"
                     ~factor:tol.timing_factor ~floor:tol.min_seconds ~slowdown b c)
              | _ -> ());
              let c_data = data_fields c_exp in
              List.iter
                (fun (k, b) ->
                  match List.assoc_opt k c_data with
                  | Some c ->
                    push (data_check ~subject:id ~metric:k ~rel_tol:tol.data_rel_tol b c)
                  | None ->
                    push
                      {
                        subject = id;
                        metric = k;
                        baseline = b;
                        current = 0.0;
                        status = Missing;
                        detail = "data key absent from current run";
                      })
                (data_fields b_exp))
        (experiments baseline);
      (* Tier timings on the reference kernel. *)
      let c_tiers = tiers current in
      List.iter
        (fun (name, b) ->
          match List.assoc_opt name c_tiers with
          | Some c ->
            push
              (ratio_check ~subject:("tier:" ^ name) ~metric:"seconds_per_run"
                 ~factor:tol.timing_factor ~floor:tol.min_tier_seconds ~slowdown b c)
          | None ->
            push
              {
                subject = "tier:" ^ name;
                metric = "seconds_per_run";
                baseline = b;
                current = 0.0;
                status = Missing;
                detail = "tier absent from current run";
              })
        (tiers baseline);
      Ok (List.rev !checks)
    end

let render checks =
  let buf = Buffer.create 1024 in
  let rows =
    List.map
      (fun c ->
        [
          c.subject;
          c.metric;
          Printf.sprintf "%.4g" c.baseline;
          Printf.sprintf "%.4g" c.current;
          status_name c.status;
          c.detail;
        ])
      checks
  in
  Buffer.add_string buf
    (Hfi_util.Table.render
       ~header:[ "subject"; "metric"; "baseline"; "current"; "status"; "detail" ]
       rows);
  let bad = regressions checks in
  let skipped = List.length (List.filter (fun c -> c.status = Skipped) checks) in
  Buffer.add_string buf
    (if bad = [] then
       Printf.sprintf "regression gate: PASS (%d checks, %d skipped under floor)\n"
         (List.length checks) skipped
     else
       Printf.sprintf "regression gate: FAIL — %d regression(s) in %d checks: %s\n"
         (List.length bad) (List.length checks)
         (String.concat ", " (List.map (fun c -> c.subject ^ "/" ^ c.metric) bad)));
  Buffer.contents buf
