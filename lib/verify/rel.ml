(* Relational extension of the per-register {!Domain}: affine offset
   facts of the form [r = k*base + [lo,hi]] plus interval widening with
   program-derived thresholds. Both exist for the two idioms the plain
   interval/mask domain cannot bound:

   - a pointer advanced by a constant stride inside a counted loop
     (base64's output cursor) has no dominating compare, so its
     interval widens without bound — but it stays an exact affine
     function of the loop counter, which *is* compared;
   - a derived index tested against a limit ([cmp 2*i, n]) bounds the
     underlying counter only through the affine relation, and a counter
     widened straight to [+inf] turns a later exact multiply into top
     (sieve). Threshold widening parks the counter at the program's own
     compare immediates instead of infinity, keeping the multiply
     exact; backward refinement through a fact recovers the counter
     bound from the derived compare. *)

type fact = { base : int; k : int; lo : int; hi : int }

let max_k = 64

(* Offset hulls wider than this are useless for window checks and risk
   churn in the fixpoint: refuse to create them. *)
let max_offset_width = 1 lsl 20

(* ---- overflow checks (63-bit native ints) ---- *)

(* [a + b] does not wrap *)
let add_ok a b =
  let s = a + b in
  not ((a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0))

(* [k * x] does not wrap *)
let mul_ok k x = k = 0 || x = 0 || (k <> min_int && x <> min_int && k * x / k = x)

(* floor / ceiling division, exact for any sign of the operands *)
let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && r lxor b < 0 then q - 1 else q

let cdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && r lxor b >= 0 then q + 1 else q

(* ---- fact algebra ---- *)

(* The offset interval [r - k*base] of one abstract state, when both
   sides have finite bounds and nothing overflows. *)
let offset_itv rd based ~k =
  if k = 0 || not (Domain.has_bounds rd && Domain.has_bounds based) then None
  else begin
    let bl = Domain.lower based and bh = Domain.upper based in
    if not (mul_ok k bl && mul_ok k bh) then None
    else begin
      let a = k * bl and b = k * bh in
      let kl = Int.min a b and kh = Int.max a b in
      let rl = Domain.lower rd and rh = Domain.upper rd in
      if not (add_ok rl (-kh) && add_ok rh (-kl)) then None
      else begin
        let lo = rl - kh and hi = rh - kl in
        if hi - lo >= 0 && hi - lo <= max_offset_width then Some (lo, hi) else None
      end
    end
  end

(* Does [st = (facts, regs)] entail [r = k*base + [f.lo, f.hi]]? The
   state's own fact, when it has the same base and stride, or else the
   interval hull of [r - k*base], must lie within [f]'s offsets. *)
let entails facts regs r (f : fact) =
  match facts.(r) with
  | Some (g : fact) when g.base = f.base && g.k = f.k -> g.lo >= f.lo && g.hi <= f.hi
  | _ -> (
    match offset_itv regs.(r) regs.(f.base) ~k:f.k with
    | Some (lo, hi) -> lo >= f.lo && hi <= f.hi
    | None -> false)

(* Infer a brand-new fact for [r] from two states in which both [r] and
   some base register are singletons that moved in lockstep: the join
   point of a loop head on the first back edge. Scans candidate bases
   in register-index order — deterministic. *)
let rec infer_scan r a_regs b_regs v1 v2 b =
  if b >= Array.length a_regs then None
  else if b = r || not (Domain.is_singleton a_regs.(b) && Domain.is_singleton b_regs.(b)) then
    infer_scan r a_regs b_regs v1 v2 (b + 1)
  else begin
    let w1 = Domain.lower a_regs.(b) and w2 = Domain.lower b_regs.(b) in
    let dv = v2 - v1 and dw = w2 - w1 in
    let k = if dw <> 0 && dv mod dw = 0 then dv / dw else 0 in
    (* [o] is checked on the second pair too: guards mul overflow *)
    if
      w1 <> w2 && k <> 0 && abs k <= max_k && mul_ok k w1 && add_ok v1 (-(k * w1)) && mul_ok k w2
      && v2 - (k * w2) = v1 - (k * w1)
    then
      let o = v1 - (k * w1) in
      Some { base = b; k; lo = o; hi = o }
    else infer_scan r a_regs b_regs v1 v2 (b + 1)
  end

let infer r a_regs b_regs =
  if Domain.is_singleton a_regs.(r) && Domain.is_singleton b_regs.(r) then begin
    let v1 = Domain.lower a_regs.(r) and v2 = Domain.lower b_regs.(r) in
    if v1 <> v2 then infer_scan r a_regs b_regs v1 v2 0 else None
  end
  else None

(* Keep fact [f] (held as [fopt = Some f] by one side) if the other
   side entails [r = k*base + _] too, hulling the offsets; [fopt] itself
   when the hull adds nothing. *)
let keep_hull fopt (f : fact) lo2 hi2 =
  let lo = Int.min f.lo lo2 and hi = Int.max f.hi hi2 in
  if hi - lo >= 0 && hi - lo <= max_offset_width then
    if lo = f.lo && hi = f.hi then fopt else Some { f with lo; hi }
  else None

let keep r fopt (f : fact) other_facts other_regs =
  match other_facts.(r) with
  | Some (g : fact) when g.base = f.base && g.k = f.k -> keep_hull fopt f g.lo g.hi
  | _ -> (
    match offset_itv other_regs.(r) other_regs.(f.base) ~k:f.k with
    | Some (lo2, hi2) -> keep_hull fopt f lo2 hi2
    | None -> None)

(* Join of the optional facts about [r]: keep a fact only if *both*
   joined states entail it (hulling the offsets), otherwise try to give
   birth to one from singleton pairs. *)
let join_facts r a_facts a_regs b_facts b_regs =
  match (a_facts.(r), b_facts.(r)) with
  | (Some f as fa), fb -> (
    match keep r fa f b_facts b_regs with
    | Some _ as r -> r
    | None -> (
      match fb with Some g -> keep r fb g a_facts a_regs | None -> None))
  | None, (Some g as fb) -> keep r fb g a_facts a_regs
  | None, None -> infer r a_regs b_regs

(* Widening on facts: keep only facts that have stopped moving (the
   incoming side entails the old offsets). Anything still growing is
   dropped — a finite fact set per register keeps the ascending chain
   finite. *)
let widen_facts r old_facts _old_regs next_facts next_regs =
  match old_facts.(r) with
  | Some f as fo -> if entails next_facts next_regs r f then fo else None
  | None -> None

(* Tighten the interval of [r] with its fact: meet with
   [k*base + [lo,hi]] evaluated over the base's current bounds. *)
let tighten facts regs r =
  let d = regs.(r) in
  match facts.(r) with
  | None -> d
  | Some { base; k; lo; hi } ->
    let bd = regs.(base) in
    if not (Domain.has_bounds bd) then d
    else begin
      let bl = Domain.lower bd and bh = Domain.upper bd in
      if not (mul_ok k bl && mul_ok k bh) then d
      else begin
        let a = k * bl and b = k * bh in
        let kl = Int.min a b and kh = Int.max a b in
        if add_ok kl lo && add_ok kh hi then Domain.meet_itv d ~lo:(kl + lo) ~hi:(kh + hi) else d
      end
    end

(* Refine the *base* of a fact from a refined view of the subject:
   [r = k*base + [lo,hi]] and [r in [rl,rh]] bound
   [base in [(rl-hi)/k, (rh-lo)/k]] (signs permuting for k < 0).
   Saturated subject bounds propagate as "no constraint". *)
let refine_base (f : fact) ~refined base_dom =
  if not (Domain.has_bounds refined) then base_dom
  else begin
    let rl = Domain.lower refined and rh = Domain.upper refined in
    let lo_ok = rl <> min_int && add_ok rl (-f.hi) and lo_num = rl - f.hi in
    let hi_ok = rh <> max_int && add_ok rh (-f.lo) and hi_num = rh - f.lo in
    let blo, bhi =
      if f.k > 0 then
        ( (if lo_ok then cdiv lo_num f.k else min_int),
          if hi_ok then fdiv hi_num f.k else max_int )
      else
        ( (if hi_ok then cdiv hi_num f.k else min_int),
          if lo_ok then fdiv lo_num f.k else max_int )
    in
    Domain.meet_itv base_dom ~lo:blo ~hi:bhi
  end

(* ---- in-place fact transfer (arrays local to one block simulation) ---- *)

(* [d] takes an arbitrary new value: its own fact and every fact built
   on it die. *)
let kill facts d =
  facts.(d) <- None;
  for r = 0 to Array.length facts - 1 do
    match facts.(r) with Some { base; _ } when base = d -> facts.(r) <- None | _ -> ()
  done

(* d := s (register copy) *)
let assign_copy facts d s =
  if d <> s then begin
    kill facts d;
    facts.(d) <- Some { base = s; k = 1; lo = 0; hi = 0 }
  end

(* d := k*base + off (lea) *)
let assign_affine facts d ~base ~k ~off =
  kill facts d;
  if base <> d && k <> 0 && abs k <= max_k then facts.(d) <- Some { base; k; lo = off; hi = off }

(* d := d + imm: the subject's offsets shift with it; facts built *on*
   [d] compensate the other way ([r = k*d_old + o = k*d_new + o - k*imm]). *)
let add_imm facts d imm =
  (match facts.(d) with
  | Some f ->
    facts.(d) <-
      (if add_ok f.lo imm && add_ok f.hi imm then Some { f with lo = f.lo + imm; hi = f.hi + imm }
       else None)
  | None -> ());
  for r = 0 to Array.length facts - 1 do
    match facts.(r) with
    | Some ({ base; k; lo; hi } as f) when base = d && r <> d ->
      let ki = k * imm in
      facts.(r) <-
        (if mul_ok k imm && add_ok lo (-ki) && add_ok hi (-ki) then
           Some { f with lo = lo - ki; hi = hi - ki }
         else None)
    | _ -> ()
  done

(* d := d + s: expressible only when d is already an affine function of
   s ([d = k*s + o] becomes [d = (k+1)*s + o]); otherwise d dies. Facts
   built on d die either way (d moved by a non-constant). *)
let add_reg facts d s =
  let own =
    match facts.(d) with
    | Some f when f.base = s && f.k + 1 <> 0 && abs (f.k + 1) <= max_k ->
      Some { f with k = f.k + 1 }
    | _ -> None
  in
  kill facts d;
  facts.(d) <- own

(* ---- interval widening with thresholds ---- *)

(* Largest threshold [<= v] ([min_int] if none) and smallest [>= v]
   ([max_int] if none), by binary search over the sorted ladder. *)
let rec floor_threshold th v lo hi best =
  if lo > hi then best
  else begin
    let mid = (lo + hi) / 2 in
    if th.(mid) <= v then floor_threshold th v (mid + 1) hi th.(mid)
    else floor_threshold th v lo (mid - 1) best
  end

let rec ceil_threshold th v lo hi best =
  if lo > hi then best
  else begin
    let mid = (lo + hi) / 2 in
    if th.(mid) >= v then ceil_threshold th v lo (mid - 1) th.(mid)
    else ceil_threshold th v (mid + 1) hi best
  end

(* [thresholds] must be sorted ascending. A growing bound jumps to the
   nearest enclosing threshold instead of straight to infinity; each
   register can climb the (finite) ladder at most once per rung, so
   termination is preserved. *)
let widen_dom ~thresholds old next =
  match ((old : Domain.t), (next : Domain.t)) with
  | Itv a, Itv b ->
    let last = Array.length thresholds - 1 in
    let lo = if b.lo >= a.lo then a.lo else floor_threshold thresholds b.lo 0 last min_int in
    let hi = if b.hi <= a.hi then a.hi else ceil_threshold thresholds b.hi 0 last max_int in
    if lo = a.lo && hi = a.hi then old else Domain.Itv { lo; hi }
  | _ -> Domain.widen old next

let leq_dom a b = Domain.equal (Domain.join a b) b
