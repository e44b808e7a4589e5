type t =
  | Bot
  | Itv of { lo : int; hi : int }
  | Masked of { base : int; mask : int }
  | Stackish

let top = Itv { lo = min_int; hi = max_int }
let const n = Itv { lo = n; hi = n }
let itv lo hi = if lo > hi then Bot else Itv { lo; hi }

let masked ~base ~mask =
  if base < 0 || mask < 0 then top
  else
    let mask = mask land lnot base in
    if mask = 0 then const base else Masked { base; mask }

let is_bot = function Bot -> true | Itv _ | Masked _ | Stackish -> false

let equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | Itv x, Itv y -> x.lo = y.lo && x.hi = y.hi
  | Masked x, Masked y -> x.base = y.base && x.mask = y.mask
  | Bot, Bot | Stackish, Stackish -> true
  | (Bot | Itv _ | Masked _ | Stackish), _ -> false

(* Allocation-free views of the concretization hull and the singleton
   value. [lower]/[upper] are only meaningful under [has_bounds]. *)

let has_bounds = function Itv _ | Masked _ -> true | Bot | Stackish -> false

let lower = function
  | Itv { lo; _ } -> lo
  | Masked { base; _ } -> base
  | Bot | Stackish -> invalid_arg "Domain.lower"

(* base and mask have disjoint bits, so base + mask = base lor mask:
   never overflows *)
let upper = function
  | Itv { hi; _ } -> hi
  | Masked { base; mask } -> base + mask
  | Bot | Stackish -> invalid_arg "Domain.upper"

let is_singleton = function
  | Itv { lo; hi } -> lo = hi
  | Masked { mask; _ } -> mask = 0
  | Bot | Stackish -> false

let sat_add a b =
  let s = a + b in
  if a > 0 && b > 0 && s < 0 then max_int
  else if a < 0 && b < 0 && s >= 0 then min_int
  else s

let sat_neg a = if a = min_int then max_int else -a
let sat_sub a b = sat_add a (sat_neg b)

let is_top = function Itv { lo; hi } -> lo = min_int && hi = max_int | _ -> false

(* [Itv { lo; hi }], reusing [a] or [b] when one of them already is
   exactly that interval *)
let itv_reuse a b lo hi =
  match (a, b) with
  | Itv x, _ when x.lo = lo && x.hi = hi -> a
  | _, Itv y when y.lo = lo && y.hi = hi -> b
  | _ -> Itv { lo; hi }

(* interval hull of two values that both have bounds *)
let hull a b = itv_reuse a b (Int.min (lower a) (lower b)) (Int.max (upper a) (upper b))

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Stackish, Stackish -> Stackish
  | Stackish, x | x, Stackish -> if is_top x then x else top
  | Masked m1, Masked m2 ->
    (* a bit is certain iff certain on both sides with the same value;
       disagreeing certain bits become possible *)
    let base = m1.base land m2.base in
    let mask = m1.mask lor m2.mask lor (m1.base lxor m2.base) in
    (* a normal-form side that already covers the other is the join *)
    let normal = base land mask = 0 && base >= 0 && mask > 0 in
    if normal && base = m1.base && mask = m1.mask then a
    else if normal && base = m2.base && mask = m2.mask then b
    else masked ~base ~mask
  | _ -> hull a b

let widen old next =
  match (old, next) with
  | Itv a, Itv b ->
    let lo = if b.lo < a.lo then min_int else a.lo in
    let hi = if b.hi > a.hi then max_int else a.hi in
    if lo = a.lo && hi = a.hi then old else Itv { lo; hi }
  | _ -> join old next

let meet_itv d ~lo ~hi =
  match d with
  | Bot -> Bot
  | Stackish -> Stackish
  | Itv { lo = l; hi = h } ->
    let lo = Int.max l lo and hi = Int.min h hi in
    if lo = l && hi = h && lo <= hi then d else itv lo hi
  | Masked { base; mask } ->
    if base >= lo && base + mask <= hi then d else itv (Int.max base lo) (Int.min (base + mask) hi)

let within d ~lo ~hi = if has_bounds d then lower d >= lo && upper d <= hi else is_bot d
let disjoint d ~lo ~hi = if has_bounds d then upper d < lo || lower d > hi else is_bot d

let add a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Stackish, Stackish -> top
  | Stackish, x | x, Stackish -> if is_singleton x then Stackish else top
  | _ ->
    let lo = sat_add (lower a) (lower b) and hi = sat_add (upper a) (upper b) in
    if lo > hi then Bot else itv_reuse a b lo hi

let sub a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Stackish, x when is_singleton x -> Stackish
  | Stackish, _ | _, Stackish -> top
  | _ ->
    let lo = sat_sub (lower a) (upper b) and hi = sat_sub (upper a) (lower b) in
    if lo > hi then Bot else itv_reuse a b lo hi

(* Bitset view of a value: certain bits and possible-but-uncertain bits,
   disjoint and both non-negative. Defined for [Masked] values and
   non-negative singleton intervals only. *)
let has_bits = function
  | Masked _ -> true
  | Itv { lo; hi } -> lo = hi && lo >= 0
  | Bot | Stackish -> false

let bits_base = function Masked { base; _ } -> base | d -> lower d
let bits_mask = function Masked { mask; _ } -> mask | _ -> 0

let band a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _ -> (
    match (has_bits a, has_bits b) with
    | true, true ->
      let b1 = bits_base a and m1 = bits_mask a and b2 = bits_base b and m2 = bits_mask b in
      let certain = b1 land b2 in
      let possible = (b1 lor m1) land (b2 lor m2) in
      masked ~base:certain ~mask:(possible land lnot certain)
    | true, false ->
      (* one side is a non-negative bitset: the result can only keep its
         bits, whatever the other side is — this is the SFI masking step *)
      masked ~base:0 ~mask:(bits_base a lor bits_mask a)
    | false, true -> masked ~base:0 ~mask:(bits_base b lor bits_mask b)
    | false, false -> top)

let bor a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _ ->
    if has_bits a && has_bits b then begin
      let b1 = bits_base a and m1 = bits_mask a and b2 = bits_base b and m2 = bits_mask b in
      let certain = b1 lor b2 in
      let possible = b1 lor m1 lor b2 lor m2 in
      masked ~base:certain ~mask:(possible land lnot certain)
    end
    else top

let bxor a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _ ->
    if has_bits a && has_bits b then begin
      let b1 = bits_base a and m1 = bits_mask a and b2 = bits_base b and m2 = bits_mask b in
      (* a result bit is certainly 1 iff exactly one side has it
         certainly 1 and neither side is uncertain about it *)
      let uncertain = m1 lor m2 in
      let base = b1 lxor b2 land lnot uncertain in
      masked ~base ~mask:((b1 lor m1 lor b2 lor m2) land lnot base)
    end
    else top

(* A constant shift count in [0, 62), or -1 when there is none. *)
let shift_count b =
  if is_singleton b then
    let c = lower b in
    if c >= 0 && c < 62 then c else -1
  else -1

let shl a b =
  let c = shift_count b in
  if c < 0 then match (a, b) with Bot, _ | _, Bot -> Bot | _ -> top
  else
    match a with
    | Bot -> Bot
    | Masked { base; mask } when base lor mask <= max_int asr c ->
      masked ~base:(base lsl c) ~mask:(mask lsl c)
    | Itv { lo; hi } when lo >= 0 && hi <= max_int asr c -> Itv { lo = lo lsl c; hi = hi lsl c }
    | _ -> top

let shr a b =
  let c = shift_count b in
  if c < 0 then match (a, b) with Bot, _ | _, Bot -> Bot | _ -> top
  else
    match a with
    | Bot -> Bot
    | Masked { base; mask } -> masked ~base:(base lsr c) ~mask:(mask lsr c)
    | Itv { lo; hi } when lo >= 0 -> itv (lo lsr c) (hi lsr c)
    | _ -> top

let sar a b =
  let c = shift_count b in
  if c < 0 then match (a, b) with Bot, _ | _, Bot -> Bot | _ -> top
  else
    match a with
    | Bot -> Bot
    | Masked { base; mask } -> masked ~base:(base asr c) ~mask:(mask asr c)
    | Itv { lo; hi } -> itv (lo asr c) (hi asr c)
    | Stackish -> top

let mul a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _ ->
    if is_singleton a && is_singleton b then
      (* native wrap-around multiply, matching the machine *)
      const (lower a * lower b)
    else if has_bounds a && has_bounds b then begin
      let l1 = lower a and h1 = upper a and l2 = lower b and h2 = upper b in
      if l1 >= 0 && l2 >= 0 && (h2 = 0 || h1 <= max_int / h2) then
        itv_reuse a b (l1 * l2) (h1 * h2)
      else top
    end
    else top

let div a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _ ->
    if has_bounds a && has_bounds b && lower a >= 0 && lower b >= 1 then
      Itv { lo = lower a / upper b; hi = upper a / lower b }
    else top

let alu (op : Instr.alu_op) a b =
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | And -> band a b
  | Or -> bor a b
  | Xor -> bxor a b
  | Shl -> shl a b
  | Shr -> shr a b
  | Sar -> sar a b
  | Mul -> mul a b
  | Div -> div a b

let load_result ~bytes =
  match bytes with
  | 1 -> masked ~base:0 ~mask:0xff
  | 2 -> masked ~base:0 ~mask:0xffff
  | 4 -> masked ~base:0 ~mask:0xffff_ffff
  | _ -> top

let refine (c : Instr.cond) x ~rhs =
  if not (has_bounds rhs) then x
  else begin
    let rlo = lower rhs and rhi = upper rhs in
    match c with
    | Eq -> meet_itv x ~lo:rlo ~hi:rhi
    | Ne -> x
    | Lt -> if rhi = min_int then Bot else meet_itv x ~lo:min_int ~hi:(rhi - 1)
    | Le -> meet_itv x ~lo:min_int ~hi:rhi
    | Gt -> if rlo = max_int then Bot else meet_itv x ~lo:(rlo + 1) ~hi:max_int
    | Ge -> meet_itv x ~lo:rlo ~hi:max_int
    | Ult ->
      (* unsigned x < rhs with rhs provably non-negative: any negative x
         would have an unsigned value above every non-negative bound *)
      if rlo >= 0 then (if rhi <= 0 then Bot else meet_itv x ~lo:0 ~hi:(rhi - 1)) else x
    | Ule -> if rlo >= 0 then meet_itv x ~lo:0 ~hi:rhi else x
    | Ugt | Uge -> x
  end

let hex n = if n < 0 then Printf.sprintf "-0x%x" (-n) else Printf.sprintf "0x%x" n

let pp ppf = function
  | Bot -> Format.pp_print_string ppf "bot"
  | Itv { lo; hi } when lo = min_int && hi = max_int -> Format.pp_print_string ppf "top"
  | Itv { lo; hi } when lo = hi -> Format.pp_print_string ppf (hex lo)
  | Itv { lo; hi } ->
    let side n = if n = min_int then "-inf" else if n = max_int then "+inf" else hex n in
    Format.fprintf ppf "[%s..%s]" (side lo) (side hi)
  | Masked { base; mask } -> Format.fprintf ppf "0x%x|m:0x%x" base mask
  | Stackish -> Format.pp_print_string ppf "stack"

let to_string d = Format.asprintf "%a" pp d
