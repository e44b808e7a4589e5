(* The verifier's abstract machine state: per-register values and
   affine facts, the pending-compare snapshot, the sandbox flag and the
   active-bank region registers. One value of this type per basic-block
   entry is what a proof artifact records, so the module also owns the
   (exact, 63-bit-clean) JSON round-trip. *)

type sandbox = Sout | Sin | Smaybe

type rstate = Runset | Rknown of Hfi_iface.region | Runknown

type t = {
  regs : Domain.t array;  (* Reg.count entries *)
  facts : Rel.fact option array;  (* Reg.count entries *)
  cmp_reg : int;  (* register a pending Cmp constrains; -1 = invalid *)
  cmp_rhs : Domain.t;  (* snapshot of the comparison right-hand side *)
  sandbox : sandbox;
  regions : rstate array;  (* active-bank region registers *)
}

let join_sandbox a b = if a = b then a else Smaybe

let join_rstate a b =
  match (a, b) with
  | Runset, Runset -> Runset
  | Rknown r1, Rknown r2 when r1 = r2 -> a
  | _ -> Runknown

(* The result arrays of a join or widening start out as the left
   operand's own array and are copied only at the first element that
   moves, so a join that changes nothing allocates nothing. *)

(* [f a.(i) b.(i)] for every [i >= from], into [a] or a copy of it *)
let rec map2_keep f a b from =
  if from = Array.length a then a
  else begin
    let x = f a.(from) b.(from) in
    if x == a.(from) then map2_keep f a b (from + 1)
    else begin
      let out = Array.copy a in
      out.(from) <- x;
      for i = from + 1 to Array.length a - 1 do
        out.(i) <- f a.(i) b.(i)
      done;
      out
    end
  end

(* [f r a.facts a.regs b.facts b.regs] for every register [r >= from]
   ([Rel.join_facts] or [Rel.widen_facts]), into [a.facts] or a copy *)
let rec facts_keep f a b from =
  if from = Array.length a.facts then a.facts
  else begin
    let x = f from a.facts a.regs b.facts b.regs in
    if x == a.facts.(from) then facts_keep f a b (from + 1)
    else begin
      let out = Array.copy a.facts in
      out.(from) <- x;
      for r = from + 1 to Array.length out - 1 do
        out.(r) <- f r a.facts a.regs b.facts b.regs
      done;
      out
    end
  end

(* Rebuild [a] from new components, or return [a] itself when every
   component is physically [a]'s own. *)
let with_parts a ~regs ~facts ~cmp_reg ~cmp_rhs ~sandbox ~regions =
  if
    regs == a.regs && facts == a.facts && cmp_reg = a.cmp_reg && cmp_rhs == a.cmp_rhs
    && sandbox = a.sandbox && regions == a.regions
  then a
  else { regs; facts; cmp_reg; cmp_rhs; sandbox; regions }

(* The pending compare survives a join only when both sides hold one on
   the same register; its right-hand sides join like any value. *)
let join_cmp_rhs a b =
  if a.cmp_reg >= 0 && a.cmp_reg = b.cmp_reg then Domain.join a.cmp_rhs b.cmp_rhs
  else if Domain.equal a.cmp_rhs Domain.top then a.cmp_rhs
  else Domain.top

let join_cmp_reg a b = if a.cmp_reg >= 0 && a.cmp_reg = b.cmp_reg then a.cmp_reg else -1

let join a b =
  with_parts a
    ~regs:(map2_keep Domain.join a.regs b.regs 0)
    ~facts:(facts_keep Rel.join_facts a b 0)
    ~cmp_reg:(join_cmp_reg a b) ~cmp_rhs:(join_cmp_rhs a b)
    ~sandbox:(join_sandbox a.sandbox b.sandbox)
    ~regions:(map2_keep join_rstate a.regions b.regions 0)

let widen ~thresholds old next =
  with_parts old
    ~regs:(map2_keep (Rel.widen_dom ~thresholds) old.regs next.regs 0)
    ~facts:(facts_keep Rel.widen_facts old next 0)
    ~cmp_reg:(join_cmp_reg old next) ~cmp_rhs:(join_cmp_rhs old next)
    ~sandbox:(join_sandbox old.sandbox next.sandbox)
    ~regions:(map2_keep join_rstate old.regions next.regions 0)

(* Structural equality — the meaning of polymorphic [=] on states —
   short-circuiting on physically shared components, which [join] and
   [widen] return whenever nothing moved. *)
let rec equal_from eq a b i = i = Array.length a || (eq a.(i) b.(i) && equal_from eq a b (i + 1))
let equal_arr eq a b = a == b || (Array.length a = Array.length b && equal_from eq a b 0)

(* facts and region states: mostly [None]/constant constructors, which
   the physical test settles without the generic compare *)
let same a b = a == b || a = b

let equal a b =
  a == b
  || a.cmp_reg = b.cmp_reg && a.sandbox = b.sandbox
     && Domain.equal a.cmp_rhs b.cmp_rhs
     && equal_arr Domain.equal a.regs b.regs
     && equal_arr same a.facts b.facts
     && equal_arr same a.regions b.regions

let initial () =
  let regs = Array.make Reg.count (Domain.const 0) in
  regs.(Reg.index Reg.RSP) <- Domain.Stackish;
  {
    regs;
    facts = Array.make Reg.count None;
    cmp_reg = -1;
    cmp_rhs = Domain.top;
    sandbox = Sout;
    regions = Array.make Hfi_iface.region_count Runset;
  }

(* ------------------------------------------------------------------ *)
(* Inclusion: [leq a b] iff every concrete state denoted by [a] is
   denoted by [b] — the check the independent proof validator runs on
   every flow edge instead of a fixpoint. *)

let leq_sandbox a b = b = Smaybe || a = b
let leq_rstate a b = b = Runknown || a = b

let leq_fact (a : t) r (f : Rel.fact) = Rel.entails a.facts a.regs r f

let leq a b =
  Array.length a.regs = Array.length b.regs
  && Array.length a.regions = Array.length b.regions
  &&
  let ok = ref true in
  Array.iteri (fun i d -> if not (Rel.leq_dom a.regs.(i) d) then ok := false) b.regs;
  Array.iteri
    (fun r f -> match f with Some f -> if not (leq_fact a r f) then ok := false | None -> ())
    b.facts;
  (if b.cmp_reg >= 0 then
     if not (a.cmp_reg = b.cmp_reg && Rel.leq_dom a.cmp_rhs b.cmp_rhs) then ok := false);
  if not (leq_sandbox a.sandbox b.sandbox) then ok := false;
  Array.iteri (fun i r -> if not (leq_rstate a.regions.(i) r) then ok := false) b.regions;
  !ok

(* ------------------------------------------------------------------ *)
(* JSON round-trip. Interval bounds reach min_int/max_int, beyond what
   a double round-trips exactly, so every integer is serialized as a
   decimal string. *)

let buf_int b n = Buffer.add_char b '"'; Buffer.add_string b (string_of_int n); Buffer.add_char b '"'

let dom_to_buf b (d : Domain.t) =
  match d with
  | Bot -> Buffer.add_string b {|{"t":"bot"}|}
  | Stackish -> Buffer.add_string b {|{"t":"stack"}|}
  | Itv { lo; hi } ->
    Buffer.add_string b {|{"t":"itv","lo":|};
    buf_int b lo;
    Buffer.add_string b {|,"hi":|};
    buf_int b hi;
    Buffer.add_char b '}'
  | Masked { base; mask } ->
    Buffer.add_string b {|{"t":"masked","base":|};
    buf_int b base;
    Buffer.add_string b {|,"mask":|};
    buf_int b mask;
    Buffer.add_char b '}'

let fact_to_buf b = function
  | None -> Buffer.add_string b "null"
  | Some { Rel.base; k; lo; hi } ->
    Buffer.add_string b (Printf.sprintf {|{"base":%d,"k":%d,"lo":|} base k);
    buf_int b lo;
    Buffer.add_string b {|,"hi":|};
    buf_int b hi;
    Buffer.add_char b '}'

let sandbox_name = function Sout -> "out" | Sin -> "in" | Smaybe -> "maybe"

let region_to_buf b (r : Hfi_iface.region) =
  match r with
  | Implicit_code { base_prefix; lsb_mask; permission_exec } ->
    Buffer.add_string b
      (Printf.sprintf {|{"kind":"implicit-code","base_prefix":%d,"lsb_mask":%d,"x":%b}|}
         base_prefix lsb_mask permission_exec)
  | Implicit_data { base_prefix; lsb_mask; permission_read; permission_write } ->
    Buffer.add_string b
      (Printf.sprintf {|{"kind":"implicit-data","base_prefix":%d,"lsb_mask":%d,"r":%b,"w":%b}|}
         base_prefix lsb_mask permission_read permission_write)
  | Explicit_data { base_address; bound; permission_read; permission_write; is_large_region } ->
    Buffer.add_string b
      (Printf.sprintf
         {|{"kind":"explicit-data","base_address":%d,"bound":%d,"r":%b,"w":%b,"large":%b}|}
         base_address bound permission_read permission_write is_large_region)

let rstate_to_buf b = function
  | Runset -> Buffer.add_string b {|{"t":"unset"}|}
  | Runknown -> Buffer.add_string b {|{"t":"unknown"}|}
  | Rknown r ->
    Buffer.add_string b {|{"t":"known","region":|};
    region_to_buf b r;
    Buffer.add_char b '}'

let to_buf b st =
  let arr f xs =
    Buffer.add_char b '[';
    Array.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        f b x)
      xs;
    Buffer.add_char b ']'
  in
  Buffer.add_string b {|{"regs":|};
  arr dom_to_buf st.regs;
  Buffer.add_string b {|,"facts":|};
  arr fact_to_buf st.facts;
  Buffer.add_string b (Printf.sprintf {|,"cmp_reg":%d,"cmp_rhs":|} st.cmp_reg);
  dom_to_buf b st.cmp_rhs;
  Buffer.add_string b (Printf.sprintf {|,"sandbox":"%s","regions":|} (sandbox_name st.sandbox));
  arr rstate_to_buf st.regions;
  Buffer.add_char b '}'

let to_json st =
  let b = Buffer.create 512 in
  to_buf b st;
  Buffer.contents b

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

module J = Hfi_util.Json

let get_int name j =
  match J.member name j with
  | Some (J.Str s) -> ( try int_of_string s with _ -> fail "bad int string %S in %s" s name)
  | Some (J.Num f) when Float.is_integer f && Float.abs f <= 2. ** 53. -> int_of_float f
  | _ -> fail "missing integer field %s" name

let get_bool name j =
  match Option.bind (J.member name j) J.to_bool with
  | Some b -> b
  | None -> fail "missing bool field %s" name

let get_str name j =
  match Option.bind (J.member name j) J.to_str with
  | Some s -> s
  | None -> fail "missing string field %s" name

let dom_of_json j : Domain.t =
  match get_str "t" j with
  | "bot" -> Bot
  | "stack" -> Stackish
  | "itv" ->
    let lo = get_int "lo" j and hi = get_int "hi" j in
    if lo > hi then fail "itv with lo > hi" else Itv { lo; hi }
  | "masked" ->
    let base = get_int "base" j and mask = get_int "mask" j in
    let d = Domain.masked ~base ~mask in
    (* reject denormalized encodings: the writer only emits normal forms *)
    if d <> Masked { base; mask } then fail "denormalized masked value" else d
  | t -> fail "unknown domain tag %S" t

let fact_of_json = function
  | J.Null -> None
  | j ->
    let base = get_int "base" j
    and k = get_int "k" j
    and lo = get_int "lo" j
    and hi = get_int "hi" j in
    if k = 0 || abs k > Rel.max_k || lo > hi then fail "malformed fact"
    else Some { Rel.base; k; lo; hi }

let region_of_json j : Hfi_iface.region =
  match get_str "kind" j with
  | "implicit-code" ->
    Implicit_code
      { base_prefix = get_int "base_prefix" j; lsb_mask = get_int "lsb_mask" j;
        permission_exec = get_bool "x" j }
  | "implicit-data" ->
    Implicit_data
      { base_prefix = get_int "base_prefix" j; lsb_mask = get_int "lsb_mask" j;
        permission_read = get_bool "r" j; permission_write = get_bool "w" j }
  | "explicit-data" ->
    Explicit_data
      { base_address = get_int "base_address" j; bound = get_int "bound" j;
        permission_read = get_bool "r" j; permission_write = get_bool "w" j;
        is_large_region = get_bool "large" j }
  | k -> fail "unknown region kind %S" k

let rstate_of_json j =
  match get_str "t" j with
  | "unset" -> Runset
  | "unknown" -> Runknown
  | "known" -> (
    match J.member "region" j with
    | Some r -> Rknown (region_of_json r)
    | None -> fail "known rstate without region")
  | t -> fail "unknown rstate tag %S" t

let get_arr name len f j =
  match Option.bind (J.member name j) J.to_list with
  | Some xs when List.length xs = len -> Array.of_list (List.map f xs)
  | Some _ -> fail "field %s has the wrong length" name
  | None -> fail "missing array field %s" name

let of_json j =
  let regs = get_arr "regs" Reg.count dom_of_json j in
  let facts = get_arr "facts" Reg.count fact_of_json j in
  Array.iter
    (function
      | Some { Rel.base; _ } when base < 0 || base >= Reg.count -> fail "fact base out of range"
      | _ -> ())
    facts;
  let cmp_reg = get_int "cmp_reg" j in
  if cmp_reg < -1 || cmp_reg >= Reg.count then fail "cmp_reg out of range";
  let cmp_rhs = dom_of_json (match J.member "cmp_rhs" j with Some c -> c | None -> fail "no cmp_rhs") in
  let sandbox =
    match get_str "sandbox" j with
    | "out" -> Sout
    | "in" -> Sin
    | "maybe" -> Smaybe
    | s -> fail "unknown sandbox state %S" s
  in
  let regions = get_arr "regions" Hfi_iface.region_count rstate_of_json j in
  { regs; facts; cmp_reg; cmp_rhs; sandbox; regions }
