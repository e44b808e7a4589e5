type t = {
  kernel : Kernel.t;
  mutable in_use : int list;  (* allocated domain ids *)
  mutable next : int;
  mutable active : int;
  mutable cycles : float;
}

exception Out_of_domains

let max_domains = 15

let create kernel = { kernel; in_use = []; next = 1; active = 0; cycles = 0.0 }

let allocate_domain t =
  if List.length t.in_use >= max_domains then raise Out_of_domains;
  let d = t.next in
  t.next <- t.next + 1;
  t.in_use <- d :: t.in_use;
  d

let free_domain t d = t.in_use <- List.filter (fun x -> x <> d) t.in_use

let assign_pages t ~domain ~addr ~len =
  if not (List.mem domain t.in_use) then invalid_arg "Mpk.assign_pages: unallocated domain";
  (* pkey_mprotect has mprotect's cost profile. *)
  Kernel.sys_mprotect t.kernel ~addr ~len Perm.rw

let switch_to t ~domain =
  t.active <- domain;
  let c = float_of_int (Cost.wrpkru + Cost.mpk_per_transition_extra) in
  t.cycles <- t.cycles +. c;
  c

let active_domain t = t.active
let domains_in_use t = List.length t.in_use
let cycles t = t.cycles
