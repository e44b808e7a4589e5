type t = {
  memories : Linear_memory.t array;
  hfi : Hfi.t option;
  (* bound.(r) = memory index occupying explicit region r, or -1 *)
  bound : int array;
  lru : int array;  (* recency stamp per region *)
  mutable stamp : int;
  mutable rebinds_ : int;
}

let regions = 4

let create ~strategy ~kernel ?hfi ~count ~bytes_each () =
  if count <= 0 then invalid_arg "Multi_memory.create: count";
  let stride =
    (* guard-page memories carry their 4 GiB guard; the others pack at
       64 KiB-aligned real size *)
    let aligned = (bytes_each + 65535) / 65536 * 65536 in
    aligned + Hfi_sfi.Strategy.guard_region_bytes strategy
  in
  let mk i =
    Linear_memory.reserve ~strategy ~kernel ?hfi
      ~base:(Layout.heap_base + (i * stride))
      ~max_bytes:bytes_each ~initial_bytes:bytes_each ()
  in
  {
    memories = Array.init count mk;
    hfi;
    bound = Array.make regions (-1);
    lru = Array.make regions 0;
    stamp = 0;
    rebinds_ = 0;
  }

let count t = Array.length t.memories
let memory t i = t.memories.(i)

let footprint t =
  Array.fold_left (fun acc lm -> acc + Linear_memory.reserved_footprint lm) 0 t.memories

let bind t ~memory_idx ~region =
  (match t.hfi with
  | None -> ()
  | Some h -> begin
    match
      Hfi.exec_set_region h
        ~slot:(Hfi_iface.slot_of_explicit_index region)
        (Linear_memory.region_descriptor t.memories.(memory_idx))
    with
    | Hfi.Continue | Hfi.Jump _ -> ()
    | Hfi.Trap r -> failwith ("Multi_memory.bind: " ^ Msr.to_string r)
  end);
  t.bound.(region) <- memory_idx

let region_for t ~memory =
  if memory < 0 || memory >= Array.length t.memories then invalid_arg "Multi_memory.region_for";
  t.stamp <- t.stamp + 1;
  let rec find r = if r >= regions then None else if t.bound.(r) = memory then Some r else find (r + 1) in
  match find 0 with
  | Some r ->
    t.lru.(r) <- t.stamp;
    r
  | None ->
    (* free region, else evict the LRU binding (§3.3.1 multiplexing) *)
    let victim = ref 0 in
    for r = 1 to regions - 1 do
      if t.bound.(r) = -1 && t.bound.(!victim) <> -1 then victim := r
      else if t.bound.(r) <> -1 && t.bound.(!victim) <> -1 && t.lru.(r) < t.lru.(!victim) then
        victim := r
    done;
    if t.bound.(!victim) <> -1 then t.rebinds_ <- t.rebinds_ + 1;
    bind t ~memory_idx:memory ~region:!victim;
    t.lru.(!victim) <- t.stamp;
    !victim

let rebinds t = t.rebinds_
