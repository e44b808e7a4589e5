(* Model-based property tests: the VMA address space against a naive
   byte-map reference, the set-associative cache against a brute-force
   LRU list, and algebraic properties of core components. *)

open Hfi_memory

let check_bool = Alcotest.(check bool)

(* --- Addr_space vs a naive reference model --- *)

type ref_model = {
  perms : (int, Perm.t) Hashtbl.t;  (* page -> protection *)
  bytes : (int, int) Hashtbl.t;  (* address -> byte *)
}

let page = 4096
let arena_pages = 64
let arena_base = 0x10000

type op =
  | Op_mmap of int * int * Perm.t  (* page index, pages, perm *)
  | Op_munmap of int * int
  | Op_mprotect of int * int * Perm.t
  | Op_madvise of int * int
  | Op_store of int * int  (* byte offset in arena, value *)
  | Op_load of int

let gen_op =
  let open QCheck.Gen in
  let perm = oneofl [ Perm.none; Perm.r; Perm.rw ] in
  let range =
    map
      (fun (p, n) -> (p, Stdlib.min n (arena_pages - p)))
      (pair (int_bound (arena_pages - 1)) (int_range 1 8))
  in
  frequency
    [
      (2, map2 (fun (p, n) pr -> Op_mmap (p, n, pr)) range perm);
      (1, map (fun (p, n) -> Op_munmap (p, n)) range);
      (1, map2 (fun (p, n) pr -> Op_mprotect (p, n, pr)) range perm);
      (1, map (fun (p, n) -> Op_madvise (p, n)) range);
      (4, map2 (fun off v -> Op_store (off, v)) (int_bound ((arena_pages * page) - 9)) (int_bound 255));
      (4, map (fun off -> Op_load off) (int_bound ((arena_pages * page) - 9)));
    ]

let ref_apply m op =
  let set_pages p n perm =
    for k = p to min (arena_pages - 1) (p + n - 1) do
      Hashtbl.replace m.perms k perm
    done
  in
  let drop_bytes p n =
    let doomed =
      Hashtbl.fold
        (fun a _ acc ->
          let pg = (a - arena_base) / page in
          if pg >= p && pg < p + n then a :: acc else acc)
        m.bytes []
    in
    List.iter (Hashtbl.remove m.bytes) doomed
  in
  match op with
  | Op_mmap (p, n, perm) ->
    set_pages p n perm;
    drop_bytes p n;
    `Ok
  | Op_munmap (p, n) ->
    for k = p to min (arena_pages - 1) (p + n - 1) do
      Hashtbl.remove m.perms k
    done;
    drop_bytes p n;
    `Ok
  | Op_mprotect (p, n, perm) ->
    (* fails like ENOMEM when any page is unmapped *)
    let all_mapped = ref true in
    for k = p to min (arena_pages - 1) (p + n - 1) do
      if not (Hashtbl.mem m.perms k) then all_mapped := false
    done;
    if !all_mapped then begin
      set_pages p n perm;
      `Ok
    end
    else `Fault
  | Op_madvise (p, n) ->
    drop_bytes p n;
    `Ok
  | Op_store (off, v) ->
    let a = arena_base + off in
    let ok = ref true in
    for b = a to a + 7 do
      match Hashtbl.find_opt m.perms ((b - arena_base) / page) with
      | Some p when p.Perm.w -> ()
      | _ -> ok := false
    done;
    if !ok then begin
      for b = 0 to 7 do
        Hashtbl.replace m.bytes (a + b) ((v + b) land 0xff)
      done;
      `Ok
    end
    else `Fault
  | Op_load off ->
    let a = arena_base + off in
    let ok = ref true in
    for b = a to a + 7 do
      match Hashtbl.find_opt m.perms ((b - arena_base) / page) with
      | Some p when p.Perm.r -> ()
      | _ -> ok := false
    done;
    if !ok then begin
      let v = ref 0 in
      for b = 7 downto 0 do
        v := (!v lsl 8) lor (match Hashtbl.find_opt m.bytes (a + b) with Some x -> x | None -> 0)
      done;
      `Value !v
    end
    else `Fault

let real_apply mem op =
  try
    match op with
    | Op_mmap (p, n, perm) ->
      Addr_space.mmap mem ~addr:(arena_base + (p * page)) ~len:(n * page) perm;
      `Ok
    | Op_munmap (p, n) ->
      Addr_space.munmap mem ~addr:(arena_base + (p * page)) ~len:(n * page);
      `Ok
    | Op_mprotect (p, n, perm) ->
      Addr_space.mprotect mem ~addr:(arena_base + (p * page)) ~len:(n * page) perm;
      `Ok
    | Op_madvise (p, n) ->
      Addr_space.madvise_dontneed mem ~addr:(arena_base + (p * page)) ~len:(n * page);
      `Ok
    | Op_store (off, v) ->
      (* write the same byte pattern as the reference *)
      for b = 0 to 7 do
        Addr_space.store mem ~addr:(arena_base + off + b) ~bytes:1 ((v + b) land 0xff)
      done;
      `Ok
    | Op_load off -> `Value (Addr_space.load mem ~addr:(arena_base + off) ~bytes:8)
  with Addr_space.Fault _ -> `Fault

(* The real store is not atomic across the permission check per byte; the
   reference checks all 8 bytes first. Make them comparable by probing
   writability first on the real side too. *)
let real_apply_checked mem op =
  match op with
  | Op_store (off, _) ->
    let writable =
      List.for_all
        (fun b ->
          match Addr_space.perm_at mem (arena_base + off + b) with
          | Some p -> p.Perm.w
          | None -> false)
        (List.init 8 Fun.id)
    in
    if writable then real_apply mem op else `Fault
  | _ -> real_apply mem op

let prop_addr_space_matches_reference =
  QCheck.Test.make ~name:"addr_space agrees with a naive page/byte reference model" ~count:120
    (QCheck.make QCheck.Gen.(list_size (int_range 10 60) gen_op))
    (fun ops ->
      let mem = Addr_space.create () in
      let m = { perms = Hashtbl.create 64; bytes = Hashtbl.create 256 } in
      List.for_all
        (fun op ->
          let expected = ref_apply m op in
          let actual = real_apply_checked mem op in
          (* mprotect faults abort the ref update too: redo ref to keep in
             sync (ref_apply already only applies on success). *)
          expected = actual)
        ops)

(* --- Prefix pages vs a byte/residency reference --- *)

(* A resident page stores only a prefix of its bytes (64, or the whole
   page once a write ends past 64). Every access width and entry point
   must still read what a plain byte map holds, and first touches and
   residency must count whole pages. Offsets cluster at the start of a
   page, around the 64-byte boundary and at the page end, so first
   touch, growth and prefix-straddling reads all fire. *)

let prefix_pages = 6

type prefix_op =
  | P_store of int * int * int  (* arena offset, width, value *)
  | P_load of int * int
  | P_poke of int * int * int
  | P_peek of int * int
  | P_blit of int * string
  | P_read of int * int  (* arena offset, length *)
  | P_madvise of int * int  (* page index, pages *)

let gen_prefix_op =
  let open QCheck.Gen in
  let in_page =
    frequency
      [ (4, int_bound 72); (3, int_range 56 72); (1, int_range 4088 4095); (1, int_bound 4095) ]
  in
  let off = map2 (fun p o -> (p * page) + o) (int_bound (prefix_pages - 1)) in_page in
  (* Keep every access inside the arena's last page. *)
  let fit n o = Stdlib.min o ((prefix_pages * page) - n) in
  let width = oneofl [ 1; 2; 4; 8 ] in
  let value = int_bound max_int in
  frequency
    [
      (4, map3 (fun o w v -> P_store (fit w o, w, v)) off width value);
      (4, map2 (fun o w -> P_load (fit w o, w)) off width);
      (2, map3 (fun o w v -> P_poke (fit w o, w, v)) off width value);
      (2, map2 (fun o w -> P_peek (fit w o, w)) off width);
      ( 2,
        map2
          (fun o s -> P_blit (fit (String.length s) o, s))
          off
          (string_size ~gen:(map Char.chr (int_range 1 255)) (int_range 1 150)) );
      (2, map2 (fun o n -> P_read (fit n o, n)) off (int_range 1 200));
      ( 1,
        map2
          (fun p n -> P_madvise (p, Stdlib.min n (prefix_pages - p)))
          (int_bound (prefix_pages - 1)) (int_range 1 3) );
    ]

type prefix_ref = {
  data : (int, int) Hashtbl.t;  (* arena offset -> byte *)
  resident : (int, unit) Hashtbl.t;  (* page index *)
  mutable faults : int;
}

let prefix_ref_write m o x =
  let p = o / page in
  if not (Hashtbl.mem m.resident p) then begin
    Hashtbl.replace m.resident p ();
    m.faults <- m.faults + 1
  end;
  Hashtbl.replace m.data o (x land 0xff)

let prefix_ref_read m o = Option.value (Hashtbl.find_opt m.data o) ~default:0

let prefix_ref_load m o w =
  let v = ref 0 in
  for i = w - 1 downto 0 do
    v := (!v lsl 8) lor prefix_ref_read m (o + i)
  done;
  !v

let show_prefix_op = function
  | P_store (o, w, v) -> Printf.sprintf "store %d/%d %d" o w v
  | P_load (o, w) -> Printf.sprintf "load %d/%d" o w
  | P_poke (o, w, v) -> Printf.sprintf "poke %d/%d %d" o w v
  | P_peek (o, w) -> Printf.sprintf "peek %d/%d" o w
  | P_blit (o, s) -> Printf.sprintf "blit %d %S" o s
  | P_read (o, n) -> Printf.sprintf "read %d+%d" o n
  | P_madvise (p, n) -> Printf.sprintf "madvise page %d+%d" p n

let prop_prefix_pages_match_reference =
  QCheck.Test.make ~name:"addr_space prefix pages agree with a byte/residency reference" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_prefix_op ops))
       QCheck.Gen.(list_size (int_range 10 60) gen_prefix_op))
    (fun ops ->
      let mem = Addr_space.create () in
      Addr_space.mmap mem ~addr:arena_base ~len:(prefix_pages * page) Perm.rw;
      let m = { data = Hashtbl.create 256; resident = Hashtbl.create 8; faults = 0 } in
      let write_value o w v =
        for i = 0 to w - 1 do
          prefix_ref_write m (o + i) (v lsr (8 * i))
        done
      in
      List.for_all
        (fun op ->
          let same =
            match op with
            | P_store (o, w, v) ->
              Addr_space.store mem ~addr:(arena_base + o) ~bytes:w v;
              write_value o w v;
              true
            | P_poke (o, w, v) ->
              Addr_space.poke mem ~addr:(arena_base + o) ~bytes:w v;
              write_value o w v;
              true
            | P_load (o, w) -> Addr_space.load mem ~addr:(arena_base + o) ~bytes:w = prefix_ref_load m o w
            | P_peek (o, w) -> Addr_space.peek mem ~addr:(arena_base + o) ~bytes:w = prefix_ref_load m o w
            | P_blit (o, s) ->
              Addr_space.blit_in mem ~addr:(arena_base + o) s;
              String.iteri (fun i c -> prefix_ref_write m (o + i) (Char.code c)) s;
              true
            | P_read (o, n) ->
              Addr_space.read_string mem ~addr:(arena_base + o) ~len:n
              = String.init n (fun i -> Char.chr (prefix_ref_read m (o + i)))
            | P_madvise (p, n) ->
              Addr_space.madvise_dontneed mem ~addr:(arena_base + (p * page)) ~len:(n * page);
              for k = p to p + n - 1 do
                Hashtbl.remove m.resident k;
                for i = 0 to page - 1 do
                  Hashtbl.remove m.data ((k * page) + i)
                done
              done;
              true
          in
          same
          && Addr_space.minor_faults mem = m.faults
          && List.for_all
               (fun p ->
                 Addr_space.resident_pages_in mem ~addr:(arena_base + (p * page)) ~len:page
                 = if Hashtbl.mem m.resident p then 1 else 0)
               (List.init prefix_pages Fun.id))
        ops)

(* --- Cache vs a brute-force LRU reference --- *)

let prop_cache_matches_lru_reference =
  QCheck.Test.make ~name:"set-associative cache matches brute-force LRU" ~count:80
    (QCheck.make QCheck.Gen.(list_size (int_range 20 200) (int_bound 4095)))
    (fun lines ->
      let cfg = { Cache.size_bytes = 16 * 64; ways = 4; line_bytes = 64; hit_latency = 1; miss_latency = 10 } in
      let sets = 4 in
      let c = Cache.create cfg in
      (* reference: per-set list of lines, most recent first *)
      let ref_sets = Array.make sets [] in
      List.for_all
        (fun line ->
          let addr = line * 64 in
          let set = line mod sets in
          let hit_ref = List.mem line ref_sets.(set) in
          let l = line :: List.filter (fun x -> x <> line) ref_sets.(set) in
          ref_sets.(set) <- (if List.length l > 4 then List.filteri (fun i _ -> i < 4) l else l);
          let hit = Cache.access c addr = `Hit in
          hit = hit_ref)
        lines)

(* --- PRNG and statistics algebra --- *)

let prop_prng_int_in_range =
  QCheck.Test.make ~name:"prng int_in stays in range" ~count:200
    QCheck.(pair small_nat (pair small_nat small_nat))
    (fun (seed, (a, b)) ->
      let min = Stdlib.min a b and max = Stdlib.max a b in
      let t = Hfi_util.Prng.create ~seed in
      let v = Hfi_util.Prng.int_in t ~min ~max in
      v >= min && v <= max)

let prop_percentile_monotonic =
  QCheck.Test.make ~name:"percentiles are monotonic" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 2 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let p25 = Hfi_util.Stats.percentile 25.0 xs in
      let p50 = Hfi_util.Stats.percentile 50.0 xs in
      let p99 = Hfi_util.Stats.percentile 99.0 xs in
      p25 <= p50 && p50 <= p99)

(* [Stats.percentile] sorts with [Float.compare]; this reference sorts
   with polymorphic [compare], and the two must agree to the bit,
   whatever NaNs, signed zeros and infinities the samples hold. *)
let reference_percentile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 1 then a.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let prop_percentile_matches_polymorphic_sort =
  let sample =
    QCheck.Gen.(
      frequency
        [
          (4, float_range (-1000.0) 1000.0);
          (1, oneofl [ nan; Float.neg nan; -0.0; 0.0; infinity; neg_infinity; 1.0 ]);
        ])
  in
  QCheck.Test.make ~name:"percentile == polymorphic-compare reference, bit for bit" ~count:300
    (QCheck.make
       ~print:(fun (p, xs) ->
         Printf.sprintf "p=%h [%s]" p (String.concat "; " (List.map (Printf.sprintf "%h") xs)))
       QCheck.Gen.(pair (float_range 0.0 100.0) (list_size (int_range 1 40) sample)))
    (fun (p, xs) ->
      List.for_all
        (fun p ->
          let got = Hfi_util.Stats.percentile p xs and want = reference_percentile p xs in
          Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want)
          && Printf.sprintf "%h" got = Printf.sprintf "%h" want)
        [ p; 0.0; 50.0; 99.9; 100.0 ])

let prop_geomean_between_min_max =
  QCheck.Test.make ~name:"geomean lies between min and max" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (make QCheck.Gen.(float_range 0.1 100.0)))
    (fun xs ->
      let g = Hfi_util.Stats.geomean xs in
      let lo, hi = Hfi_util.Stats.min_max xs in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

(* --- instruction encoding sanity over random programs --- *)

let gen_simple_instr =
  let open QCheck.Gen in
  let reg = map (fun i -> Hfi_isa.Reg.of_index i) (int_bound 15) in
  oneof
    [
      map2 (fun d v -> Hfi_isa.Instr.Mov (d, Hfi_isa.Instr.Imm v)) reg (int_bound 100000);
      map2 (fun d s -> Hfi_isa.Instr.Alu (Hfi_isa.Instr.Add, d, Hfi_isa.Instr.Reg s)) reg reg;
      map (fun d -> Hfi_isa.Instr.Push d) reg;
      return Hfi_isa.Instr.Nop;
    ]

let prop_program_offsets_consistent =
  QCheck.Test.make ~name:"program byte offsets are cumulative instruction lengths" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 50) gen_simple_instr))
    (fun instrs ->
      let p = Hfi_isa.Program.of_instrs (Array.of_list instrs) in
      let ok = ref true in
      let acc = ref 0 in
      List.iteri
        (fun i ins ->
          if Hfi_isa.Program.byte_offset p i <> !acc then ok := false;
          (* every instruction start must be findable by byte offset *)
          if Hfi_isa.Program.index_of_byte p !acc <> Some i then ok := false;
          acc := !acc + Hfi_isa.Instr.length ins)
        instrs;
      !ok && Hfi_isa.Program.byte_size p = !acc)

(* --- HFI state-machine invariants under random operation sequences --- *)

type hfi_op =
  | H_enter of bool * bool * bool  (* hybrid, serialized, soe *)
  | H_exit
  | H_reenter
  | H_set of int
  | H_clear of int
  | H_clear_all
  | H_syscall of int
  | H_fault of int
  | H_save_restore

let gen_hfi_op =
  let open QCheck.Gen in
  frequency
    [
      (3, map3 (fun a b c -> H_enter (a, b, c)) bool bool bool);
      (3, return H_exit);
      (1, return H_reenter);
      (2, map (fun s -> H_set (s mod 20)) (int_bound 19));
      (1, map (fun s -> H_clear (s mod 20)) (int_bound 19));
      (1, return H_clear_all);
      (2, map (fun n -> H_syscall n) (int_bound 50));
      (1, map (fun a -> H_fault a) (int_bound 100000));
      (1, return H_save_restore);
    ]

let region_for_slot s =
  match Hfi_isa.Hfi_iface.slot_kind (s mod 10) with
  | `Code ->
    Hfi_isa.Hfi_iface.Implicit_code { base_prefix = 0x40_0000; lsb_mask = 0xfffff; permission_exec = true }
  | `Implicit_data ->
    Hfi_isa.Hfi_iface.Implicit_data
      { base_prefix = 0x100000; lsb_mask = 0xffff; permission_read = true; permission_write = true }
  | `Explicit_data ->
    Hfi_isa.Hfi_iface.Explicit_data
      { base_address = 1 lsl 20; bound = 1 lsl 16; permission_read = true; permission_write = true; is_large_region = true }

let prop_hfi_state_invariants =
  QCheck.Test.make ~name:"HFI state machine invariants hold under random op sequences" ~count:150
    (QCheck.make QCheck.Gen.(list_size (int_range 5 60) gen_hfi_op))
    (fun ops ->
      let open Hfi_core in
      let h = Hfi.create () in
      List.for_all
        (fun op ->
          (match op with
          | H_enter (hy, ser, soe) ->
            ignore
              (Hfi.exec_enter h
                 { Hfi_isa.Hfi_iface.is_hybrid = hy; is_serialized = ser; switch_on_exit = soe;
                   exit_handler = (if hy then None else Some 0x1000) })
          | H_exit -> ignore (Hfi.exec_exit h)
          | H_reenter -> ignore (Hfi.exec_reenter h)
          | H_set s -> ignore (Hfi.exec_set_region h ~slot:s (region_for_slot s))
          | H_clear s -> ignore (Hfi.exec_clear_region h ~slot:s)
          | H_clear_all -> ignore (Hfi.exec_clear_all h)
          | H_syscall n -> ignore (Hfi.on_syscall h ~number:n)
          | H_fault a -> Hfi.on_hardware_fault h ~addr:a
          | H_save_restore ->
            let saved = Hfi.xsave h in
            Hfi.kernel_xrstor h saved);
          (* Invariant 1: enabled implies a current spec. *)
          let inv1 = (not (Hfi.enabled h)) || Hfi.current_spec h <> None in
          (* Invariant 2: in a native sandbox, privileged ops always trap
             (probe non-destructively via get_region). *)
          let inv2 =
            (not (Hfi.in_native_sandbox h))
            || Hfi.exec_get_region h ~slot:0 = Error Msr.Privileged_in_native
          in
          (* Invariant 3: region slots only hold kind-matching regions. *)
          let inv3 =
            List.for_all
              (fun s ->
                match Hfi.region h s with
                | None -> true
                | Some (Hfi_isa.Hfi_iface.Implicit_code _) -> Hfi_isa.Hfi_iface.slot_kind s = `Code
                | Some (Hfi_isa.Hfi_iface.Implicit_data _) ->
                  Hfi_isa.Hfi_iface.slot_kind s = `Implicit_data
                | Some (Hfi_isa.Hfi_iface.Explicit_data _) ->
                  Hfi_isa.Hfi_iface.slot_kind s = `Explicit_data)
              (List.init 10 Fun.id)
          in
          (* Invariant 4: disabled state never interposes syscalls. *)
          let inv4 = Hfi.enabled h || Hfi.on_syscall h ~number:1 = `Allow in
          inv1 && inv2 && inv3 && inv4)
        ops)

let prop_xsave_restores_observables =
  QCheck.Test.make ~name:"xsave/kernel_xrstor restores observable HFI state" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 25) gen_hfi_op))
    (fun ops ->
      let open Hfi_core in
      let h = Hfi.create () in
      List.iter
        (fun op ->
          match op with
          | H_enter (hy, ser, soe) ->
            ignore
              (Hfi.exec_enter h
                 { Hfi_isa.Hfi_iface.is_hybrid = hy; is_serialized = ser; switch_on_exit = soe;
                   exit_handler = None })
          | H_exit -> ignore (Hfi.exec_exit h)
          | H_set s -> ignore (Hfi.exec_set_region h ~slot:s (region_for_slot s))
          | _ -> ())
        ops;
      let observe () =
        ( Hfi.enabled h,
          Hfi.current_spec h,
          Msr.encode (Hfi.exit_reason h),
          List.init 10 (fun s -> Hfi.region h s) )
      in
      let before = observe () in
      let saved = Hfi.xsave h in
      ignore (Hfi.exec_clear_all h);
      (if Hfi.enabled h then ignore (Hfi.exec_exit h));
      Hfi.kernel_xrstor h saved;
      observe () = before)

(* --- Multi-byte fast path vs the per-byte slow path ---

   Addr_space serves within-page multi-byte accesses with single Bytes
   reads/writes plus a one-entry VMA memo; page-straddling or faulting
   accesses take a per-byte path. These properties pin the two paths to
   identical observable behavior across page boundaries, unmapped holes
   and permission edges. *)

type mb_layout = { perm0 : Perm.t option; perm1 : Perm.t option }
(* protections of two adjacent pages; None = unmapped *)

let mb_base = 0x40000 (* page-aligned; page 0 at mb_base, page 1 above *)

let gen_mb_case =
  let open QCheck.Gen in
  let perm = oneofl [ None; Some Perm.none; Some Perm.r; Some Perm.rw ] in
  let width = oneofl [ 1; 2; 4; 8 ] in
  (* addr within +-16 bytes of the page boundary, so every width lands
     before, on, straddling, and after the edge *)
  let delta = int_range (-16) 16 in
  map2 (fun (p0, p1) (w, d) -> ({ perm0 = p0; perm1 = p1 }, w, d)) (pair perm perm)
    (pair width delta)

let mb_space layout =
  let mem = Addr_space.create () in
  (match layout.perm0 with
  | Some p -> Addr_space.mmap mem ~addr:mb_base ~len:page p
  | None -> ());
  (match layout.perm1 with
  | Some p -> Addr_space.mmap mem ~addr:(mb_base + page) ~len:page p
  | None -> ());
  mem

(* Seed the bytes around the boundary so loads see non-zero data.
   [poke] ignores permissions but faults on unmapped, so only touch
   mapped pages. *)
let mb_seed mem layout =
  for i = -16 to 15 do
    let a = mb_base + page + i in
    let mapped = if i < 0 then layout.perm0 <> None else layout.perm1 <> None in
    if mapped then Addr_space.poke mem ~addr:a ~bytes:1 ((97 + (i land 0x3f)) land 0xff)
  done

type mb_result = V of int | F of [ `Unmapped | `Protection ]

let mb_load mem ~addr ~bytes =
  try V (Addr_space.load mem ~addr ~bytes) with Addr_space.Fault f -> F f.reason

let mb_load_bytewise mem ~addr ~bytes =
  (* low byte first, like the slow path, so the fault reason comes from
     the lowest faulting byte; lsl 56 wraps mod 2^63 exactly like the
     real per-byte composition *)
  try
    let v = ref 0 in
    for i = 0 to bytes - 1 do
      v := !v lor (Addr_space.load mem ~addr:(addr + i) ~bytes:1 lsl (8 * i))
    done;
    V !v
  with Addr_space.Fault f -> F f.reason

let prop_multibyte_load_matches_bytewise =
  QCheck.Test.make ~name:"multi-byte load == per-byte loads (boundaries, holes, perms)" ~count:500
    (QCheck.make gen_mb_case) (fun (layout, bytes, delta) ->
      let mem = mb_space layout in
      mb_seed mem layout;
      let addr = mb_base + page + delta - (bytes / 2) in
      let fast = mb_load mem ~addr ~bytes in
      (* fresh space for the byte-wise side so memo/cache state cannot
         leak between the two measurements *)
      let mem2 = mb_space layout in
      mb_seed mem2 layout;
      let slow = mb_load_bytewise mem2 ~addr ~bytes in
      match (fast, slow) with
      | V a, V b -> a = b
      | F a, F b -> a = b
      | _ -> false)

let prop_multibyte_store_matches_bytewise =
  QCheck.Test.make ~name:"multi-byte store == per-byte stores (boundaries, holes, perms)"
    ~count:500
    (QCheck.make QCheck.Gen.(pair gen_mb_case (int_bound ((1 lsl 30) - 1))))
    (fun ((layout, bytes, delta), value) ->
      let addr = mb_base + page + delta - (bytes / 2) in
      let mem_fast = mb_space layout in
      let mem_slow = mb_space layout in
      let fast =
        try
          Addr_space.store mem_fast ~addr ~bytes value;
          `Ok
        with Addr_space.Fault f -> `F f.reason
      in
      let slow =
        try
          for i = 0 to bytes - 1 do
            Addr_space.store mem_slow ~addr:(addr + i) ~bytes:1 ((value lsr (8 * i)) land 0xff)
          done;
          `Ok
        with Addr_space.Fault f -> `F f.reason
      in
      match (fast, slow) with
      | `Ok, `Ok ->
        (* identical resulting bytes, read back without permission checks *)
        List.for_all
          (fun i ->
            Addr_space.peek mem_fast ~addr:(addr + i) ~bytes:1
            = Addr_space.peek mem_slow ~addr:(addr + i) ~bytes:1)
          (List.init bytes Fun.id)
      | `F a, `F b -> a = b
      | _ -> false)

let prop_load_after_remap_sees_new_mapping =
  (* The page/permission table must be cleared by every mapping
     mutation: exercise load / munmap / load and load / mprotect / load
     sequences at the same address. *)
  QCheck.Test.make ~name:"fast-path caches invalidated by munmap/mprotect/madvise" ~count:200
    (QCheck.make QCheck.Gen.(oneofl [ `Munmap; `Mprotect_ro; `Madvise ]))
    (fun mutation ->
      let mem = Addr_space.create () in
      Addr_space.mmap mem ~addr:mb_base ~len:page Perm.rw;
      let addr = mb_base + 128 in
      Addr_space.store mem ~addr ~bytes:8 0x1234_5678;
      let warm = Addr_space.load mem ~addr ~bytes:8 in
      if warm <> 0x1234_5678 then false
      else begin
        match mutation with
        | `Munmap ->
          Addr_space.munmap mem ~addr:mb_base ~len:page;
          (try
             ignore (Addr_space.load mem ~addr ~bytes:8);
             false
           with Addr_space.Fault f -> f.reason = `Unmapped)
        | `Mprotect_ro ->
          Addr_space.mprotect mem ~addr:mb_base ~len:page Perm.r;
          (try
             Addr_space.store mem ~addr ~bytes:8 1;
             false
           with Addr_space.Fault f -> f.reason = `Protection)
        | `Madvise ->
          Addr_space.madvise_dontneed mem ~addr:mb_base ~len:page;
          Addr_space.load mem ~addr ~bytes:8 = 0
      end)

(* --- Direct-mapped page table vs direct VMA/page lookups --- *)

(* Pages chosen so several share a table slot: the table has 256 slots
   indexed by page number, so pages n, n+256 and n+512 collide. *)
let pt_base_page = 0x40000
let pt_pages = [ 0; 1; 2; 255; 256; 257; 258; 512; 513 ]

type pt_op =
  | Pt_mmap of int * int * Perm.t  (* page offset, pages, perm *)
  | Pt_munmap of int * int
  | Pt_mprotect of int * int * Perm.t
  | Pt_madvise of int * int
  | Pt_load of int * int  (* address, width *)
  | Pt_store of int * int * int
  | Pt_peek of int * int
  | Pt_perm_at of int

let pt_addr k off = ((pt_base_page + k) * page) + off

let gen_pt_op =
  let open QCheck.Gen in
  let k = oneofl pt_pages in
  let range = pair k (int_range 1 2) in
  let perm = oneofl [ Perm.none; Perm.r; Perm.rw ] in
  (* offsets near both page ends, so wide accesses straddle pages *)
  let addr =
    map2 pt_addr k (oneof [ oneofl [ 0; 8; page - 8; page - 4; page - 3; page - 1 ]; int_bound (page - 1) ])
  in
  let width = oneofl [ 1; 2; 4; 8 ] in
  frequency
    [
      (3, map2 (fun (k, n) p -> Pt_mmap (k, n, p)) range perm);
      (1, map (fun (k, n) -> Pt_munmap (k, n)) range);
      (1, map2 (fun (k, n) p -> Pt_mprotect (k, n, p)) range perm);
      (1, map (fun (k, n) -> Pt_madvise (k, n)) range);
      (4, map2 (fun a w -> Pt_load (a, w)) addr width);
      (4, map3 (fun a w v -> Pt_store (a, w, v)) addr width (int_bound 0xffff_ffff));
      (2, map2 (fun a w -> Pt_peek (a, w)) addr width);
      (2, map (fun a -> Pt_perm_at a) addr);
    ]

type pt_result =
  | R_ok
  | R_value of int
  | R_perm of Perm.t option
  | R_fault of int * [ `Read | `Write | `Exec ] * [ `Unmapped | `Protection ]

(* Reference: protection per page (the VMA map, page-granular) and the
   resident pages in a hashtable, consulted directly on every access. *)
type pt_ref = { vma : (int, Perm.t) Hashtbl.t; data : (int, Bytes.t) Hashtbl.t }

let pt_ref_apply r op =
  let pg a = a lsr 12 in
  let each k n f =
    for p = pt_base_page + k to pt_base_page + k + n - 1 do
      f p
    done
  in
  let check a access =
    match Hashtbl.find_opt r.vma (pg a) with
    | None -> Some (R_fault (a, access, `Unmapped))
    | Some p when not (Perm.allows p access) -> Some (R_fault (a, access, `Protection))
    | Some _ -> None
  in
  (* the first byte's page, then the last byte's when it differs *)
  let check_range a w access =
    match check a access with
    | Some f -> Some f
    | None -> if pg (a + w - 1) <> pg a then check (a + w - 1) access else None
  in
  let read a w =
    let v = ref 0 in
    for i = w - 1 downto 0 do
      let b = a + i in
      let byte =
        match Hashtbl.find_opt r.data (pg b) with
        | Some d -> Char.code (Bytes.get d (b land (page - 1)))
        | None -> 0
      in
      v := (!v lsl 8) lor byte
    done;
    !v
  in
  match op with
  | Pt_mmap (k, n, p) ->
    each k n (fun q ->
        Hashtbl.replace r.vma q p;
        Hashtbl.remove r.data q);
    R_ok
  | Pt_munmap (k, n) ->
    each k n (fun q ->
        Hashtbl.remove r.vma q;
        Hashtbl.remove r.data q);
    R_ok
  | Pt_mprotect (k, n, p) ->
    let covered = ref true in
    each k n (fun q -> if not (Hashtbl.mem r.vma q) then covered := false);
    if not !covered then R_fault (pt_addr k 0, `Write, `Unmapped)
    else begin
      each k n (fun q -> Hashtbl.replace r.vma q p);
      R_ok
    end
  | Pt_madvise (k, n) ->
    each k n (Hashtbl.remove r.data);
    R_ok
  | Pt_load (a, w) -> (
    match check_range a w `Read with Some f -> f | None -> R_value (read a w))
  | Pt_store (a, w, v) -> (
    match check_range a w `Write with
    | Some f -> f
    | None ->
      for i = 0 to w - 1 do
        let b = a + i in
        let d =
          match Hashtbl.find_opt r.data (pg b) with
          | Some d -> d
          | None ->
            let d = Bytes.make page '\000' in
            Hashtbl.replace r.data (pg b) d;
            d
        in
        Bytes.set d (b land (page - 1)) (Char.chr ((v lsr (8 * i)) land 0xff))
      done;
      R_ok)
  | Pt_peek (a, w) ->
    if Hashtbl.mem r.vma (pg a) then R_value (read a w) else R_fault (a, `Read, `Unmapped)
  | Pt_perm_at a -> R_perm (Hashtbl.find_opt r.vma (pg a))

let pt_real_apply mem op =
  let span k n = (pt_addr k 0, n * page) in
  try
    match op with
    | Pt_mmap (k, n, p) ->
      let addr, len = span k n in
      Addr_space.mmap mem ~addr ~len p;
      R_ok
    | Pt_munmap (k, n) ->
      let addr, len = span k n in
      Addr_space.munmap mem ~addr ~len;
      R_ok
    | Pt_mprotect (k, n, p) ->
      let addr, len = span k n in
      Addr_space.mprotect mem ~addr ~len p;
      R_ok
    | Pt_madvise (k, n) ->
      let addr, len = span k n in
      Addr_space.madvise_dontneed mem ~addr ~len;
      R_ok
    | Pt_load (a, w) -> R_value (Addr_space.load mem ~addr:a ~bytes:w)
    | Pt_store (a, w, v) ->
      Addr_space.store mem ~addr:a ~bytes:w v;
      R_ok
    | Pt_peek (a, w) -> R_value (Addr_space.peek mem ~addr:a ~bytes:w)
    | Pt_perm_at a -> R_perm (Addr_space.perm_at mem a)
  with Addr_space.Fault f -> R_fault (f.addr, f.access, f.reason)

let prop_page_table_matches_direct_lookups =
  QCheck.Test.make ~name:"page table agrees with direct VMA/page lookups (colliding slots)"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 20 120) gen_pt_op))
    (fun ops ->
      let mem = Addr_space.create () in
      let r = { vma = Hashtbl.create 16; data = Hashtbl.create 16 } in
      List.for_all (fun op -> pt_ref_apply r op = pt_real_apply mem op) ops
      && Addr_space.resident_bytes mem = Hashtbl.length r.data * page)

(* --- Relational verifier domain: soundness of join and widening --- *)

module VDomain = Hfi_opt.Domain

(* concretization hull through the allocation-free views *)
let vbounds d = if VDomain.has_bounds d then Some (VDomain.lower d, VDomain.upper d) else None
module VRel = Hfi_verify.Rel
module VReg = Hfi_isa.Reg

(* Interval join soundness: any concrete point of either side is
   denoted by the join. Points are sampled from the operand bounds. *)
let prop_domain_join_sound =
  let open QCheck.Gen in
  let gen_itv =
    map2
      (fun a b -> VDomain.itv (Stdlib.min a b) (Stdlib.max a b))
      (int_range (-10_000) 10_000)
      (int_range (-10_000) 10_000)
  in
  QCheck.Test.make ~name:"verifier join denotes both operands" ~count:300
    (QCheck.make (pair gen_itv gen_itv))
    (fun (a, b) ->
      let j = VDomain.join a b in
      let covers d =
        match (vbounds d, vbounds j) with
        | Some (lo, hi), Some (jlo, jhi) -> jlo <= lo && hi <= jhi
        | _, None -> true (* top covers everything *)
        | None, _ -> false
      in
      covers a && covers b)

(* Fact-join soundness, the relational analogue: feed the join two
   concrete states (every register a singleton). If it births a fact
   [r = k*base + [lo,hi]], both concrete states must satisfy it. *)
let prop_fact_join_sound =
  let open QCheck.Gen in
  let gen_state = pair (int_range (-1000) 1000) (int_range (-1000) 1000) in
  QCheck.Test.make ~name:"inferred affine facts hold in both join inputs" ~count:300
    (QCheck.make (pair gen_state gen_state))
    (fun (((w1, v1), (w2, v2))) ->
      let base = VReg.index VReg.RCX and r = VReg.index VReg.RDI in
      let mk w v =
        Array.init VReg.count (fun i ->
            if i = base then VDomain.const w
            else if i = r then VDomain.const v
            else VDomain.const 0)
      in
      let no_facts () = Array.make VReg.count None in
      match VRel.join_facts r (no_facts ()) (mk w1 v1) (no_facts ()) (mk w2 v2) with
      | None -> true
      | Some f ->
        f.VRel.base = base
        && f.VRel.k <> 0
        && abs f.VRel.k <= VRel.max_k
        && v1 - (f.VRel.k * w1) >= f.VRel.lo
        && v1 - (f.VRel.k * w1) <= f.VRel.hi
        && v2 - (f.VRel.k * w2) >= f.VRel.lo
        && v2 - (f.VRel.k * w2) <= f.VRel.hi)

(* Threshold widening terminates: an adversarial strictly-growing chain
   of intervals reaches a fixpoint within |thresholds| + 2 steps (each
   bound can climb each rung once, then jumps to infinity), and every
   step covers its input (widening is an upper bound). *)
let prop_threshold_widening_terminates =
  let open QCheck.Gen in
  let gen_thresholds =
    map
      (fun l -> Array.of_list (List.sort_uniq compare l))
      (list_size (int_range 0 8) (int_range (-5000) 5000))
  in
  QCheck.Test.make ~name:"threshold widening chains terminate and cover" ~count:200
    (QCheck.make (pair gen_thresholds (list_size (int_range 1 40) (int_range 1 500))))
    (fun (thresholds, grows) ->
      let state = ref (VDomain.itv 0 0) in
      let steps = ref 0 in
      let budget = Array.length thresholds + 2 in
      let ok = ref true in
      List.iter
        (fun g ->
          let next =
            match vbounds !state with
            | Some (lo, hi) -> VDomain.itv (lo - g) (hi + g)
            | None -> VDomain.top
          in
          let w = VRel.widen_dom ~thresholds !state next in
          (* upper bound: the widened value covers both arguments *)
          if not (VRel.leq_dom !state w && VRel.leq_dom next w) then ok := false;
          if not (VDomain.equal w !state) then begin
            incr steps;
            state := w
          end)
        grows;
      (* two rungs per bound direction cannot exceed the ladder budget *)
      !ok && !steps <= (2 * budget))

(* The allocation-free views ([has_bounds]/[lower]/[upper]/
   [is_singleton]) against the concretization written out case by case,
   over every constructor at the integer extremes; [within]/[disjoint]
   and [equal] over every pair; and join soundness across constructors
   now that [join] may hand back one of its inputs. *)
let domain_extremes =
  VDomain.
    [
      Bot; Stackish; top; const 0; const min_int; const max_int; const (-1);
      itv min_int 0; itv 0 max_int; itv min_int (min_int + 1); itv (max_int - 1) max_int;
      itv (-5) 5; masked ~base:0 ~mask:max_int; masked ~base:(1 lsl 61) ~mask:1;
      masked ~base:(max_int land lnot 0xff) ~mask:0xff; masked ~base:0x100 ~mask:0xff;
      (* a denormalized singleton mask: still a singleton *)
      Masked { base = 5; mask = 0 };
    ]

let reference_bounds = function
  | VDomain.Bot | VDomain.Stackish -> None
  | VDomain.Itv { lo; hi } -> Some (lo, hi)
  | VDomain.Masked { base; mask } -> Some (base, base + mask)

let reference_singleton = function
  | VDomain.Itv { lo; hi } when lo = hi -> Some lo
  | VDomain.Masked { base; mask } when mask = 0 -> Some base
  | _ -> None

let test_domain_views_case_split () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  List.iter
    (fun d ->
      let name = VDomain.to_string d in
      if vbounds d <> reference_bounds d then Alcotest.failf "%s: bounds view" name;
      if reference_bounds d = None && not (raises (fun () -> VDomain.lower d) && raises (fun () -> VDomain.upper d))
      then Alcotest.failf "%s: lower/upper must refuse a value without bounds" name;
      (match reference_singleton d with
      | Some n ->
        if not (VDomain.is_singleton d && VDomain.lower d = n && VDomain.upper d = n) then
          Alcotest.failf "%s: singleton view" name
      | None -> if VDomain.is_singleton d then Alcotest.failf "%s: not a singleton" name);
      List.iter
        (fun w ->
          let lo, hi = match reference_bounds w with Some b -> b | None -> (0, 0) in
          let within =
            match reference_bounds d with Some (l, h) -> l >= lo && h <= hi | None -> d = VDomain.Bot
          and disjoint =
            match reference_bounds d with Some (l, h) -> h < lo || l > hi | None -> d = VDomain.Bot
          in
          if VDomain.within d ~lo ~hi <> within then Alcotest.failf "%s: within [%d, %d]" name lo hi;
          if VDomain.disjoint d ~lo ~hi <> disjoint then
            Alcotest.failf "%s: disjoint [%d, %d]" name lo hi;
          if VDomain.equal d w <> (d = w) then
            Alcotest.failf "%s vs %s: equal" name (VDomain.to_string w);
          let j = VDomain.join d w in
          let covers x =
            match (x, reference_bounds x, reference_bounds j) with
            | VDomain.Bot, _, _ -> true
            | VDomain.Stackish, _, _ -> j = VDomain.Stackish || j = VDomain.top
            | _, Some (l, h), Some (jl, jh) -> jl <= l && h <= jh
            | _ -> false
          in
          if not (covers d && covers w) then
            Alcotest.failf "join %s %s = %s does not cover both" name (VDomain.to_string w)
              (VDomain.to_string j))
        domain_extremes)
    domain_extremes

(* [Vstate.equal] against polymorphic structural equality on random
   state pairs: independent states, states drawn from small pools (so
   equal components are common), states sharing components physically,
   and a join with its left operand (which [join] may return as is or
   share arrays with). *)
let prop_vstate_equal_is_structural =
  let module VV = Hfi_verify.Vstate in
  let open QCheck.Gen in
  let gen_dom =
    oneofl VDomain.[ Bot; Stackish; top; const 0; const 1; itv 0 7; masked ~base:8 ~mask:3 ]
  in
  let gen_fact =
    frequency
      [
        (3, return None);
        ( 1,
          map3
            (fun base k lo -> Some { VRel.base; k; lo; hi = lo + 1 })
            (int_range 0 2) (oneofl [ 1; 2 ]) (int_range 0 1) );
      ]
  in
  let region =
    Hfi_isa.Hfi_iface.Implicit_data
      { base_prefix = 0x10000; lsb_mask = 0xffff; permission_read = true; permission_write = false }
  in
  let gen_rstate = oneofl [ VV.Runset; VV.Runknown; VV.Rknown region ] in
  let gen_state =
    map3
      (fun (regs, facts) (cmp_reg, cmp_rhs) (sandbox, regions) ->
        { VV.regs; facts; cmp_reg; cmp_rhs; sandbox; regions })
      (pair (array_repeat VReg.count gen_dom) (array_repeat VReg.count gen_fact))
      (pair (int_range (-1) 1) gen_dom)
      (pair (oneofl [ VV.Sout; VV.Sin; VV.Smaybe ]) (array_repeat Hfi_isa.Hfi_iface.region_count gen_rstate))
  in
  QCheck.Test.make ~name:"Vstate.equal is structural equality" ~count:300
    (QCheck.make (pair gen_state gen_state))
    (fun (a, b) ->
      let pairs =
        [
          (a, b); (a, a); (a, { a with VV.regs = Array.copy a.VV.regs });
          ({ b with VV.regs = a.VV.regs }, a); ({ b with VV.facts = a.VV.facts }, b);
          ({ a with VV.cmp_rhs = b.VV.cmp_rhs; regions = b.VV.regions }, a);
          ({ a with VV.sandbox = b.VV.sandbox }, a); (VV.join a b, a); (VV.join a a, a);
        ]
      in
      List.for_all (fun (x, y) -> VV.equal x y = (x = y) && VV.equal y x = (y = x)) pairs)

(* --- Proof artifacts: negative controls --- *)

module VChecks = Hfi_verify.Checks
module VProof = Hfi_verify.Proof
module VProofcheck = Hfi_verify.Proofcheck
module VVstate = Hfi_verify.Vstate

let proofcheck_rejects name p w =
  match VProofcheck.check_workload ~strategy:Hfi_sfi.Strategy.Guard_pages w p with
  | VProofcheck.Rejected _ -> ()
  | VProofcheck.Accepted -> Alcotest.failf "%s accepted" name

(* A proof whose invariants were tampered with — here the loop head's
   entry invariant shrunk below what the entry edge contributes — must
   be rejected by the independent checker. *)
let test_proof_tampered_invariant () =
  let w = Hfi_workloads.Sightglass.find "sieve" in
  let _, p = VChecks.verify_workload_with_proof ~strategy:Hfi_sfi.Strategy.Guard_pages w in
  let p = Option.get p in
  (* shrink every recorded non-singleton register interval by one from
     below; at least one such bound is attained by a real flow, so the
     inductive-invariant check must fail somewhere *)
  let shrink (st : VVstate.t) =
    {
      st with
      VVstate.regs =
        Array.map
          (fun d ->
            match vbounds d with
            | Some (lo, hi) when lo < hi && lo > min_int -> Hfi_opt.Domain.itv (lo + 1) hi
            | _ -> d)
          st.VVstate.regs;
    }
  in
  let tampered =
    {
      p with
      VProof.invariants =
        List.map (fun (b, st) -> (b, if b > 0 then shrink st else st)) p.VProof.invariants;
    }
  in
  proofcheck_rejects "tampered invariant" tampered w;
  (* and the tampering also fails via the JSON round-trip path *)
  match VProof.of_json_string (VProof.to_json tampered) with
  | Error e -> Alcotest.failf "tampered artifact should still parse: %s" e
  | Ok p' -> proofcheck_rejects "tampered invariant (via json)" p' w

let test_proof_truncated_artifact () =
  let w = Hfi_workloads.Sightglass.find "base64" in
  let _, p = VChecks.verify_workload_with_proof ~strategy:Hfi_sfi.Strategy.Guard_pages w in
  let s = VProof.to_json (Option.get p) in
  (* every strict prefix must fail to parse — truncation is never a
     silently-smaller proof *)
  List.iter
    (fun frac ->
      let n = String.length s * frac / 100 in
      match VProof.of_json_string (String.sub s 0 n) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "truncated artifact (%d%%) parsed" frac)
    [ 10; 50; 90; 99 ]

let test_proof_version_mismatch () =
  let w = Hfi_workloads.Sightglass.find "fib2" in
  let _, p = VChecks.verify_workload_with_proof ~strategy:Hfi_sfi.Strategy.Guard_pages w in
  let p = Option.get p in
  proofcheck_rejects "verifier-version mismatch"
    { p with VProof.verifier_version = VChecks.verifier_version + 1 }
    w;
  proofcheck_rejects "proof-format-version mismatch"
    { p with VProof.proof_version = VProof.current_version + 1 }
    w;
  proofcheck_rejects "fingerprint mismatch" { p with VProof.fingerprint = "deadbeef" } w

let suite =
  [
    QCheck_alcotest.to_alcotest prop_addr_space_matches_reference;
    QCheck_alcotest.to_alcotest prop_prefix_pages_match_reference;
    QCheck_alcotest.to_alcotest prop_multibyte_load_matches_bytewise;
    QCheck_alcotest.to_alcotest prop_multibyte_store_matches_bytewise;
    QCheck_alcotest.to_alcotest prop_load_after_remap_sees_new_mapping;
    QCheck_alcotest.to_alcotest prop_page_table_matches_direct_lookups;
    QCheck_alcotest.to_alcotest prop_cache_matches_lru_reference;
    QCheck_alcotest.to_alcotest prop_prng_int_in_range;
    QCheck_alcotest.to_alcotest prop_percentile_matches_polymorphic_sort;
    QCheck_alcotest.to_alcotest prop_percentile_monotonic;
    QCheck_alcotest.to_alcotest prop_geomean_between_min_max;
    QCheck_alcotest.to_alcotest prop_program_offsets_consistent;
    QCheck_alcotest.to_alcotest prop_hfi_state_invariants;
    QCheck_alcotest.to_alcotest prop_xsave_restores_observables;
    QCheck_alcotest.to_alcotest prop_domain_join_sound;
    QCheck_alcotest.to_alcotest prop_fact_join_sound;
    QCheck_alcotest.to_alcotest prop_threshold_widening_terminates;
    Alcotest.test_case "domain views agree with the case split at the extremes" `Quick
      test_domain_views_case_split;
    QCheck_alcotest.to_alcotest prop_vstate_equal_is_structural;
    Alcotest.test_case "proofcheck rejects a tampered invariant" `Quick
      test_proof_tampered_invariant;
    Alcotest.test_case "proofcheck rejects a truncated artifact" `Quick
      test_proof_truncated_artifact;
    Alcotest.test_case "proofcheck rejects version/fingerprint mismatches" `Quick
      test_proof_version_mismatch;
  ]

