let page_size = 4096
let page_shift = 12
let max_va = 1 lsl 47

module Imap = Map.Make (Int)

type vma = { stop : int; perm : Perm.t }
(* Keyed by start address in [t.vmas]; the interval is [start, stop). *)

(* The page/permission table is direct-mapped on the page number: slot
   [p land table_mask] describes page [p] iff [tbl_page.(slot) = p]. A
   valid slot holds [Some] of the protection of the VMA containing the
   page and the page's stored prefix, or [Bytes.empty] when it is
   not resident. Only mapped pages are entered. *)
let table_size = 256
let table_mask = table_size - 1

type t = {
  mutable vmas : vma Imap.t;
  pages : (int, Bytes.t) Hashtbl.t;  (* page index -> contents *)
  mutable reserved : int;
  mutable cursor : int;  (* bump pointer for mmap_anywhere *)
  mutable minor_faults : int;
  tbl_page : int array;  (* -1 = empty slot *)
  tbl_perm : Perm.t option array;
  tbl_data : Bytes.t array;
}

exception
  Fault of {
    addr : int;
    access : [ `Read | `Write | `Exec ];
    reason : [ `Unmapped | `Protection ];
  }

exception Out_of_va_space

let create () =
  {
    vmas = Imap.empty;
    pages = Hashtbl.create 1024;
    reserved = 0;
    cursor = 1 lsl 32;  (* leave low VA for code/stack conventions *)
    minor_faults = 0;
    tbl_page = Array.make table_size (-1);
    tbl_perm = Array.make table_size None;
    tbl_data = Array.make table_size Bytes.empty;
  }

let page_down a = a land lnot (page_size - 1)
let page_up a = (a + page_size - 1) land lnot (page_size - 1)

(* Every mapping or residency mutation empties the table, so no slot can
   outlive the mapping or page it describes. Dropping the data pointers
   too lets discarded pages be collected. *)
let clear_table t =
  Array.fill t.tbl_page 0 table_size (-1);
  Array.fill t.tbl_data 0 table_size Bytes.empty

let check_range addr len =
  if len <= 0 then invalid_arg "Addr_space: non-positive length";
  if addr < 0 || addr + len > max_va then invalid_arg "Addr_space: range beyond max_va"

(* The VMA containing [addr], as (start, vma). *)
let find_vma t addr =
  match Imap.find_last_opt (fun s -> s <= addr) t.vmas with
  | Some (start, v) when addr < v.stop -> Some (start, v)
  | _ -> None

(* Split any VMA straddling [addr] so that [addr] becomes a boundary.
   Coverage and protections are unchanged, so the table stays valid. *)
let split_at t addr =
  match find_vma t addr with
  | Some (start, v) when start < addr ->
    t.vmas <- Imap.add start { v with stop = addr } t.vmas;
    t.vmas <- Imap.add addr v t.vmas
  | _ -> ()

(* All VMAs fully inside [lo, hi) after splitting at both boundaries. *)
let vmas_in t lo hi =
  Imap.fold
    (fun start v acc -> if start >= lo && v.stop <= hi then (start, v) :: acc else acc)
    t.vmas []

let overlapping t lo hi =
  Imap.fold
    (fun start v acc -> if start < hi && v.stop > lo then (start, v) :: acc else acc)
    t.vmas []

let drop_pages t lo hi =
  clear_table t;
  let first = lo lsr page_shift and last = (hi - 1) lsr page_shift in
  (* Iterate the smaller side: range vs resident table. *)
  if last - first + 1 < Hashtbl.length t.pages then
    for p = first to last do
      Hashtbl.remove t.pages p
    done
  else begin
    let doomed =
      Hashtbl.fold (fun p _ acc -> if p >= first && p <= last then p :: acc else acc) t.pages []
    in
    List.iter (Hashtbl.remove t.pages) doomed
  end

(* Callers follow with [drop_pages], which clears the table. *)
let remove_range t lo hi =
  split_at t lo;
  split_at t hi;
  List.iter
    (fun (start, v) ->
      t.vmas <- Imap.remove start t.vmas;
      t.reserved <- t.reserved - (v.stop - start))
    (vmas_in t lo hi)

let mmap t ~addr ~len perm =
  check_range addr len;
  let lo = page_down addr and hi = page_up (addr + len) in
  remove_range t lo hi;
  drop_pages t lo hi;
  t.vmas <- Imap.add lo { stop = hi; perm } t.vmas;
  t.reserved <- t.reserved + (hi - lo)

let mmap_anywhere t ~len perm =
  let len = page_up len in
  (* First fit from the cursor; wrap once. *)
  let rec search from wrapped =
    if from + len > max_va then
      if wrapped then raise Out_of_va_space else search (1 lsl 32) true
    else begin
      match overlapping t from (from + len) with
      | [] ->
        mmap t ~addr:from ~len perm;
        if from + len > t.cursor then t.cursor <- from + len;
        from
      | conflicts ->
        let next =
          List.fold_left (fun acc (_, v) -> Stdlib.max acc v.stop) (from + page_size) conflicts
        in
        search next wrapped
    end
  in
  search t.cursor false

let munmap t ~addr ~len =
  check_range addr len;
  let lo = page_down addr and hi = page_up (addr + len) in
  remove_range t lo hi;
  drop_pages t lo hi

let mprotect t ~addr ~len perm =
  check_range addr len;
  clear_table t;
  let lo = page_down addr and hi = page_up (addr + len) in
  split_at t lo;
  split_at t hi;
  (* Linux mprotect fails on holes; verify full coverage first. *)
  let covered =
    List.fold_left (fun acc (start, v) -> acc + (v.stop - start)) 0 (vmas_in t lo hi)
  in
  if covered <> hi - lo then raise (Fault { addr = lo; access = `Write; reason = `Unmapped });
  List.iter
    (fun (start, v) -> t.vmas <- Imap.add start { v with perm } t.vmas)
    (vmas_in t lo hi)

let madvise_dontneed t ~addr ~len =
  check_range addr len;
  drop_pages t (page_down addr) (page_up (addr + len))

(* Slot describing page [p], filled from the VMA map and the page
   hashtable on a miss; -1 if the page is unmapped. VMA bounds are page
   aligned, so the VMA holding the page's first byte covers all of it. *)
let fill_slot t p s =
  match find_vma t (p lsl page_shift) with
  | None -> -1
  | Some (_, v) ->
    Array.unsafe_set t.tbl_page s p;
    Array.unsafe_set t.tbl_perm s (Some v.perm);
    Array.unsafe_set t.tbl_data s
      (match Hashtbl.find_opt t.pages p with Some b -> b | None -> Bytes.empty);
    s

let[@inline] slot_of t p =
  let s = p land table_mask in
  if Array.unsafe_get t.tbl_page s = p then s else fill_slot t p s

let perm_at t addr =
  let s = slot_of t (addr lsr page_shift) in
  if s < 0 then None else Array.unsafe_get t.tbl_perm s

let is_mapped t addr = match perm_at t addr with Some _ -> true | None -> false

let[@inline] allows (p : Perm.t) = function `Read -> p.r | `Write -> p.w | `Exec -> p.x

(* Slot of the page holding [addr], after checking [access] on it. *)
let[@inline] checked_slot t addr access =
  let s = slot_of t (addr lsr page_shift) in
  if s < 0 then raise (Fault { addr; access; reason = `Unmapped });
  (match Array.unsafe_get t.tbl_perm s with
  | Some p when allows p access -> ()
  | _ -> raise (Fault { addr; access; reason = `Protection }));
  s

(* Resident page [p], or [Bytes.empty] (length 0, never a real page) when
   it is not resident, so the hot path allocates nothing — not even an
   option. Unmapped pages can still hold data written by [poke] or
   [blit_in]; they are looked up in the hashtable.

   A resident page stores only a prefix of its contents: its [Bytes]
   holds the page's first [Bytes.length b] bytes (64 or [page_size]) and
   every byte past the end reads as zero. A first touch that ends within
   [small_page] bytes allocates that much; any write past the end grows
   the page once, to [page_size]. *)
let small_page = 64

let page_or_empty t p =
  let s = slot_of t p in
  if s >= 0 then Array.unsafe_get t.tbl_data s
  else match Hashtbl.find_opt t.pages p with Some b -> b | None -> Bytes.empty

(* Page [p] holding at least its first [need] bytes: allocated (and a
   minor fault counted) on first touch, grown to [page_size] when its
   prefix is too short. *)
let ensure_page t p need =
  let s = p land table_mask in
  let cached = Array.unsafe_get t.tbl_data s in
  if Array.unsafe_get t.tbl_page s = p && need <= Bytes.length cached then cached
  else begin
    let b =
      match Hashtbl.find_opt t.pages p with
      | Some b when need <= Bytes.length b -> b
      | Some b ->
        let g = Bytes.make page_size '\000' in
        Bytes.blit b 0 g 0 (Bytes.length b);
        Hashtbl.replace t.pages p g;
        g
      | None ->
        let b = Bytes.make (if need <= small_page then small_page else page_size) '\000' in
        Hashtbl.replace t.pages p b;
        t.minor_faults <- t.minor_faults + 1;
        b
    in
    if Array.unsafe_get t.tbl_page s = p then Array.unsafe_set t.tbl_data s b;
    b
  end

let read_byte t addr =
  let b = page_or_empty t (addr lsr page_shift) and off = addr land (page_size - 1) in
  if off < Bytes.length b then Char.code (Bytes.unsafe_get b off) else 0

let write_byte t addr v =
  let off = addr land (page_size - 1) in
  let b = ensure_page t (addr lsr page_shift) (off + 1) in
  Bytes.set b off (Char.chr (v land 0xff))

let valid_width bytes =
  if bytes <> 1 && bytes <> 2 && bytes <> 4 && bytes <> 8 then
    invalid_arg "Addr_space: width must be 1, 2, 4 or 8"

(* Per-byte assembly, used when the access straddles a page boundary or
   the end of a page's stored prefix. Values are little-endian 63-bit
   patterns: OCaml ints carry up to 62 value bits, which covers all
   modeled address arithmetic, and the multi-byte fast path below
   reproduces the same truncation. *)
let raw_load_straddle t addr bytes =
  let v = ref 0 in
  for i = bytes - 1 downto 0 do
    v := (!v lsl 8) lor read_byte t (addr + i)
  done;
  !v

let raw_store_straddle t addr bytes v =
  for i = 0 to bytes - 1 do
    write_byte t (addr + i) ((v lsr (8 * i)) land 0xff)
  done

(* Read or write [bytes] at offset [off] of page [b]. Unsafe accessors
   are justified by the callers' guard: [off + bytes <= Bytes.length b].
   Byte-at-a-time composition rather than [Bytes.get_int64_le] keeps the
   path allocation-free — boxed [Int64]s would dominate an 8-byte
   access. The top byte's [lsl 56] drops bit 63 exactly as the per-byte
   slow loop does, so values agree mod 2^63. *)
(* Top-level (not closures over [b]/[off]), so they inline and the
   access allocates nothing. *)
let[@inline] byte_at b i = Char.code (Bytes.unsafe_get b i)
let[@inline] set_byte_at b i x = Bytes.unsafe_set b i (Char.unsafe_chr (x land 0xff))

let read_in b off bytes =
  match bytes with
  | 1 -> byte_at b off
  | 2 -> byte_at b off lor (byte_at b (off + 1) lsl 8)
  | 4 ->
    byte_at b off
    lor (byte_at b (off + 1) lsl 8)
    lor (byte_at b (off + 2) lsl 16)
    lor (byte_at b (off + 3) lsl 24)
  | _ ->
    byte_at b off
    lor (byte_at b (off + 1) lsl 8)
    lor (byte_at b (off + 2) lsl 16)
    lor (byte_at b (off + 3) lsl 24)
    lor (byte_at b (off + 4) lsl 32)
    lor (byte_at b (off + 5) lsl 40)
    lor (byte_at b (off + 6) lsl 48)
    lor (byte_at b (off + 7) lsl 56)

let write_in b off bytes v =
  match bytes with
  | 1 -> set_byte_at b off v
  | 2 ->
    set_byte_at b off v;
    set_byte_at b (off + 1) (v lsr 8)
  | 4 ->
    set_byte_at b off v;
    set_byte_at b (off + 1) (v lsr 8);
    set_byte_at b (off + 2) (v lsr 16);
    set_byte_at b (off + 3) (v lsr 24)
  | _ ->
    set_byte_at b off v;
    set_byte_at b (off + 1) (v lsr 8);
    set_byte_at b (off + 2) (v lsr 16);
    set_byte_at b (off + 3) (v lsr 24);
    set_byte_at b (off + 4) (v lsr 32);
    set_byte_at b (off + 5) (v lsr 40);
    set_byte_at b (off + 6) (v lsr 48);
    set_byte_at b (off + 7) (v lsr 56)

let[@inline] in_page addr bytes = addr land (page_size - 1) + bytes <= page_size

(* Checked accesses: a table hit on a stored prefix costs one compare. A
   page-straddling access checks the second page too (faulting at its
   first byte) and falls back to the per-byte path. An in-page read
   wholly past the stored prefix is zero, one that crosses its end goes
   per byte, and an in-page write past it grows the page. *)
let load t ~addr ~bytes =
  valid_width bytes;
  let s = checked_slot t addr `Read in
  let b = Array.unsafe_get t.tbl_data s and off = addr land (page_size - 1) in
  if off + bytes <= Bytes.length b then read_in b off bytes
  else if off >= Bytes.length b && in_page addr bytes then 0
  else begin
    if not (in_page addr bytes) then ignore (checked_slot t (addr + bytes - 1) `Read);
    raw_load_straddle t addr bytes
  end

let store t ~addr ~bytes v =
  valid_width bytes;
  let s = checked_slot t addr `Write in
  let b = Array.unsafe_get t.tbl_data s and off = addr land (page_size - 1) in
  if off + bytes <= Bytes.length b then write_in b off bytes v
  else if in_page addr bytes then
    write_in (ensure_page t (addr lsr page_shift) (off + bytes)) off bytes v
  else begin
    ignore (checked_slot t (addr + bytes - 1) `Write);
    raw_store_straddle t addr bytes v
  end

let peek t ~addr ~bytes =
  valid_width bytes;
  let s = slot_of t (addr lsr page_shift) in
  if s < 0 then raise (Fault { addr; access = `Read; reason = `Unmapped });
  let b = Array.unsafe_get t.tbl_data s and off = addr land (page_size - 1) in
  if off + bytes <= Bytes.length b then read_in b off bytes
  else if off >= Bytes.length b && in_page addr bytes then 0
  else raw_load_straddle t addr bytes

let poke t ~addr ~bytes v =
  valid_width bytes;
  if not (is_mapped t addr) then raise (Fault { addr; access = `Write; reason = `Unmapped });
  let off = addr land (page_size - 1) in
  if in_page addr bytes then write_in (ensure_page t (addr lsr page_shift) (off + bytes)) off bytes v
  else raw_store_straddle t addr bytes v

(* Page-chunked copy-in: same semantics as a write_byte loop (no
   permission or mapping checks; first touch allocates the page and
   counts a minor fault), one blit per page. *)
let blit_in t ~addr s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land (page_size - 1) in
    let n = Stdlib.min (len - !pos) (page_size - off) in
    let b = ensure_page t (a lsr page_shift) (off + n) in
    Bytes.blit_string s !pos b off n;
    pos := !pos + n
  done

(* Page-chunked copy-out: bytes past a page's stored prefix, and whole
   non-resident pages, read as zeroes and are NOT allocated (residency
   is unchanged, matching the read_byte loop). *)
let read_string t ~addr ~len =
  if len = 0 then ""
  else begin
    let out = Bytes.make len '\000' in
    let pos = ref 0 in
    while !pos < len do
      let a = addr + !pos in
      let off = a land (page_size - 1) in
      let n = Stdlib.min (len - !pos) (page_size - off) in
      (let b = page_or_empty t (a lsr page_shift) in
       let stored = Stdlib.min n (Bytes.length b - off) in
       if stored > 0 then Bytes.blit b off out !pos stored);
      pos := !pos + n
    done;
    Bytes.unsafe_to_string out
  end

let resident_pages_in t ~addr ~len =
  let first = addr lsr page_shift and last = (addr + len - 1) lsr page_shift in
  if last - first + 1 < Hashtbl.length t.pages then begin
    let n = ref 0 in
    for p = first to last do
      if Hashtbl.mem t.pages p then incr n
    done;
    !n
  end
  else Hashtbl.fold (fun p _ acc -> if p >= first && p <= last then acc + 1 else acc) t.pages 0

let mapped_pages_in t ~addr ~len =
  let lo = page_down addr and hi = page_up (addr + len) in
  List.fold_left
    (fun acc (start, v) ->
      let s = Stdlib.max start lo and e = Stdlib.min v.stop hi in
      acc + ((e - s) lsr page_shift))
    0 (overlapping t lo hi)

let absent_pages_in t ~addr ~len =
  mapped_pages_in t ~addr ~len - resident_pages_in t ~addr ~len

let vma_count t = Imap.cardinal t.vmas
let reserved_bytes t = t.reserved
let resident_bytes t = Hashtbl.length t.pages * page_size
let minor_faults t = t.minor_faults
