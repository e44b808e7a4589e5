type 'a result = { states : 'a option array; converged : bool; stable : bool; iterations : int }

(* A block's in-state is widened instead of joined once it has grown
   this many times. *)
let widen_threshold = 3

(* the recorded contribution of the edge from block [b] *)
let rec edge_from (b : int) = function
  | [] -> None
  | (s, st) :: rest -> if s = b then Some st else edge_from b rest

(* [acc] joined with each edge contribution, left to right *)
let rec join_edges join acc = function
  | [] -> acc
  | (_, s) :: rest -> join_edges join (join acc s) rest

(* [edges] with the contribution from [s] set to [st], kept sorted by
   source block *)
let rec set_edge (s : int) st = function
  | ((s', _) as e) :: rest when s' < s -> e :: set_edge s st rest
  | (s', _) :: rest when s' = s -> (s, st) :: rest
  | edges -> (s, st) :: edges

let solve ~init ~join ~widen ~equal ~transfer (cfg : Cfg.t) =
  let nb = Array.length cfg.Cfg.blocks in
  let states = Array.make nb None in
  let iterations = ref 0 in
  if nb = 0 then { states; converged = true; stable = true; iterations = 0 }
  else begin
    let visits = Array.make nb 0 in
    (* per target block: the latest contribution of each incoming edge,
       as a list sorted by source block *)
    let in_edges = Array.make nb [] in
    (* Sinks (see [Cfg.is_sink]) — chiefly the shared Wasm trap block,
       which every bounds check branches to — stay off the worklist.
       Their edge contributions are recorded as usual, but nothing
       reads a sink's in-state during the fixpoint, so re-folding its
       hundreds of in-edges on every change would be pure waste. Each
       sink is solved once, after the narrowing drain, as the sorted
       join of its final contributions. That is exactly where the
       worklist would have left it: narrowing first installs the pure
       join over every block, and each later narrowing recompute
       installs the join directly, so the solved states are unchanged;
       only [iterations] drops by the sink pops it skips. *)
    let sink = Array.map (Cfg.is_sink cfg) cfg.Cfg.blocks in
    let queue = Queue.create () in
    let on_queue = Array.make nb false in
    let enqueue b =
      if not on_queue.(b) then begin
        on_queue.(b) <- true;
        Queue.push b queue
      end
    in
    let narrowing = ref false in
    (* Fold the incoming edges in sorted order: a join that infers facts
       is only associative-commutative up to which fact is born first,
       so a fixed edge order keeps results byte-identical run to run
       (and across --jobs shardings). *)
    let joined_in b =
      match in_edges.(b) with
      | [] -> if b = 0 then Some init else None
      | (_, s) :: rest -> Some (join_edges join (if b = 0 then join init s else s) rest)
    in
    let install b s =
      states.(b) <- Some s;
      enqueue b
    in
    let recompute b =
      match (joined_in b, states.(b)) with
      | None, _ -> ()
      | Some j, None -> install b j
      | Some j, Some cur when !narrowing ->
        (* states only shrink here and stay above the fixpoint, so a
           bounded budget keeps this sound wherever it stops *)
        if not (equal j cur) then install b j
      | Some j, Some cur ->
        let u = join cur j in
        if not (equal u cur) then begin
          visits.(b) <- visits.(b) + 1;
          install b (if visits.(b) > widen_threshold then widen cur u else u)
        end
    in
    (* record [b]'s out-edges; a loop rather than [List.iter] with a
       closure over [b], which would allocate on every pop *)
    let rec record b = function
      | [] -> ()
      | (t, contrib) :: rest ->
        (match edge_from b in_edges.(t) with
        | Some old when equal old contrib -> ()
        | _ ->
          in_edges.(t) <- set_edge b contrib in_edges.(t);
          if not sink.(t) then recompute t);
        record b rest
    in
    let process b =
      on_queue.(b) <- false;
      incr iterations;
      match states.(b) with None -> () | Some s -> record b (transfer s cfg.Cfg.blocks.(b))
    in
    let drain budget =
      let left = ref budget in
      while (not (Queue.is_empty queue)) && !left > 0 do
        decr left;
        process (Queue.pop queue)
      done;
      Queue.is_empty queue
    in
    (* Descending phase, entered only from an ascending fixpoint. Drop
       the widened in-states: replace each with the pure join of its edge
       contributions, which the ascending phase left at (or above) the
       fixpoint — e.g. a loop head widened to [0,+inf] whose back edge
       already carries the tight refined bound. The contributions
       themselves have not changed, so [recompute] alone would never
       fire; install directly, then re-simulate every block so
       downstream contributions shrink too. *)
    let narrow () =
      narrowing := true;
      for b = 0 to nb - 1 do
        match (states.(b), joined_in b) with
        | Some cur, Some j when not (equal j cur) -> states.(b) <- Some j
        | _ -> ()
      done;
      for b = 0 to nb - 1 do
        if Option.is_some states.(b) then enqueue b
      done;
      (* At quiescence (ascending or descending), every recorded edge
         contribution equals the transfer of its source's in-state and
         every in-state covers the join of its incoming contributions —
         exactly the inclusion property the independent proof checker
         revalidates. A narrowing pass cut short by the budget can break
         the mutual consistency, so only a fully drained queue is
         [stable]. *)
      let drained = drain (32 * nb) in
      Array.iteri (fun b is_sink -> if is_sink then states.(b) <- joined_in b) sink;
      drained
    in
    states.(0) <- Some init;
    enqueue 0;
    let converged = drain ((200 * nb) + 1000) in
    let stable = converged && narrow () in
    { states; converged; stable; iterations = !iterations }
  end
