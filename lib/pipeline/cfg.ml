type term =
  | Tfall of int option
  | Tjump of int
  | Tcond of { taken : int; fall : int option }
  | Tjump_ind
  | Tcall of { target : int; ret : int option }
  | Tcall_ind of { ret : int option }
  | Tret
  | Thalt
  | Tout of int

type block = { id : int; first : int; last : int; term : term; succs : int list }
type t = { blocks : block array; block_of_instr : int array; ret_points : int list }

let build (uops : Uop.t array) (layout : Uop.layout) =
  let n = Array.length uops in
  let block_last = layout.Uop.block_last in
  if n = 0 then { blocks = [||]; block_of_instr = [||]; ret_points = [] }
  else begin
    let heads = ref [] in
    for i = n - 1 downto 0 do
      if Uop.is_block_head layout i then heads := i :: !heads
    done;
    let heads = Array.of_list !heads in
    let nb = Array.length heads in
    let block_of_instr = Array.make n 0 in
    Array.iteri
      (fun id first ->
        for i = first to block_last.(first) do
          block_of_instr.(i) <- id
        done)
      heads;
    let bid t = block_of_instr.(t) in
    (* the block after instruction [last], when the program continues *)
    let after last = if last + 1 < n then Some (bid (last + 1)) else None in
    let term_of last =
      match Uop.flow_of uops.(last) with
      | Uop.Seq | Uop.Syscall_flow | Uop.Transition_flow -> Tfall (after last)
      | Uop.Jump t -> if t >= 0 && t < n then Tjump (bid t) else Tout t
      | Uop.Cond_jump t ->
        if t >= 0 && t < n then Tcond { taken = bid t; fall = after last } else Tout t
      | Uop.Indirect_jump -> Tjump_ind
      | Uop.Direct_call t ->
        if t >= 0 && t < n then Tcall { target = bid t; ret = after last } else Tout t
      | Uop.Indirect_call -> Tcall_ind { ret = after last }
      | Uop.Return -> Tret
      | Uop.Stop -> Thalt
    in
    let terms = Array.map (fun first -> term_of block_last.(first)) heads in
    let ret_points =
      Array.to_list terms
      |> List.filter_map (function
           | Tcall { ret; _ } | Tcall_ind { ret } -> ret
           | _ -> None)
      |> List.sort_uniq compare
    in
    let succs_of = function
      | Tfall next -> Option.to_list next
      | Tjump t -> [ t ]
      | Tcond { taken; fall } -> taken :: Option.to_list fall
      | Tcall { target; _ } -> [ target ]
      | Tret -> ret_points
      | Tjump_ind | Tcall_ind _ | Thalt | Tout _ -> []
    in
    let blocks =
      Array.init nb (fun id ->
          {
            id;
            first = heads.(id);
            last = block_last.(heads.(id));
            term = terms.(id);
            succs = succs_of terms.(id);
          })
    in
    { blocks; block_of_instr; ret_points }
  end

let is_sink cfg b =
  b.id <> 0
  &&
  match b.term with
  | Thalt | Tfall None | Tout _ -> true
  | Tret -> cfg.ret_points = []
  | Tfall (Some _) | Tjump _ | Tcond _ | Tjump_ind | Tcall _ | Tcall_ind _ -> false

let dfs cfg ~edges =
  let nb = Array.length cfg.blocks in
  let seen = Array.make nb false in
  let rec go id =
    if id >= 0 && id < nb && not seen.(id) then begin
      seen.(id) <- true;
      List.iter go (edges cfg.blocks.(id))
    end
  in
  if nb > 0 then go 0;
  seen

let reachable cfg = dfs cfg ~edges:(fun b -> b.succs)

let depth0_reachable ?(extra_edges = []) cfg =
  let nb = Array.length cfg.blocks in
  let extra = Array.make nb [] in
  List.iter
    (fun (f, t) -> if f >= 0 && f < nb then extra.(f) <- t :: extra.(f))
    (List.rev extra_edges);
  dfs cfg ~edges:(fun b ->
      let structural =
        match b.term with
        | Tfall next -> Option.to_list next
        | Tjump t -> [ t ]
        | Tcond { taken; fall } -> taken :: Option.to_list fall
        (* skip the callee body: resume at the return point at depth 0 *)
        | Tcall { ret; _ } | Tcall_ind { ret } -> Option.to_list ret
        (* stop: executing ret here is exactly what the caller checks for *)
        | Tret | Tjump_ind | Thalt | Tout _ -> []
      in
      structural @ extra.(b.id))
