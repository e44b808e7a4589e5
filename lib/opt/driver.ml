(* Pass pipeline and the [HFI_WASM_OPT] switch.

   Order matters: the SFI passes ([Sfi_opt.elide]/[reuse]/[hoist]) run
   first, on the pristine codegen output whose check shapes they pattern
   match; [Rewrite] then folds constants and copies (including the
   direct addresses elision exposes); [Dce] sweeps the stranded feeders.
   Programs with indirect control flow are returned untouched — every
   pass reasons over the static CFG only, and the Wasm frontend never
   emits indirect flow, so this bail costs nothing where the optimizer
   is meant to run. *)

let enabled =
  ref
    (match Sys.getenv_opt "HFI_WASM_OPT" with
    | Some "0" -> false
    | Some _ | None -> true)

let with_enabled v f =
  let saved = !enabled in
  enabled := v;
  Fun.protect ~finally:(fun () -> enabled := saved) f

type pass_result = {
  pass : string;  (* pass name, in pipeline order *)
  prog : Program.t;  (* program after the pass *)
  changed : int;  (* rewrites/deletions/moves performed *)
}

let has_indirect_flow ~code_base prog =
  let uops = Uop.decode prog ~code_base in
  Array.exists
    (fun (u : Uop.t) ->
      match u.Uop.op with
      | Uop.Ojmp_ind _ | Uop.Ocall_ind _ -> true
      | Uop.Ojmp t | Uop.Ojcc { target = t; _ } | Uop.Ocall t ->
        t < 0 || t >= Array.length uops
      | _ -> false)
    uops

let steps (conv : Sfi_opt.conv) =
  let code_base = conv.Sfi_opt.code_base in
  [
    ("elide", fun p -> Sfi_opt.elide conv p);
    ("reuse", fun p -> Sfi_opt.reuse conv p);
    ("hoist", fun p -> Sfi_opt.hoist conv p);
    ("rewrite", fun p -> Rewrite.run ~code_base p);
    ("dce", fun p -> Dce.run_fix ~code_base p);
  ]

(* Run the full pipeline, recording each pass's output — the
   [hfi_cli opt] dump shows this list verbatim. *)
let passes (conv : Sfi_opt.conv) prog =
  if has_indirect_flow ~code_base:conv.Sfi_opt.code_base prog then []
  else begin
    let _, results =
      List.fold_left
        (fun (p, acc) (name, f) ->
          let p', n = f p in
          (p', { pass = name; prog = p'; changed = n } :: acc))
        (prog, []) (steps conv)
    in
    List.rev results
  end

(* The pipeline's final program, without keeping any pass's output. *)
let optimize conv prog =
  if has_indirect_flow ~code_base:conv.Sfi_opt.code_base prog then prog
  else List.fold_left (fun p (_, f) -> fst (f p)) prog (steps conv)

(* Total rewrites across the pipeline (experiment/bench reporting). *)
let total_changed results = List.fold_left (fun acc r -> acc + r.changed) 0 results
