(* Proof artifacts: the fixpoint's per-block entry invariants,
   serialized so a second, much simpler checker ({!Proofcheck}) can
   revalidate a Safe verdict without re-running the worklist — the
   VeriWasm-style "emit the invariants, check them in one pass" split
   of trust. The artifact binds itself to the exact program
   (fingerprint), strategy and verifier version it was produced for. *)

let current_version = 1

type t = {
  proof_version : int;
  verifier_version : int;
  target : string;
  strategy : string;  (* Hfi_sfi.Strategy.to_string *)
  fingerprint : string;
  code_base : int;
  blocks : int;
  instrs : int;
  invariants : (int * Vstate.t) list;  (* block id -> entry invariant, ascending ids *)
}

module J = Hfi_util.Json

let to_json p =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       {|{"format":"hfi-proof","proof_version":%d,"verifier_version":%d,"target":"%s","strategy":"%s","fingerprint":"%s","code_base":%d,"blocks":%d,"instrs":%d,"invariants":[|}
       p.proof_version p.verifier_version (J.escape p.target) (J.escape p.strategy)
       (J.escape p.fingerprint) p.code_base p.blocks p.instrs);
  List.iteri
    (fun i (blk, st) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf {|{"block":%d,"state":|} blk);
      Buffer.add_string b (Vstate.to_json st);
      Buffer.add_char b '}')
    p.invariants;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let of_json_string s =
  match J.parse s with
  | Error e -> Error ("unparseable proof artifact: " ^ e)
  | Ok j -> (
    try
      let str name =
        match Option.bind (J.member name j) J.to_str with
        | Some v -> v
        | None -> raise (Vstate.Malformed ("missing field " ^ name))
      in
      let int name =
        match Option.bind (J.member name j) J.to_num with
        | Some v when Float.is_integer v -> int_of_float v
        | _ -> raise (Vstate.Malformed ("missing integer field " ^ name))
      in
      if str "format" <> "hfi-proof" then Error "not a proof artifact"
      else begin
        let invariants =
          match Option.bind (J.member "invariants" j) J.to_list with
          | None -> raise (Vstate.Malformed "missing invariants")
          | Some items ->
            List.map
              (fun item ->
                let blk =
                  match Option.bind (J.member "block" item) J.to_num with
                  | Some v when Float.is_integer v -> int_of_float v
                  | _ -> raise (Vstate.Malformed "invariant without block id")
                in
                let st =
                  match J.member "state" item with
                  | Some s -> Vstate.of_json s
                  | None -> raise (Vstate.Malformed "invariant without state")
                in
                (blk, st))
              items
        in
        Ok
          {
            proof_version = int "proof_version";
            verifier_version = int "verifier_version";
            target = str "target";
            strategy = str "strategy";
            fingerprint = str "fingerprint";
            code_base = int "code_base";
            blocks = int "blocks";
            instrs = int "instrs";
            invariants;
          }
      end
    with Vstate.Malformed m -> Error ("malformed proof artifact: " ^ m))
