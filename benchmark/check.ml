(* Expected outputs: one object of named fields per op, recorded at the
   reference seed with [--write-reference]. *)

module Json = Hfi_util.Json

type reference = (string, (string * string) list) Hashtbl.t

let format_tag = "hfi-benchmark-reference-v1"

let load path : (reference, string) result =
  let fail fmt = Printf.ksprintf (fun m -> Error (path ^ ": " ^ m)) fmt in
  match Json.parse_file path with
  | Error e -> Error e
  | Ok doc when Json.str_member "format" doc <> Some format_tag -> fail "not a %s file" format_tag
  | Ok doc -> (
    match Json.member "ops" doc with
    | Some (Json.Obj ops) ->
      let table = Hashtbl.create (List.length ops) in
      let rec add = function
        | [] -> Ok table
        | (id, Json.Obj fields) :: rest ->
          let strings = List.filter_map (function k, Json.Str v -> Some (k, v) | _ -> None) fields in
          if List.length strings <> List.length fields then fail "op %s has a non-string field" id
          else begin
            Hashtbl.replace table id strings;
            add rest
          end
        | (id, _) :: _ -> fail "op %s is not an object" id
      in
      add ops
    | _ -> fail "no \"ops\" object")

(* Outputs must match exactly, except that a verifier verdict may move
   from unknown to safe: the verifier got stronger, and the oracles
   still refuse an unsafe verdict on compiler output. *)
let field_agrees name ~expected ~got =
  expected = got || (name = "verdict" && expected = "unknown" && got = "safe")

(* Differences between an op's output and its reference, one line
   each. An op reporting no fields (serve at another seed, or a failed
   experiment whose fault is already a violation) is not compared. *)
let mismatches (reference : reference) id (fields : (string * string) list) =
  if fields = [] then []
  else
    match Hashtbl.find_opt reference id with
    | None -> [ "no reference output" ]
    | Some expected ->
      let missing =
        List.filter_map
          (fun (k, _) -> if List.mem_assoc k fields then None else Some ("missing field " ^ k))
          expected
      in
      missing
      @ List.filter_map
          (fun (k, got) ->
            match List.assoc_opt k expected with
            | None -> Some ("unexpected field " ^ k)
            | Some e when field_agrees k ~expected:e ~got -> None
            | Some e -> Some (Printf.sprintf "%s: expected %S, got %S" k e got))
          fields

let write path ~seed (outputs : (string * (string * string) list) list) =
  let q = Probe.json_string in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"format\": %s,\n  \"seed\": %d,\n  \"ops\": {\n" (q format_tag) seed;
      List.iteri
        (fun i (id, fields) ->
          Printf.fprintf oc "%s    %s: {%s}" (if i = 0 then "" else ",\n") (q id)
            (String.concat ", " (List.map (fun (k, v) -> q k ^ ": " ^ q v) fields)))
        outputs;
      output_string oc "\n  }\n}\n")
