(* The repository's one JSON codec: a minimal recursive-descent reader
   and the string combinators every writer renders with (bench --json,
   cache entries, proof artifacts, trace exports, serve --json). No
   external dependency (yojson is not vendored), no streaming: documents
   here are at most a few MiB.

   Numbers are all represented as OCaml floats — every number this
   repository emits is either a float already or an int small enough to
   round-trip exactly through a double. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---- writer ---- *)

(* Short escapes for the common control characters, [\u00XX] for the
   rest; bytes >= 0x20 other than the quote and backslash pass through. *)
let escape s =
  if not (String.exists (fun c -> c < ' ' || c = '"' || c = '\\') s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when c < ' ' -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let str s = "\"" ^ escape s ^ "\""
let num f = Printf.sprintf "%.6g" f

let num_exact f = Printf.sprintf "%.17g" f

let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"
let arr items = "[" ^ String.concat "," items ^ "]"

(* ---- reader ---- *)

type state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos >= String.length st.src then '\x00' else st.src.[st.pos]

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  if peek st <> c then error st (Printf.sprintf "expected %C" c) else advance st

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else error st ("expected " ^ word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | '\x00' -> error st "unterminated string"
    | '"' -> advance st
    | '\\' ->
      advance st;
      (match peek st with
      | '"' -> Buffer.add_char b '"'; advance st
      | '\\' -> Buffer.add_char b '\\'; advance st
      | '/' -> Buffer.add_char b '/'; advance st
      | 'b' -> Buffer.add_char b '\b'; advance st
      | 'f' -> Buffer.add_char b '\012'; advance st
      | 'n' -> Buffer.add_char b '\n'; advance st
      | 'r' -> Buffer.add_char b '\r'; advance st
      | 't' -> Buffer.add_char b '\t'; advance st
      | 'u' ->
        advance st;
        if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
        let hex = String.sub st.src st.pos 4 in
        st.pos <- st.pos + 4;
        let code =
          match int_of_string_opt ("0x" ^ hex) with
          | Some c -> c
          | None -> error st "bad \\u escape"
        in
        (* Good enough for the control characters and Latin-1 this
           repository's writers emit; anything wider is kept as '?'. *)
        if code <= 0xff then Buffer.add_char b (Char.chr code) else Buffer.add_char b '?'
      | _ -> error st "bad escape");
      go ()
    | c ->
      Buffer.add_char b c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  do
    advance st
  done;
  if st.pos = start then error st "expected number";
  match float_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some f -> f
  | None -> error st "malformed number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | '{' ->
    advance st;
    skip_ws st;
    if peek st = '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | ',' ->
          advance st;
          members ((k, v) :: acc)
        | '}' ->
          advance st;
          List.rev ((k, v) :: acc)
        | _ -> error st "expected ',' or '}'"
      in
      Obj (members [])
    end
  | '[' ->
    advance st;
    skip_ws st;
    if peek st = ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | ',' ->
          advance st;
          items (v :: acc)
        | ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> error st "expected ',' or ']'"
      in
      Arr (items [])
    end
  | '"' -> Str (parse_string st)
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | 'n' -> literal st "null" Null
  | _ -> Num (parse_number st)

let parse src =
  let st = { src; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length src then Error "trailing garbage after document"
    else Ok v
  | exception Parse_error msg -> Error msg

let parse_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> Error e
  | raw -> parse raw

(* ---- accessors ---- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_list = function Arr items -> Some items | _ -> None

let to_num = function Num f -> Some f | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let num_member key v = Option.bind (member key v) to_num

let str_member key v = Option.bind (member key v) to_str
