(* The one on-disk store: both persistent caches and every file the CLI
   writes go through it. Caches own only their key and entry layout. *)

let dir_of_env ~var ~default =
  match Sys.getenv_opt var with
  | None | Some "" | Some "0" -> None
  | Some "1" -> Some default
  | Some d -> Some d

let key parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let path ~dir key = Filename.concat dir (key ^ ".json")

(* A concurrent creator may win the race for a directory; anything else
   (a parent that is a regular file, no permission) propagates. *)
let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let write file contents =
  let tmp = Printf.sprintf "%s.%d.%d.tmp" file (Unix.getpid ()) (Domain.self () :> int) in
  let output f = Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc contents) in
  try
    mkdir_p (Filename.dirname file);
    (* A FIFO or /dev/stdout cannot be replaced by a rename. *)
    if Sys.file_exists file && not (Sys.is_regular_file file) then output file
    else begin
      output tmp;
      Sys.rename tmp file
    end;
    Ok ()
  with Sys_error e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    (* [e] reads "<path>: <reason>", and the path may be the temporary. *)
    let reason =
      match String.rindex_opt e ':' with
      | Some i -> String.trim (String.sub e (i + 1) (String.length e - i - 1))
      | None -> e
    in
    Error (Printf.sprintf "cannot write %s: %s" file reason)

(* The digest is computed under a lock rather than behind a [Lazy.t]:
   two domains forcing one lazy value at once raise
   [CamlinternalLazy.Undefined]. Hashing a multi-megabyte executable
   costs more than reading every cache entry, so with [dir] it is also
   memoized in [dir] behind a (size, mtime) stamp of the executable; any
   rebuild invalidates the stamp. The digest, not the stamp, is what
   enters keys, so stores stay content-addressed. *)
let digest_lock = Mutex.create ()
let hashed = ref None
let stamped : (string, string) Hashtbl.t = Hashtbl.create 4

let hash_exe () =
  match !hashed with
  | Some d -> d
  | None ->
    let d =
      try Digest.to_hex (Digest.file Sys.executable_name) with Sys_error _ -> "unknown-executable"
    in
    hashed := Some d;
    d

let stamp_digest dir =
  match Unix.stat Sys.executable_name with
  | exception Unix.Unix_error _ -> hash_exe ()
  | st -> (
    let stamp = Filename.concat dir "exe.stamp" in
    let want = Printf.sprintf "%d %.6f" st.Unix.st_size st.Unix.st_mtime in
    let stored = try In_channel.with_open_bin stamp In_channel.input_all with Sys_error _ -> "" in
    match String.split_on_char '\n' stored with
    | s :: d :: _ when s = want && String.length d = 32 -> d
    | _ ->
      let d = hash_exe () in
      ignore (write stamp (Printf.sprintf "%s\n%s\n" want d));
      d)

let exe_digest ?dir () =
  Mutex.protect digest_lock (fun () ->
      match dir with
      | None -> hash_exe ()
      | Some dir -> (
        match Hashtbl.find_opt stamped dir with
        | Some d -> d
        | None ->
          let d = stamp_digest dir in
          Hashtbl.replace stamped dir d;
          d))
