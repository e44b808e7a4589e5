(** The one on-disk store under both persistent caches (experiment
    results, verification verdicts) and every file the CLI writes.

    A cache is a directory of [<key>.json] entries. Keys are digests of
    everything the entry is a function of, so a change to any input
    makes old entries unreachable rather than stale; nothing is ever
    deleted. Entries are written atomically; the caches treat a corrupt
    or unreadable entry as a miss and ignore a failed write. *)

val dir_of_env : var:string -> default:string -> string option
(** The opt-in rule every cache shares: [var] unset, empty or ["0"]
    disables ([None]); ["1"] selects [default]; any other value is the
    directory itself. *)

val key : string list -> string
(** Hex digest of the parts, joined by NUL bytes. *)

val path : dir:string -> string -> string
(** [dir/<key>.json]. *)

val write : string -> string -> (unit, string) result
(** [write file contents] creates missing parent directories, writes a
    temporary sibling and renames it over [file], so readers never see a
    partial file and no temporary is left behind. A [file] that exists
    and is not a regular file (a FIFO, [/dev/stdout]) is written in
    place. [Error] carries one line naming [file]. *)

val exe_digest : ?dir:string -> unit -> string
(** Hex digest of the running executable: it stands in for all the
    compiled-in simulator, workload and experiment code. Computed at
    most once per process and safe to call from any domain. With [dir],
    a size+mtime stamp stored in [dir] lets later processes skip the
    hash. *)
