(** Crash-safe filesystem primitives shared by the run store and every
    report writer (soak violation reports, [--json-out], bench
    reports).

    The durability contract is tmp + rename: content is written to a
    unique sibling temporary file and renamed over the destination, so
    a reader (or a process killed mid-write) observes either the old
    file or the complete new file — never a truncated one. *)

val ensure_dir : string -> unit
(** Create [dir] and any missing ancestors (like [mkdir -p]).
    Idempotent and race-tolerant: a concurrent creator is not an
    error. *)

val write_string : path:string -> string -> unit
(** Atomically replace [path] with the given bytes.  The parent
    directory is created if missing; the temporary sibling carries the
    writer's pid so concurrent writers never share it.  If writing,
    flushing or closing the temporary fails, its descriptor is closed,
    the file removed and the exception re-raised. *)

val write_json : path:string -> Jamming_telemetry.Json.t -> unit
(** Atomic variant of {!Jamming_telemetry.Json.write_file}: same
    pretty-printed rendering with a trailing newline, written via
    {!write_string}. *)

val read_string : path:string -> (string, string) result
(** Whole-file binary read; [Error] carries the system message. *)

val remove_tree : string -> unit
(** Recursively delete a file or directory; missing paths are
    ignored. *)
