(* Regression test: [Atomic_io.write_string] must clean up when the
   final close fails.  A short record is only flushed by the close, so
   a full disk (ENOSPC) surfaces there; the write must re-raise, close
   the descriptor and remove its temporary file.

   The temporary is named <path>.tmp.<pid>.<n>, and the first write of
   a process uses n = 1, so this runs as its own executable and plants a
   symlink to /dev/full under that name before writing.  Needs /dev/full
   and /proc (Linux); elsewhere it reports a skip. *)

module Atomic_io = Jamming_store.Atomic_io

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let present path =
  match Unix.lstat path with _ -> true | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false

let () =
  if not (Sys.file_exists "/dev/full" && Sys.file_exists "/proc/self/fd") then
    print_endline "atomic_io_full: skipped (needs /dev/full and /proc)"
  else begin
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "atomic-io-full-%d" (Unix.getpid ()))
    in
    Unix.mkdir dir 0o700;
    let path = Filename.concat dir "record.json" in
    let tmp = Printf.sprintf "%s.tmp.%d.1" path (Unix.getpid ()) in
    Unix.symlink "/dev/full" tmp;
    let fds = open_fds () in
    let raised =
      match Atomic_io.write_string ~path "{\"short\":true}\n" with
      | () -> false
      | exception Sys_error _ -> true
    in
    let leaked_fds = open_fds () - fds and tmp_left = present tmp and dest = present path in
    if tmp_left then Sys.remove tmp;
    if dest then Sys.remove path;
    Unix.rmdir dir;
    let failures =
      List.filter_map
        (fun (bad, what) -> if bad then Some what else None)
        [
          (not raised, "the failed close was not reported");
          (leaked_fds <> 0, Printf.sprintf "%d file descriptor(s) leaked" leaked_fds);
          (tmp_left, "the temporary file was left behind");
          (dest, "the destination was created");
        ]
    in
    match failures with
    | [] -> print_endline "atomic_io_full: ok"
    | _ ->
        List.iter (fun f -> prerr_endline ("atomic_io_full: " ^ f)) failures;
        exit 1
  end
