let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> () (* lost a creation race *)
  end

(* Distinct temporaries per writer: pid (separate processes) plus a
   process-local counter (separate writes in one process). *)
let tmp_counter = ref 0

let write_string ~path content =
  ensure_dir (Filename.dirname path);
  incr tmp_counter;
  let tmp = Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) !tmp_counter in
  let oc = open_out_bin tmp in
  (* A short write is only flushed by [close_out], so a full disk shows
     up there: the close belongs inside the cleanup. *)
  (match
     output_string oc content;
     close_out oc
   with
  | () -> ()
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  match Sys.rename tmp path with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let write_json ~path v =
  (* Byte-compatible with Json.write_file: pretty form + newline. *)
  write_string ~path (Format.asprintf "%a@." Jamming_telemetry.Json.pp v)

let read_string ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
      match really_input_string ic (in_channel_length ic) with
      | s ->
          close_in_noerr ic;
          Ok s
      | exception e ->
          close_in_noerr ic;
          Error (Printexc.to_string e))

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
