(* Shared helpers: the nanosecond clock, order statistics, scratch
   directories and leaf-call timing. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Linear interpolation between closest ranks (numpy's default), on a
   non-empty array. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: empty sample";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor pos) in
  let frac = pos -. float_of_int i in
  if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let md5_hex s = Digest.to_hex (Digest.string s)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Every file the benchmark writes lives under this directory of the
   checkout it runs in (git-ignored). *)
let scratch_root = ".bench_tmp"

let fresh_dir =
  let counter = ref 0 in
  fun prefix ->
    incr counter;
    let dir =
      Filename.concat scratch_root
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)
    in
    rm_rf dir;
    mkdir_p dir;
    dir


(* Nanoseconds per call of [f], for leaf primitives with no closure to
   wrap: the median of five batches, each grown until it runs for at
   least 2 ms. *)
let ns_per_call f =
  let rec timed iters =
    let t0 = now_ns () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = now_ns () - t0 in
    if dt < 2_000_000 then timed (iters * 2) else float_of_int dt /. float_of_int iters
  in
  median (Array.init 5 (fun _ -> timed 64))

(* Quantiles of a stream of positive samples in constant memory: log
   bins 0.1% wide, so a quantile is off by at most 0.1%. *)
module Hist = struct
  let ratio = 1.001
  let log_ratio = Float.log ratio
  let lowest = 1e-4

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make 25_000 0; n = 0 }

  let add t x =
    let i = int_of_float (Float.log (Float.max x lowest /. lowest) /. log_ratio) in
    let i = min i (Array.length t.counts - 1) in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1

  let count t = t.n

  (* The geometric middle of the bin holding the q-th sample. *)
  let quantile t q =
    if t.n = 0 then invalid_arg "Hist.quantile: empty";
    let target = Float.max 1. (Float.ceil (q *. float_of_int t.n)) in
    let rec go i seen =
      let seen = seen + t.counts.(i) in
      if float_of_int seen >= target || i = Array.length t.counts - 1 then
        lowest *. (ratio ** (float_of_int i +. 0.5))
      else go (i + 1) seen
    in
    go 0 0
end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set size of this process, in MiB (VmHWM). *)
let max_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" -> Some l
          | Some _ -> find ()
        in
        find ())
  in
  match line with
  | None -> float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576.
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
