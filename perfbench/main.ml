(* The repository benchmark: election throughput and latency on three
   workloads, and a traced per-layer cost model.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--reference FILE]

   Run from the root of a checkout (perfbench/run.py builds and calls
   it).  The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.
   Digests go to standard error.  See perfbench/README.md. *)

module R = Jamming_experiments.Runner
module E = Jamming_experiments
module W = Workloads
module Json = Jamming_telemetry.Json
module Telemetry = Jamming_telemetry.Telemetry
module Store = Jamming_store.Store
module Key = Jamming_store.Key
module Metrics = Jamming_sim.Metrics

let process_start = Util.now_ns ()
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- command line --- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  reference : string;
}

let parse_args () =
  let workload = ref "" and seed = ref W.default_seed and seconds = ref 10. in
  let trace = ref 0 and reference = ref (Filename.concat "perfbench" "reference.json") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " W.names);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end run or traced per-layer run");
      ("--reference", Arg.Set_string reference, "FILE  committed reference digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload W.names) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " W.names);
    exit 2
  end;
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; reference = !reference }

(* --- outcome bookkeeping --- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let check what ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    log "perfbench: FAILED %s" what
  end

let metric name unit_ value = (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])

let emit metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (tally.failed = 0));
            ("attempted", Json.Int tally.attempted);
            ("failed", Json.Int tally.failed);
            ("metrics", Json.Obj metrics);
          ]))

(* --- reference digests --- *)

let digest_check opts ~seed ~what digest =
  log "digest %s %d %s" opts.workload seed digest;
  match W.reference_digest (W.load_reference opts.reference) ~workload:opts.workload ~seed with
  | Some expected -> check (what ^ " matches the reference digest") (String.equal expected digest)
  | None -> ()

let has_reference opts ~seed =
  Option.is_some (W.reference_digest (W.load_reference opts.reference) ~workload:opts.workload ~seed)

(* --- run stores --- *)

(* A fixed fingerprint, so records (and their digests) do not depend on
   the binary's own bytes. *)
let open_store root = Store.create ~fingerprint:"perfbench" ~root ()

let store_records root =
  let entries = ref [] in
  Jamming_store.Layout.iter_entries ~root (fun ~fingerprint:_ ~path -> entries := path :: !entries);
  List.sort String.compare !entries
  |> List.filter_map (fun path ->
         match Json.of_string (Util.read_file path) with
         | Error _ -> None
         | Ok record -> (
             match (Json.member "key" record, Json.member "value" record) with
             | Some (Json.Obj fields), Some value ->
                 let comp = function
                   | Json.String s -> Key.S s
                   | Json.Int i -> Key.I i
                   | Json.Float f -> Key.F f
                   | Json.Bool b -> Key.B b
                   | _ -> failwith "perfbench: unexpected key component"
                 in
                 Some (Key.v (List.map (fun (k, v) -> (k, comp v)) fields), value)
             | _ -> None))

(* Store, key and JSON costs re-timed on the run's own keys and values. *)
let store_layer_metrics ~root ~records =
  let st = open_store root in
  let keys = Array.of_list (List.map fst records) in
  let values = Array.of_list (List.map snd records) in
  let n = Array.length keys in
  let i = ref 0 in
  let next () =
    let k = !i mod n in
    incr i;
    k
  in
  let find_ns =
    Util.ns_per_call (fun () ->
        let k = next () in
        match Store.find st keys.(k) ~decode:(fun j -> Some j) with
        | Some _ -> ()
        | None -> failwith "perfbench: re-timed store lookup missed")
  in
  let scratch = open_store (Util.fresh_dir "store-add") in
  let add_ns =
    Util.ns_per_call (fun () ->
        let k = next () in
        Store.add scratch keys.(k) values.(k))
  in
  Util.rm_rf (Store.root scratch);
  let texts = Array.map Json.to_string values in
  let bytes = float_of_int (Array.fold_left (fun a s -> a + String.length s) 0 texts) in
  let per_byte f = Util.ns_per_call (fun () -> for k = 0 to n - 1 do f k done) /. bytes in
  let encode = per_byte (fun k -> ignore (Sys.opaque_identity (Json.to_string values.(k)))) in
  let decode = per_byte (fun k -> ignore (Sys.opaque_identity (Json.of_string texts.(k)))) in
  let disk = Store.disk_stats st in
  ( find_ns,
    add_ns,
    [
      metric "store.find_hit_us" "us" (find_ns /. 1e3);
      metric "store.add_us" "us" (add_ns /. 1e3);
      metric "store.bytes_per_entry" "bytes"
        (float_of_int disk.Store.bytes /. float_of_int (max 1 disk.Store.entries));
      metric "telemetry.json_encode_ns_per_byte" "ns/byte" encode;
      metric "telemetry.json_decode_ns_per_byte" "ns/byte" decode;
    ] )

(* --- closed-loop workloads --- *)

let outcome_sample = function R.Sample s -> s | R.Churned _ -> failwith "perfbench: unexpected churn outcome"

let block_digest samples = W.combine (List.map W.sample_digest samples)

(* The reference block through [Runner.run_cells], as a cached table. *)
let table_pass ?telemetry ?store ~jobs cells ~block_rounds =
  let table = List.map (W.table_cell ~block_rounds) cells in
  R.run_cells ?telemetry ?store (R.Pool.create ~jobs ()) table |> List.map outcome_sample

let closed_setup cells =
  let dir = Util.fresh_dir "setup" in
  ignore (open_store dir);
  List.iter (fun c -> ignore (W.run_election c.W.cell ~rep:0)) cells;
  Util.rm_rf dir

type loop = {
  elections : int;
  elections_per_s : float;
  p50_ms : float;
  p90_ms : float;
  block : Metrics.result array list;  (** per cell: its reference-block results *)
}

type window = {
  n : int;  (** elections *)
  scaled_sum_ms : float;
  sample : float array;  (** a uniform sample of the window's scaled walls *)
}

let rate w = 1e3 *. float_of_int w.n /. w.scaled_sum_ms

(* Each window keeps a uniform sample of at most this many scaled walls
   (reservoir sampling), so the harness's memory does not grow with the
   election rate. *)
let window_sample = 1024

(* The fastest tenth of the windows, by rate (at least one). *)
let fastest_tenth windows =
  let by_rate = List.sort (fun a b -> Float.compare (rate b) (rate a)) windows in
  List.filteri (fun i _ -> i < (List.length windows + 9) / 10) by_rate

(* One client: each election starts when the previous one ends.

   Every election's wall is scaled to its cell's stated length,
   [mean_slots / slots], so the figures measure the code's speed, not
   the seed's draw of long or short elections (a run holds only tens of
   closure LESK elections).  The loop is cut into windows of whole
   rounds, each at least ten rounds and a quarter of a second long, so
   every window holds the cells in their round weights.  The host's
   speed switches between states that last seconds to minutes, and
   other tenants only ever add time, so the figures come from the
   fastest tenth of the windows: their pooled elections per second of
   scaled wall, and the p50 and p90 of their pooled scaled walls.

   [between_windows] runs after each window, outside it. *)
let closed_loop cells ~block_rounds ~budget_s ~between_windows =
  let per_cell = List.map (fun _ -> Util.Hist.create ()) cells in
  let windows = ref [] and sample = Array.make window_sample 0. in
  let seen = ref 0 and scaled_sum = ref 0. and reservoir = Random.State.make [| 1 |] in
  let add std_ms =
    if !seen < window_sample then sample.(!seen) <- std_ms
    else begin
      let j = Random.State.int reservoir (!seen + 1) in
      if j < window_sample then sample.(j) <- std_ms
    end;
    incr seen;
    scaled_sum := !scaled_sum +. std_ms
  in
  let window_start = ref (Util.now_ns ()) in
  let close_window () =
    windows :=
      { n = !seen; scaled_sum_ms = !scaled_sum; sample = Array.sub sample 0 (min !seen window_sample) }
      :: !windows;
    seen := 0;
    scaled_sum := 0.
  in
  let block = List.map (fun c -> Array.make (W.block_reps c ~block_rounds) None) cells in
  let t0 = Util.now_ns () in
  let round = ref 0 and elections = ref 0 and window_rounds = ref 0 in
  while !round < block_rounds || Util.seconds_since t0 < budget_s do
    List.iter2
      (fun (c, slots) cell_lat ->
        for k = 0 to c.W.weight - 1 do
          let rep = (!round * c.W.weight) + k in
          let e0 = Util.now_ns () in
          let r = W.run_election c.W.cell ~rep in
          let e1 = Util.now_ns () in
          let ms = float_of_int (e1 - e0) *. 1e-6 in
          let std_ms = ms *. c.W.mean_slots /. float_of_int (max 1 r.Metrics.slots) in
          Util.Hist.add cell_lat std_ms;
          add std_ms;
          incr elections;
          if not (Metrics.election_ok r) then check (Printf.sprintf "%s rep %d elects" c.W.label rep) false;
          if rep < Array.length slots then slots.(rep) <- Some r
        done)
      (List.combine cells block) per_cell;
    incr round;
    incr window_rounds;
    if !window_rounds >= 10 && Util.seconds_since !window_start >= 0.25 then begin
      close_window ();
      window_rounds := 0;
      between_windows ();
      window_start := Util.now_ns ()
    end
  done;
  if !windows = [] then close_window ();
  List.iter2
    (fun c h ->
      log "cell %s: %d elections, scaled median %.4f ms, p90 %.4f ms" c.W.label (Util.Hist.count h)
        (Util.Hist.quantile h 0.5) (Util.Hist.quantile h 0.9))
    cells per_cell;
  let rates = Array.of_list (List.map rate !windows) in
  log "windows: %d, rates (1/s) min %.1f median %.1f max %.1f" (Array.length rates)
    (Util.quantile rates 0.) (Util.median rates) (Util.quantile rates 1.);
  let fast = fastest_tenth !windows in
  let pooled = Array.concat (List.map (fun w -> w.sample) fast) in
  let total f = List.fold_left (fun a w -> a +. f w) 0. fast in
  {
    elections = !elections;
    elections_per_s = 1e3 *. total (fun w -> float_of_int w.n) /. total (fun w -> w.scaled_sum_ms);
    p50_ms = Util.quantile pooled 0.5;
    p90_ms = Util.quantile pooled 0.9;
    block = List.map (Array.map Option.get) block;
  }

let end_to_end_metrics ~elections_per_s ~p50_ms ~p90_ms ~cold_s ~warm_s ~setup_s =
  [
    metric "elections_per_s" "1/s" elections_per_s;
    metric "election_p50_ms" "ms" p50_ms;
    metric "election_p90_ms" "ms" p90_ms;
    metric "sweep_cold_s" "s" cold_s;
    metric "sweep_warm_s" "s" warm_s;
    metric "setup_s" "s" setup_s;
  ]

let sweep_setup () =
  (* Store and pool defaults, plus one warm-up election per engine kind
     the sweep uses (uniform and aggregate). *)
  let root = Util.fresh_dir "setup" in
  ignore (open_store root);
  List.iter
    (fun c -> ignore (W.run_election c.W.cell ~rep:0))
    (List.filter (fun c -> not (W.is_per_station c)) (W.population_cells ~seed:W.default_seed));
  Util.rm_rf root

(* Set-up: inputs from the seed, a scratch store, and one untimed
   warm-up election per cell type.  Warm-ups replay the default seed's
   first election, so set-up work does not depend on the seed's draw.

   It runs in bursts, each repeated at least five times and for at least
   0.1 s (at most 201 times) and giving its median: one burst before the
   first timed operation, whose first repeat counts from process start,
   and one every [setup_every_s] seconds of the run, outside the timed
   windows and passes.  A burst lasts a moment, and the host's speed
   changes over seconds, so [setup_s] is the fastest burst's median. *)
let setup_every_s = 4.

let setup_medians = ref []
let last_setup = ref 0

let setup_burst opts ~from_start =
  let times = ref [] and w = ref (W.make opts.workload ~seed:opts.seed) in
  let t_all = Util.now_ns () in
  while List.length !times < 5 || (Util.seconds_since t_all < 0.1 && List.length !times < 201) do
    let t0 = if from_start && !times = [] then process_start else Util.now_ns () in
    w := W.make opts.workload ~seed:opts.seed;
    (match (W.make opts.workload ~seed:W.default_seed).W.kind with
    | W.Closed_loop { cells; _ } -> closed_setup cells
    | W.Sweep _ -> sweep_setup ());
    times := Util.seconds_since t0 :: !times
  done;
  let times = Array.of_list !times in
  log "setup burst: %d repeats, min %.6f s, median %.6f s, max %.6f s" (Array.length times)
    (Util.quantile times 0.) (Util.median times) (Util.quantile times 1.);
  setup_medians := Util.median times :: !setup_medians;
  last_setup := Util.now_ns ();
  !w

let resetup opts =
  if Util.seconds_since !last_setup >= setup_every_s then ignore (setup_burst opts ~from_start:false)

let setup_s () = List.fold_left min infinity !setup_medians

(* The loop, with the workload's reference table (its block at the
   default seed) regenerated between windows, cold (compute + persist)
   then warm (hit + decode) against a fresh store at jobs = 1, for about
   a quarter of the run: interleaved, the table passes see the same
   host states as the loop.  The first cold pass is checked against the
   committed digest, every warm pass against its cold pass. *)
let closed_end_to_end opts cells ~block_rounds =
  let table_cells =
    match (W.make opts.workload ~seed:W.default_seed).W.kind with
    | W.Closed_loop { cells; _ } -> cells
    | W.Sweep _ -> assert false
  in
  let colds = ref [] and warms = ref [] and table_s = ref 0. in
  let table_pair () =
    let p0 = Util.now_ns () in
    let root = Util.fresh_dir "table" in
    let c0 = Util.now_ns () in
    let cold = table_pass ~store:(open_store root) ~jobs:1 table_cells ~block_rounds in
    colds := Util.seconds_since c0 :: !colds;
    let warm_store = open_store root in
    let w0 = Util.now_ns () in
    let warm = table_pass ~store:warm_store ~jobs:1 table_cells ~block_rounds in
    warms := Util.seconds_since w0 :: !warms;
    let stats = Store.io_stats warm_store in
    check "warm table pass is all hits"
      (stats.Store.misses = 0 && stats.Store.hits = List.length table_cells);
    let cold_digest = block_digest cold in
    check "warm table equals cold table" (String.equal cold_digest (block_digest warm));
    if List.length !colds = 1 then
      digest_check opts ~seed:W.default_seed ~what:"reference table" cold_digest;
    Util.rm_rf root;
    table_s := !table_s +. Util.seconds_since p0
  in
  let t0 = Util.now_ns () in
  let between_windows () =
    resetup opts;
    while !table_s < 0.25 *. Util.seconds_since t0 do
      table_pair ()
    done
  in
  let loop = closed_loop cells ~block_rounds ~budget_s:opts.seconds ~between_windows in
  while List.length !colds < 2 do
    table_pair ()
  done;
  let loop_digest =
    block_digest (List.map2 (fun c res -> W.sample_of c.W.cell res) cells loop.block)
  in
  if has_reference opts ~seed:opts.seed then
    digest_check opts ~seed:opts.seed ~what:"closed-loop reference block" loop_digest
  else begin
    log "digest %s %d %s" opts.workload opts.seed loop_digest;
    check "closed-loop block equals its recomputation through run_cells"
      (String.equal loop_digest (block_digest (table_pass ~jobs:1 cells ~block_rounds)))
  end;
  tally.attempted <- tally.attempted + loop.elections;
  end_to_end_metrics ~elections_per_s:loop.elections_per_s ~p50_ms:loop.p50_ms ~p90_ms:loop.p90_ms
    ~cold_s:(List.fold_left min infinity !colds)
    ~warm_s:(List.fold_left min infinity !warms)
    ~setup_s:(setup_s ())

(* --- the sweep workload --- *)

type pass = {
  wall_s : float;
  text : string;  (** rendered tables *)
  elections : int;
  per_experiment : (float * int) list;  (** wall and engine runs of each experiment, in order *)
  compute_s : float;  (** runner.wall *)
  io : Store.io_stats;
}

let sweep_pass ~store ~jobs ~seed experiments =
  R.default_jobs := jobs;
  R.default_base_seed := seed;
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  let out = E.Output.to_formatter ppf in
  let tel = Telemetry.create () in
  let t0 = Util.now_ns () in
  let per_experiment =
    R.with_store store (fun () ->
        List.map
          (fun e ->
            let r0 = Jamming_sim.Gauges.runs_completed () and e0 = Util.now_ns () in
            E.Experiments.run_one ~telemetry:tel ~scale:E.Registry.Quick out e;
            (Util.seconds_since e0, Jamming_sim.Gauges.runs_completed () - r0))
          experiments)
  in
  Format.pp_print_flush ppf ();
  let wall_s = Util.seconds_since t0 in
  {
    wall_s;
    text = Buffer.contents buf;
    elections = List.fold_left (fun a (_, runs) -> a + runs) 0 per_experiment;
    per_experiment;
    compute_s = Telemetry.timer_seconds tel "runner.wall";
    io = Store.io_stats store;
  }

let sweep_digest ~root text =
  W.combine (Util.md5_hex text :: List.map (fun (_, v) -> Util.md5_hex (Json.to_string v)) (store_records root))

(* One cold and one warm pass on a fresh store; checks the warm pass is
   all hits and byte-identical.  Returns both passes and the digest. *)
let sweep_pair ~jobs ~seed experiments =
  let root = Util.fresh_dir "sweep" in
  let cold = sweep_pass ~store:(open_store root) ~jobs ~seed experiments in
  let warm = sweep_pass ~store:(open_store root) ~jobs ~seed experiments in
  check "warm sweep is all hits" (warm.io.Store.misses = 0 && warm.io.Store.hits > 0);
  check "warm sweep renders the cold sweep byte for byte" (String.equal cold.text warm.text);
  (root, cold, warm, sweep_digest ~root cold.text)

(* Each pass is measured whole: throughput is the upper decile of the
   cold passes' rates.  Latency is per experiment: its wall over the
   engine runs it made, in its fastest cold pass; p50 and p90 are taken
   over the experiments. *)
let sweep_end_to_end opts experiments ~jobs =
  let colds = ref [] and warms = ref [] and rates = ref [] in
  let per = Array.make (List.length experiments) infinity in
  let t0 = Util.now_ns () in
  while List.length !colds < 3 || Util.seconds_since t0 < opts.seconds do
    let root, cold, warm, digest = sweep_pair ~jobs ~seed:opts.seed experiments in
    Util.rm_rf root;
    log "sweep pass: cold %.4f s (runner.wall %.4f s), warm %.4f s" cold.wall_s cold.compute_s warm.wall_s;
    colds := cold.wall_s :: !colds;
    warms := warm.wall_s :: !warms;
    rates := (float_of_int cold.elections /. cold.wall_s) :: !rates;
    List.iteri
      (fun i (wall_s, runs) -> per.(i) <- Float.min per.(i) (1e3 *. wall_s /. float_of_int (max 1 runs)))
      cold.per_experiment;
    tally.attempted <- tally.attempted + cold.elections;
    if List.length !colds = 1 then digest_check opts ~seed:opts.seed ~what:"sweep tables and records" digest;
    resetup opts
  done;
  if not (has_reference opts ~seed:opts.seed) then begin
    let root, _, _, digest = sweep_pair ~jobs ~seed:W.default_seed experiments in
    Util.rm_rf root;
    digest_check opts ~seed:W.default_seed ~what:"default-seed canary sweep" digest
  end;
  log "ms per engine run, fastest pass: %s"
    (String.concat " " (List.map2 (fun e ms -> Printf.sprintf "%s %.4f" e.E.Registry.id ms) experiments (Array.to_list per)));
  end_to_end_metrics ~elections_per_s:(Util.quantile (Array.of_list !rates) 0.9)
    ~p50_ms:(Util.quantile per 0.5) ~p90_ms:(Util.quantile per 0.9)
    ~cold_s:(List.fold_left min infinity !colds)
    ~warm_s:(List.fold_left min infinity !warms)
    ~setup_s:(setup_s ())

(* --- the traced run --- *)

type acc = {
  c : W.cell;
  own : bool;
  tracer : Tracer.t;
  mutable slots : int;
  mutable station_slots : float;
  mutable plain_ns : float;
  mutable traced_ns : float;
  mutable metered_ns : float;
  mutable unmetered_ns : float;
  mutable observer_base_ns : float;
  mutable observed_ns : float;  (** the same election with one no-op observer *)
  mutable words : float;
  mutable majors : int;
  mutable plain : Metrics.result list;
  mutable traced : Metrics.result list;
}

let sample_log2 = 4

let timed_ns f =
  let t0 = Util.now_ns () in
  let r = f () in
  (r, float_of_int (Util.now_ns () - t0))

let trace_cell a ~rep =
  let cell = a.c.W.cell in
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let plain, plain_ns = timed_ns (fun () -> W.run_election cell ~rep) in
  a.words <- a.words +. (Gc.minor_words () -. w0);
  a.majors <- a.majors + ((Gc.quick_stat ()).Gc.major_collections - m0);
  let wrapped = Tracer.cell a.tracer cell in
  let traced, traced_ns =
    timed_ns (fun () -> Tracer.run_election a.tracer (fun () -> W.run_election wrapped ~rep))
  in
  let flipped, flipped_ns = timed_ns (fun () -> W.run_election cell ~rep ~energy_override:(not cell.energy)) in
  let metered = if cell.energy then plain else flipped in
  (* One no-op observer against none, on the per-slot engines: the
     faster of three runs each, since the difference is a few percent. *)
  if not (W.is_per_station a.c) then begin
    let fastest f = List.fold_left min infinity (List.init 3 (fun _ -> snd (timed_ns f))) in
    let noop = [ Jamming_sim.Observer.make ~name:"no-op" () ] in
    a.observer_base_ns <- a.observer_base_ns +. fastest (fun () -> W.run_election cell ~rep);
    a.observed_ns <- a.observed_ns +. fastest (fun () -> W.run_election cell ~rep ~observers:noop)
  end;
  a.slots <- a.slots + plain.Metrics.slots;
  (match metered.Metrics.energy with
  | Some e when W.is_per_station a.c -> a.station_slots <- a.station_slots +. e.Jamming_energy.Energy.awake_total
  | _ -> ());
  a.plain_ns <- a.plain_ns +. plain_ns;
  a.traced_ns <- a.traced_ns +. traced_ns;
  if cell.energy then begin
    a.metered_ns <- a.metered_ns +. plain_ns;
    a.unmetered_ns <- a.unmetered_ns +. flipped_ns
  end
  else begin
    a.metered_ns <- a.metered_ns +. flipped_ns;
    a.unmetered_ns <- a.unmetered_ns +. plain_ns
  end;
  a.plain <- plain :: a.plain;
  a.traced <- traced :: a.traced

let engine_kind a =
  match a.c.W.cell.R.Cell.engine with
  | R.Pooled _ -> `Pool
  | R.Exact _ | R.Faulty _ -> `Closure
  | R.Aggregate _ | R.Uniform _ -> `Protocol

(* The workload's own cells that satisfy [pred], or the probe cells that
   do when none of its own does. *)
let pick accs pred =
  match List.filter (fun a -> a.own && pred a) accs with
  | [] -> List.filter (fun a -> (not a.own) && pred a) accs
  | own -> own

let sum_by accs f = List.fold_left (fun s a -> s +. f a) 0. accs
let layer a i = Tracer.layer a.tracer i
let sampled_slots a = float_of_int (max 1 (layer a Tracer.slot).Tracer.timed)

(* A layer's self time over the whole run, extrapolated from the
   sampled slots. *)
let extrapolated a i = Tracer.estimated_ns (layer a i) *. float_of_int a.slots /. sampled_slots a

let ratio num den = if den > 0. then num /. den else 0.

let election_layer_metrics accs =
  let pool = pick accs (fun a -> engine_kind a = `Pool) in
  let closure = pick accs (fun a -> engine_kind a = `Closure) in
  let proto = pick accs (fun a -> engine_kind a = `Protocol) in
  let per_station = pick accs (fun a -> W.is_per_station a.c) in
  let own = pick accs (fun _ -> true) in
  let station_slots accs = sum_by accs (fun a -> a.station_slots) in
  let slots accs = sum_by accs (fun a -> float_of_int a.slots) in
  let per_station_layer accs layers =
    ratio (sum_by accs (fun a -> List.fold_left (fun s i -> s +. extrapolated a i) 0. layers)) (station_slots accs)
  in
  let per_call accs i =
    ratio (sum_by accs (fun a -> (layer a i).Tracer.self_ns)) (sum_by accs (fun a -> float_of_int (layer a i).Tracer.timed))
  in
  let per_sampled_slot accs layers =
    ratio
      (sum_by accs (fun a -> List.fold_left (fun s i -> s +. Tracer.estimated_ns (layer a i)) 0. layers))
      (sum_by accs sampled_slots)
  in
  (* The sum of every layer's self time, extrapolated to all slots. *)
  let layers_ns a =
    let s = ref 0. in
    for i = 0 to Array.length Tracer.layer_specs - 1 do
      if i <> Tracer.election then s := !s +. extrapolated a i
    done;
    !s
  in
  [
    metric "station.pool_decide_ns_per_station" "ns" (per_station_layer pool [ Tracer.pool_begin; Tracer.pool_decide ]);
    metric "station.pool_observe_ns_per_station" "ns" (per_station_layer pool [ Tracer.pool_observe ]);
    metric "station.closure_decide_ns" "ns" (per_call closure Tracer.closure_decide);
    metric "station.closure_observe_ns" "ns" (per_call closure Tracer.closure_observe);
    metric "station.uniform_step_ns" "ns" (per_sampled_slot proto [ Tracer.protocol_tx_prob; Tracer.protocol_step ]);
    metric "adversary.self_ns_per_slot" "ns" (per_sampled_slot own [ Tracer.adversary_l ]);
    metric "sim.engine_self_ns_per_station_slot" "ns" (per_station_layer per_station [ Tracer.slot ]);
    metric "sim.engine_self_ns_per_slot" "ns" (per_sampled_slot proto [ Tracer.slot ]);
    metric "sim.observer_ns_per_slot" "ns"
      (ratio (sum_by proto (fun a -> a.observed_ns -. a.observer_base_ns)) (slots proto));
    metric "sim.alloc_words_per_station_slot" "words"
      (ratio (sum_by per_station (fun a -> a.words)) (station_slots per_station));
    metric "sim.alloc_words_per_slot" "words" (ratio (sum_by proto (fun a -> a.words)) (slots proto));
    metric "energy.meter_ratio" "ratio"
      (ratio (sum_by own (fun a -> a.metered_ns)) (sum_by own (fun a -> a.unmetered_ns)));
    metric "trace.overhead_ratio" "ratio"
      (ratio (sum_by own (fun a -> a.traced_ns)) (sum_by own (fun a -> a.plain_ns)));
    metric "trace.coverage_ratio" "ratio"
      (ratio (sum_by own layers_ns) (sum_by own (fun a -> a.plain_ns)));
  ]

(* Leaf arguments from the workload's own cells: the largest station
   and population sizes it runs (defaults for the sweep). *)
let leaf_args cells =
  let max_n pred default =
    List.fold_left (fun m c -> if pred c then max m c.W.cell.R.Cell.setup.R.n else m) default cells
  in
  {
    Leaf.station_n = max_n W.is_per_station 1024;
    population_n = max_n (fun c -> not (W.is_per_station c)) 1_000_000_000;
  }

let trace_run opts =
  let w = W.make opts.workload ~seed:opts.seed in
  let own_cells, block_rounds =
    match w.W.kind with W.Closed_loop { cells; block_rounds } -> (cells, block_rounds) | W.Sweep _ -> ([], 0)
  in
  let probes =
    List.filter
      (fun p -> not (List.exists (fun c -> c.W.label = p.W.label) own_cells))
      (W.probe_cells ~seed:opts.seed)
  in
  let new_acc own c =
    {
      c;
      own;
      tracer = Tracer.create ~sample_log2;
      slots = 0;
      station_slots = 0.;
      plain_ns = 0.;
      traced_ns = 0.;
      metered_ns = 0.;
      unmetered_ns = 0.;
      observer_base_ns = 0.;
      observed_ns = 0.;
      words = 0.;
      majors = 0;
      plain = [];
      traced = [];
    }
  in
  let accs = List.map (new_acc true) own_cells @ List.map (new_acc false) probes in
  (* Untimed warm-up, as in the end-to-end run. *)
  List.iter (fun a -> ignore (W.run_election a.c.W.cell ~rep:0)) accs;
  List.iter
    (fun a ->
      let reps =
        if a.own then W.block_reps a.c ~block_rounds else if W.is_per_station a.c then 1 else 16
      in
      for rep = 0 to reps - 1 do
        trace_cell a ~rep
      done)
    accs;
  (* Passivity: traced elections equal untraced ones, cell by cell. *)
  let digest a rs = W.sample_digest (W.sample_of a.c.W.cell (Array.of_list (List.rev rs))) in
  List.iter
    (fun a -> check (a.c.W.label ^ ": traced digest equals untraced") (String.equal (digest a a.plain) (digest a a.traced)))
    accs;
  if own_cells <> [] then
    digest_check opts ~seed:opts.seed ~what:"traced reference block"
      (W.combine (List.filter_map (fun a -> if a.own then Some (digest a a.traced) else None) accs));
  let tracer_file = Filename.concat Util.scratch_root (Printf.sprintf "spans-%s-%d.jsonl" opts.workload opts.seed) in
  (* The first cell's spans: the workload's own when it has cells. *)
  (match accs with a :: _ -> Tracer.write_spans a.tracer ~path:tracer_file | [] -> ());
  let election_metrics = election_layer_metrics accs in
  let leaf = Leaf.measure (leaf_args own_cells) in
  let key_cells = if own_cells = [] then probes else own_cells in
  let keys = Array.of_list (List.map (fun c -> c.W.cell) key_cells) in
  let ki = ref 0 in
  let cell_key_ns =
    Util.ns_per_call (fun () ->
        ignore (Sys.opaque_identity (R.Cell.key keys.(!ki mod Array.length keys)));
        incr ki)
  in
  let envelope =
    match w.W.kind with
    | W.Closed_loop { cells; block_rounds } ->
        let root = Util.fresh_dir "trace-table" in
        let tel = Telemetry.create () in
        let t0 = Util.now_ns () in
        let cold = table_pass ~telemetry:tel ~store:(open_store root) ~jobs:1 cells ~block_rounds in
        let cold_s = Util.seconds_since t0 in
        let compute_s = Telemetry.timer_seconds tel "runner.wall" in
        let warm_store = open_store root in
        ignore (table_pass ~store:warm_store ~jobs:1 cells ~block_rounds);
        let hit_rate = Store.hit_rate (Store.io_stats warm_store) in
        let tel2 = Telemetry.create () in
        ignore (table_pass ~telemetry:tel2 ~jobs:2 cells ~block_rounds);
        let compute2_s = Telemetry.timer_seconds tel2 "runner.wall" in
        let records = List.map2 (fun c s -> (R.Cell.key (W.table_cell c ~block_rounds), R.sample_to_json ~include_results:true s)) cells cold in
        let _, add_ns, store_metrics = store_layer_metrics ~root ~records in
        Util.rm_rf root;
        (* This workload's table, rendered as an experiment renders one. *)
        let render () =
          let table = E.Table.create ~title:w.W.name ~columns:[ ("cell", E.Table.Left); ("median slots", E.Table.Right); ("success", E.Table.Right) ] in
          List.iter2
            (fun c s ->
              E.Table.add_row table
                [ c.W.label; E.Table.fmt_float (R.median_slots s); E.Table.fmt_pct (R.success_rate s) ])
            cells cold;
          let buf = Buffer.create 1024 in
          let ppf = Format.formatter_of_buffer buf in
          E.Output.table (E.Output.to_formatter ppf) table;
          Format.pp_print_flush ppf ()
        in
        let render_s = Util.ns_per_call render *. 1e-9 in
        [
          metric "runner.compute_s" "s" compute_s;
          metric "runner.envelope_s" "s" (cold_s -. compute_s -. (float_of_int (List.length cells) *. add_ns *. 1e-9));
          metric "runner.pool_speedup" "ratio" (ratio compute_s compute2_s);
          metric "store.hit_rate" "%" hit_rate;
          metric "experiments.render_s" "s" render_s;
        ]
        @ store_metrics
    | W.Sweep { experiments; jobs } ->
        let m0 = (Gc.quick_stat ()).Gc.major_collections in
        let root, cold, warm, digest = sweep_pair ~jobs ~seed:opts.seed experiments in
        let majors = (Gc.quick_stat ()).Gc.major_collections - m0 in
        digest_check opts ~seed:opts.seed ~what:"traced sweep tables and records" digest;
        let find_ns, add_ns, store_metrics = store_layer_metrics ~root ~records:(store_records root) in
        Util.rm_rf root;
        (* The same cold pass on the other pool size, for the speedup. *)
        let root2 = Util.fresh_dir "trace-sweep-jobs" in
        let other = sweep_pass ~store:(open_store root2) ~jobs:(if jobs = 1 then 2 else 1) ~seed:opts.seed experiments in
        Util.rm_rf root2;
        let cold1, cold2 = if jobs = 1 then (cold, other) else (other, cold) in
        let render_s = warm.wall_s -. (float_of_int warm.io.Store.hits *. find_ns *. 1e-9) in
        let adds = float_of_int cold.io.Store.misses in
        [
          metric "runner.compute_s" "s" cold.compute_s;
          metric "runner.envelope_s" "s" (cold.wall_s -. cold.compute_s -. (adds *. add_ns *. 1e-9) -. render_s);
          metric "runner.pool_speedup" "ratio" (ratio cold1.compute_s cold2.compute_s);
          metric "store.hit_rate" "%" (Store.hit_rate warm.io);
          metric "experiments.render_s" "s" render_s;
          metric "sim.major_gcs" "count" (float_of_int majors);
        ]
        @ store_metrics
  in
  let majors =
    if own_cells = [] then []
    else [ metric "sim.major_gcs" "count" (float_of_int (List.fold_left (fun s a -> if a.own then s + a.majors else s) 0 accs)) ]
  in
  election_metrics
  @ List.map (fun (name, ns) -> metric name "ns" ns) leaf
  @ [ metric "runner.cell_key_us" "us" (cell_key_ns /. 1e3) ]
  @ envelope @ majors

(* --- main --- *)

let () =
  let opts = parse_args () in
  Util.mkdir_p Util.scratch_root;
  if not (Sys.file_exists opts.reference) then begin
    prerr_endline ("perfbench: missing reference digests " ^ opts.reference);
    exit 2
  end;
  let metrics =
    if opts.trace then trace_run opts
    else begin
      let w = setup_burst opts ~from_start:true in
      let e2e =
        match w.W.kind with
        | W.Closed_loop { cells; block_rounds } -> closed_end_to_end opts cells ~block_rounds
        | W.Sweep { experiments; jobs } -> sweep_end_to_end opts experiments ~jobs
      in
      e2e @ [ metric "top_heap_mb" "MB" (Util.max_rss_mb ()) ]
    end
  in
  emit metrics
