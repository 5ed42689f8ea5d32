(* The workloads: the cells each one runs, built from the seed alone,
   and the digests that check their outputs.

   Closed-loop workloads cycle through their cells in rounds; a round
   runs [weight] consecutive replications of each cell.  The weights
   put the p50 and p90 of the mixed latency sample in the middle of one
   cell's mode rather than on its shoulder or in the gap between two
   modes, where a quantile would swing with noise.

   [mean_slots] is each cell's stated election length: the mean slot
   count over 640-32000 replications on seeds 7000-7015 (none of them
   a benchmark seed).  Throughput and latency are reported at these
   lengths, so the seed's draw of long or short elections (LEWU's slot
   count is heavy-tailed: 95 to 1535 slots at n = 10^4) does not move
   them. *)

module R = Jamming_experiments.Runner
module Specs = Jamming_experiments.Specs
module E = Jamming_experiments
module Channel = Jamming_channel.Channel

type cell = { label : string; weight : int; mean_slots : float; cell : R.Cell.t }

type kind =
  | Closed_loop of { cells : cell list; block_rounds : int }
      (** elections one after another at jobs = 1, store off; the first
          [block_rounds] rounds form the reference block that is
          digested and replayed as a cached table *)
  | Sweep of { experiments : E.Registry.t list; jobs : int }
      (** quick-scale experiments through [Experiments.run_one], cold
          then warm against a fresh store *)

type t = { name : string; kind : kind }

let names = [ "closure-exact"; "population-scale"; "sweep-cache" ]
(* The seed of the published tables.  perfbench/layers.json also names a
   held-out seed, 2015, for confirming claims. *)
let default_seed = 42

(* Every jammer is (T = 64, eps = 0.5)-bounded and greedy. *)
let setup ~n = { R.n; eps = 0.5; window = 64; max_slots = 2_000_000 }

let cell ~seed ?(energy = false) ?(weight = 1) ~mean_slots label engine n =
  { label; weight; mean_slots; cell = R.Cell.v ~base_seed:seed ~energy ~engine ~reps:1 (setup ~n) Specs.greedy }

let closure_lesk =
  R.Exact { name = "LESK"; cd = Channel.Strong_cd; factory = Jamming_core.Lesk.station ~eps:0.5 }

let closure_arss =
  R.Exact
    {
      name = "ARSS";
      cd = Channel.Strong_cd;
      factory = Jamming_baselines.Arss_mac.station (Jamming_baselines.Arss_mac.config ~n:256 ~window:64);
    }

let pooled_cells ~seed =
  [
    cell ~seed ~weight:15 ~mean_slots:1501.40 "pooled LEWK n=1e3" (R.pooled_lewk ~eps:0.5 ()) 1_000;
    cell ~seed ~mean_slots:445.40 "pooled LEWU n=1e4" (R.pooled_lewu ()) 10_000;
  ]

let closure_cells ~seed =
  [
    cell ~seed ~energy:true ~mean_slots:171.52 "closure LESK n=4096 (metered)" closure_lesk 4096;
    cell ~seed ~weight:4 ~mean_slots:811.95 "closure ARSS n=256" closure_arss 256;
  ]

let population_cells ~seed =
  [
    cell ~seed ~mean_slots:458.06 "aggregate LESK n=1e9" (R.aggregate_lesk ~eps:0.5 ()) 1_000_000_000;
    cell ~seed ~mean_slots:38.06 "aggregate LESU n=1e9" (R.aggregate_lesu ()) 1_000_000_000;
    cell ~seed ~weight:3 ~mean_slots:300.00 "uniform LESK n=2^20" (R.Uniform (Specs.lesk ~eps:0.5)) (1 lsl 20);
  ]

(* The quick-scale paper tables that run through Runner cells.  E8 is
   left out: its ~2 s of ARSS compute would hide the store's share. *)
let sweep_ids = [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E9"; "E10"; "E12"; "F2"; "A2"; "A3"; "A5" ]

let sweep_experiments () =
  List.map
    (fun id ->
      match E.Experiments.find id with
      | Some e -> e
      | None -> failwith ("perfbench: unknown experiment " ^ id))
    sweep_ids

let make name ~seed =
  let closed cells block_rounds = Closed_loop { cells; block_rounds } in
  let kind =
    match name with
    | "closure-exact" -> closed (closure_cells ~seed) 4
    | "population-scale" -> closed (population_cells ~seed) 64
    | "sweep-cache" -> Sweep { experiments = sweep_experiments (); jobs = 2 }
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  { name; kind }

(* Cells a traced run falls back on for a layer its own workload never
   exercises, so every layer metric is measured on every workload.  The
   pooled cells are here only: as an end-to-end workload their run-to-run
   spread (24-39% IQR over ten seeds) exceeded every bound. *)
let probe_cells ~seed = pooled_cells ~seed @ closure_cells ~seed @ population_cells ~seed

let is_per_station c =
  match c.cell.R.Cell.engine with R.Exact _ | R.Faulty _ | R.Pooled _ -> true | _ -> false

let block_reps c ~block_rounds = c.weight * block_rounds

(* The cell replicated over its reference block, as a table would run it. *)
let table_cell c ~block_rounds = { c.cell with R.Cell.reps = block_reps c ~block_rounds }

let run_election ?observers ?(energy_override : bool option) (c : R.Cell.t) ~rep =
  let energy = Option.value energy_override ~default:c.energy in
  R.run ?observers ~energy ~engine:c.engine c.setup c.adversary ~seed:(R.Cell.seed c ~rep)

(* Digest of one cell's results, over exactly the record a cached table
   stores: [sample_to_json ~include_results:true]. *)
let sample_of (c : R.Cell.t) results =
  {
    R.setup = c.setup;
    protocol_name = R.engine_name c.engine;
    adversary_name = c.adversary.Specs.a_name;
    results;
  }

let sample_digest s =
  Util.md5_hex (Jamming_telemetry.Json.to_string (R.sample_to_json ~include_results:true s))

let combine digests = Util.md5_hex (String.concat "\n" digests)

(* Committed reference digests: workload -> seed -> digest. *)
let load_reference path =
  match Jamming_telemetry.Json.read_file ~path with
  | Error msg -> failwith (Printf.sprintf "perfbench: cannot read %s: %s" path msg)
  | Ok json -> json

let reference_digest json ~workload ~seed =
  Option.bind (Jamming_telemetry.Json.member workload json) (fun w ->
      Option.bind (Jamming_telemetry.Json.member (string_of_int seed) w)
        Jamming_telemetry.Json.to_string_opt)
