(* Spans around the library's layer boundaries, recorded from outside
   the library by wrapping the closure records it exposes: station
   factories, station pools, uniform protocols, aggregate protocols and
   adversaries.  Wrappers pass every argument and result through
   unchanged and never touch a random stream, so a traced election is
   bit-identical to an untraced one (checked by digest in every traced
   run).

   Sampling has two levels.  One slot in 2^k is sampled, chosen by a
   multiplicative hash of the slot number so the choice does not line up
   with the power-of-two interval structure of the protocols.  Inside a
   sampled slot every per-slot call is timed, and one per-station call in
   16, so that timer cost does not swamp 10-20 ns layers; the untimed
   calls are counted and costed at the mean of the timed ones.  A slot
   span runs from the end of the adversary's [notify] for the previous
   slot to the end of its [notify] for this slot, so it covers all of the
   engine's per-slot work.

   Self time is a span's duration minus what its children cover.  The
   tracer's own cost is calibrated on empty spans when it is created and
   taken out: [read_ns] from each span's duration, [span_ns] per timed
   child from its parent's.  Outside sampled slots a wrapped call costs
   one flag test. *)

module Station = Jamming_station.Station
module Uniform = Jamming_station.Uniform
module Aggregate = Jamming_sim.Aggregate
module Adversary = Jamming_adversary.Adversary
module R = Jamming_experiments.Runner
module Specs = Jamming_experiments.Specs

type layer = {
  every : int;  (** mask: inside a sampled slot, time calls with [count land every = 0] *)
  mutable calls : int;  (** calls inside sampled slots, timed or not *)
  mutable timed : int;
  mutable self_ns : float;  (** over the timed spans *)
  mutable total_ns : float;  (** over the timed spans *)
}

let layer_specs =
  [|
    ("election", 0); ("slot", 0); ("adversary", 0); ("closure_decide", 15); ("closure_observe", 15);
    ("pool_begin", 0); ("pool_decide", 0); ("pool_observe", 0); ("protocol_tx_prob", 0);
    ("protocol_step", 0); ("calibration", max_int);
  |]

let election = 0
and slot = 1
and adversary_l = 2
and closure_decide = 3
and closure_observe = 4
and pool_begin = 5
and pool_decide = 6
and pool_observe = 7
and protocol_tx_prob = 8
and protocol_step = 9
and calibration = 10

let span_cap = 200_000

type t = {
  mask : int;
  mutable read_ns : float;  (** inside an empty span: one clock read *)
  mutable span_ns : float;  (** an empty child span, as its parent sees it *)
  mutable skip_ns : float;  (** an untimed call inside a sampled slot *)
  layers : layer array;
  mutable sampling : bool;
  (* open spans *)
  st_start : int array;
  st_child : float array;
  st_id : int array;
  mutable depth : int;
  (* per-layer counters when the current slot span opened *)
  snap_calls : int array;
  snap_timed : int array;
  snap_total : float array;
  (* finished spans, kept in memory up to [span_cap] *)
  mutable next_id : int;
  sp_layer : int array;
  sp_start : int array;
  sp_stop : int array;
  sp_parent : int array;
}

let layer t i = t.layers.(i)

(* A layer's estimated time inside the sampled slots, untimed calls
   included. *)
let estimated_ns l = if l.timed = 0 then 0. else l.self_ns *. float_of_int l.calls /. float_of_int l.timed

let reset t =
  Array.iter
    (fun l ->
      l.calls <- 0;
      l.timed <- 0;
      l.self_ns <- 0.;
      l.total_ns <- 0.)
    t.layers;
  t.next_id <- 0;
  t.depth <- 0;
  t.sampling <- false

let open_span t =
  let d = t.depth in
  t.st_id.(d) <- t.next_id;
  t.next_id <- t.next_id + 1;
  t.st_child.(d) <- 0.;
  t.depth <- d + 1;
  t.st_start.(d) <- Util.now_ns ()

let finish_span t li ~stop =
  let d = t.depth - 1 in
  t.depth <- d;
  let start = t.st_start.(d) in
  let dur = float_of_int (stop - start) -. t.read_ns in
  let l = t.layers.(li) in
  l.timed <- l.timed + 1;
  l.total_ns <- l.total_ns +. dur;
  l.self_ns <- l.self_ns +. dur -. t.st_child.(d);
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) +. dur +. t.span_ns;
  let id = t.st_id.(d) in
  if id < span_cap then begin
    t.sp_layer.(id) <- li;
    t.sp_start.(id) <- start;
    t.sp_stop.(id) <- stop;
    t.sp_parent.(id) <- (if d > 0 then t.st_id.(d - 1) else -1)
  end

let close_span t li = finish_span t li ~stop:(Util.now_ns ())

(* Whether to time this call; opens its span when so. *)
let[@inline] enter t li =
  t.sampling
  &&
  let l = t.layers.(li) in
  let c = l.calls in
  l.calls <- c + 1;
  c land l.every = 0
  && begin
       open_span t;
       true
     end

let open_slot t =
  Array.iteri
    (fun i l ->
      t.snap_calls.(i) <- l.calls;
      t.snap_timed.(i) <- l.timed;
      t.snap_total.(i) <- l.total_ns)
    t.layers;
  let l = t.layers.(slot) in
  l.calls <- l.calls + 1;
  open_span t

(* Charge the slot's untimed calls to its children, at the mean cost of
   the same layer's timed calls in this slot, plus their counting. *)
let close_slot t =
  let stop = Util.now_ns () in
  let untimed = ref 0. in
  Array.iteri
    (fun i l ->
      let calls = l.calls - t.snap_calls.(i) and timed = l.timed - t.snap_timed.(i) in
      if i <> slot && calls > timed && timed > 0 then
        untimed :=
          !untimed
          +. (float_of_int (calls - timed)
             *. (t.skip_ns +. ((l.total_ns -. t.snap_total.(i)) /. float_of_int timed))))
    t.layers;
  let d = t.depth - 1 in
  t.st_child.(d) <- t.st_child.(d) +. !untimed;
  finish_span t slot ~stop

(* Medians over batches of 1000 empty spans, and of 1000 untimed calls,
   after a warm-up. *)
let calibrate t =
  let batch () =
    reset t;
    let t0 = Util.now_ns () in
    for _ = 1 to 1000 do
      open_span t;
      close_span t calibration
    done;
    let per_span = float_of_int (Util.now_ns () - t0) /. 1000. in
    let read = (layer t calibration).total_ns /. 1000. in
    t.sampling <- true;
    (layer t calibration).calls <- 1;
    let t1 = Util.now_ns () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (enter t calibration))
    done;
    let skip = float_of_int (Util.now_ns () - t1) /. 1000. in
    (per_span, read, skip)
  in
  ignore (Array.init 5 (fun _ -> batch ()));
  let runs = Array.init 31 (fun _ -> batch ()) in
  reset t;
  ( Util.median (Array.map (fun (s, _, _) -> s) runs),
    Util.median (Array.map (fun (_, r, _) -> r) runs),
    Util.median (Array.map (fun (_, _, k) -> k) runs) )

let make ~sample_log2 =
  let nl = Array.length layer_specs in
  {
    mask = (1 lsl sample_log2) - 1;
    read_ns = 0.;
    span_ns = 0.;
    skip_ns = 0.;
    layers =
      Array.map
        (fun (_, every) -> { every; calls = 0; timed = 0; self_ns = 0.; total_ns = 0. })
        layer_specs;
    sampling = false;
    st_start = Array.make 8 0;
    st_child = Array.make 8 0.;
    st_id = Array.make 8 0;
    depth = 0;
    snap_calls = Array.make nl 0;
    snap_timed = Array.make nl 0;
    snap_total = Array.make nl 0.;
    next_id = 0;
    sp_layer = Array.make span_cap 0;
    sp_start = Array.make span_cap 0;
    sp_stop = Array.make span_cap 0;
    sp_parent = Array.make span_cap 0;
  }

(* One calibration per process, shared by every tracer. *)
let calibration_costs = lazy (calibrate (make ~sample_log2:0))

let create ~sample_log2 =
  let t = make ~sample_log2 in
  let span_ns, read_ns, skip_ns = Lazy.force calibration_costs in
  t.span_ns <- span_ns;
  t.read_ns <- read_ns;
  t.skip_ns <- skip_ns;
  t

(* Fibonacci hashing of the slot number. *)
let sampled t s = (s * 0x9E3779B97F4A7C1) lsr 32 land t.mask = 0

(* One election: the root span.  A slot span left open when the engine
   stops after its last [notify] is dropped, not recorded. *)
let run_election t f =
  t.sampling <- false;
  open_span t;
  let r = f () in
  t.sampling <- false;
  if t.depth > 1 then begin
    t.next_id <- t.st_id.(1);
    t.depth <- 1
  end;
  close_span t election;
  r

let adversary t (a : Adversary.t) =
  {
    a with
    Adversary.wants_jam =
      (fun ~slot:s ~can_jam ->
        if enter t adversary_l then begin
          let r = a.wants_jam ~slot:s ~can_jam in
          close_span t adversary_l;
          r
        end
        else a.wants_jam ~slot:s ~can_jam);
    notify =
      (fun ~slot:s ~jammed ~state ->
        if enter t adversary_l then begin
          a.notify ~slot:s ~jammed ~state;
          close_span t adversary_l;
          close_slot t
        end
        else a.notify ~slot:s ~jammed ~state;
        (* Slot 0 is never sampled: nothing marks its start. *)
        t.sampling <- sampled t (s + 1);
        if t.sampling then open_slot t);
  }

let adversary_spec t (a : Specs.adversary) =
  {
    a with
    Specs.a_make =
      (fun ~seed ~n ~eps ~window ->
        let make = a.a_make ~seed ~n ~eps ~window in
        fun () -> adversary t (make ()));
  }

let station t (s : Station.t) =
  {
    s with
    Station.decide =
      (fun ~slot:sl ->
        if enter t closure_decide then begin
                    let r = s.decide ~slot:sl in
          close_span t closure_decide;
          r
        end
        else s.decide ~slot:sl);
    observe =
      (fun ~slot:sl ~perceived ~transmitted ->
        if enter t closure_observe then begin
                    s.observe ~slot:sl ~perceived ~transmitted;
          close_span t closure_observe
        end
        else s.observe ~slot:sl ~perceived ~transmitted);
  }

let pool t (p : Station.pool) =
  {
    p with
    Station.pool_begin_slot =
      (fun ~slot:sl ->
        if enter t pool_begin then begin
                    p.pool_begin_slot ~slot:sl;
          close_span t pool_begin
        end
        else p.pool_begin_slot ~slot:sl);
    pool_decide_all =
      (fun ~slot:sl ~actions ~tx_counts ->
        if enter t pool_decide then begin
                    let r = p.pool_decide_all ~slot:sl ~actions ~tx_counts in
          close_span t pool_decide;
          r
        end
        else p.pool_decide_all ~slot:sl ~actions ~tx_counts);
    pool_observe_all =
      (fun ~slot:sl ~actions ~tx ~rx ->
        if enter t pool_observe then begin
                    p.pool_observe_all ~slot:sl ~actions ~tx ~rx;
          close_span t pool_observe
        end
        else p.pool_observe_all ~slot:sl ~actions ~tx ~rx);
  }

let uniform t (u : Uniform.t) =
  {
    u with
    Uniform.tx_prob =
      (fun () ->
        if enter t protocol_tx_prob then begin
                    let r = u.tx_prob () in
          close_span t protocol_tx_prob;
          r
        end
        else u.tx_prob ());
    on_state =
      (fun st ->
        if enter t protocol_step then begin
                    let r = u.on_state st in
          close_span t protocol_step;
          r
        end
        else u.on_state st);
  }

let aggregate t (Aggregate.Packed p) =
  Aggregate.Packed
    {
      p with
      Aggregate.tx_prob =
        (fun c ->
          if enter t protocol_tx_prob then begin
                        let r = p.tx_prob c in
            close_span t protocol_tx_prob;
            r
          end
          else p.tx_prob c);
      step =
        (fun c st ->
          if enter t protocol_step then begin
                        let r = p.step c st in
            close_span t protocol_step;
            r
          end
          else p.step c st);
    }

(* The same engine under the same name, so seed tags, cache keys and
   results are unchanged. *)
let engine t = function
  | R.Exact r -> R.Exact { r with factory = (fun ~id ~rng -> station t (r.factory ~id ~rng)) }
  | R.Pooled r -> R.Pooled { r with pool = (fun ~n ~rng -> pool t (r.pool ~n ~rng)) }
  | R.Aggregate r -> R.Aggregate { r with proto = aggregate t r.proto }
  | R.Uniform p ->
      R.Uniform
        {
          p with
          Specs.p_make =
            (fun ~n ~window ->
              let make = p.p_make ~n ~window in
              fun () -> uniform t (make ()));
        }
  | R.Faulty _ -> invalid_arg "Tracer.engine: faulty engines are not traced"

let cell t (c : R.Cell.t) =
  { c with R.Cell.engine = engine t c.engine; adversary = adversary_spec t c.adversary }

(* The recorded spans as JSON lines: layer, start and stop (ns), and
   the index of the span that caused it (-1 for an election). *)
let write_spans t ~path =
  Out_channel.with_open_text path (fun oc ->
      let n = min t.next_id span_cap in
      for i = 0 to n - 1 do
        Printf.fprintf oc "{\"id\":%d,\"layer\":%S,\"start\":%d,\"stop\":%d,\"parent\":%d}\n" i
          (fst layer_specs.(t.sp_layer.(i))) t.sp_start.(i) t.sp_stop.(i) t.sp_parent.(i)
      done)
