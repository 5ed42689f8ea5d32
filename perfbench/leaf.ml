(* Leaf primitives with no closure to wrap, timed by calling their
   public functions with the workload's own arguments. *)

module Prng = Jamming_prng.Prng
module Sample = Jamming_prng.Sample
module Budget = Jamming_adversary.Budget
module Channel = Jamming_channel.Channel
module Intervals = Jamming_core.Intervals
module Lesk = Jamming_core.Lesk

(* Every workload runs strong collision detection. *)
type args = {
  station_n : int;  (** Bernoulli draws use p = 1/station_n *)
  population_n : int;  (** binomial and trichotomy class size *)
}

let opaque x = ignore (Sys.opaque_identity x)

let measure a =
  let rng = Prng.create ~seed:1 in
  let cycle arr =
    let i = ref 0 in
    fun () ->
      let x = arr.(!i land (Array.length arr - 1)) in
      incr i;
      x
  in
  let p_station = 1. /. float_of_int a.station_n in
  let p_pop = 1. /. float_of_int a.population_n in
  let budget = Budget.create ~window:64 ~eps:0.5 in
  let cursor = Intervals.cursor () and next_slot = ref 0 in
  let logic = ref (Lesk.Logic.create ~eps:0.5 ()) in
  (* LESK sees Nulls and Collisions until the electing Single. *)
  let lesk_states =
    cycle (Array.init 1024 (fun _ -> if Prng.bool rng ~p:0.5 then Channel.Null else Channel.Collision))
  in
  let resolve_args = cycle (Array.init 1024 (fun i -> (i mod 3, i mod 2 = 0))) in
  let perceive_args =
    cycle
      (Array.init 1024 (fun i ->
           ([| Channel.Null; Channel.Single; Channel.Collision |].(i mod 3), i mod 5 = 0)))
  in
  [
    ("prng.bits64_ns", fun () -> opaque (Prng.bits64 rng));
    ("prng.bernoulli_ns", fun () -> opaque (Sample.bernoulli rng ~p:p_station));
    ("prng.binomial_ns", fun () -> opaque (Sample.binomial rng ~n:a.population_n ~p:p_pop));
    ("prng.trichotomy_ns", fun () -> opaque (Sample.trichotomy rng ~n:a.population_n ~p:p_pop));
    ( "adversary.budget_ns",
      fun () ->
        let jam = Budget.can_jam budget in
        Budget.advance budget ~jam );
    ( "core.intervals_cursor_ns",
      fun () ->
        Intervals.locate cursor !next_slot;
        opaque (Intervals.kind cursor);
        next_slot := (!next_slot + 1) land 0xfffff );
    ( "core.lesk_step_ns",
      fun () ->
        let l = !logic in
        opaque (Lesk.Logic.tx_prob l);
        Lesk.Logic.on_state l (lesk_states ());
        if Lesk.Logic.elected l then logic := Lesk.Logic.create ~eps:0.5 () );
    ( "channel.resolve_ns",
      fun () ->
        let transmitters, jammed = resolve_args () in
        opaque (Channel.resolve ~transmitters ~jammed) );
    ( "channel.perceive_ns",
      fun () ->
        let state, transmitted = perceive_args () in
        opaque (Channel.perceive Channel.Strong_cd state ~transmitted) );
  ]
  |> List.map (fun (name, f) -> (name, Util.ns_per_call f))
