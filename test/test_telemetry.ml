(* Telemetry sink semantics, JSON writer/parser, and the determinism
   guarantees the bench/sweep plumbing relies on (DESIGN.md §9). *)

module E = Jamming_experiments
module T = Jamming_telemetry.Telemetry
module Json = Jamming_telemetry.Json
open Test_util

(* --- counters, timers, histograms --- *)

let test_counters () =
  let t = T.create () in
  let c = T.counter t "hits" in
  T.incr c;
  T.incr c;
  T.add c 40;
  check_int "incr/add accumulate" 42 (T.value c);
  check_int "lookup by name" 42 (T.counter_value t "hits");
  check_int "absent counter reads 0" 0 (T.counter_value t "misses");
  check_true "same name, same cell" (T.value (T.counter t "hits") = 42)

let test_timers () =
  let t = T.create () in
  let w = T.timer t "wall" in
  let v = T.time w (fun () -> Sys.opaque_identity (List.init 1000 Fun.id) |> List.length) in
  check_int "thunk result passes through" 1000 v;
  check_true "elapsed non-negative" (T.elapsed_s w >= 0.0);
  T.stop w;
  (* stop without start is a no-op *)
  check_true "lookup by name" (T.timer_seconds t "wall" = T.elapsed_s w);
  check_float "absent timer reads 0" 0.0 (T.timer_seconds t "nope")

let test_histograms () =
  let t = T.create () in
  let h = T.histogram t "slots" in
  List.iter (T.observe h) [ 0; 1; 2; 3; 1024 ];
  check_int "count" 5 (T.histogram_count t "slots");
  check_int "sum" 1030 (T.histogram_sum t "slots");
  check_int "absent histogram count" 0 (T.histogram_count t "nope")

let test_disabled_sink () =
  let t = T.disabled () in
  check_true "disabled" (not (T.is_enabled t));
  let c = T.counter t "hits" and h = T.histogram t "h" in
  T.incr c;
  T.add c 10;
  T.observe h 99;
  let w = T.timer t "wall" in
  T.start w;
  T.stop w;
  check_int "counter dead" 0 (T.counter_value t "hits");
  check_int "histogram dead" 0 (T.histogram_count t "h");
  check_float "timer dead" 0.0 (T.timer_seconds t "wall");
  Alcotest.(check string)
    "snapshot is empty" {|{"counters":{},"timers":{},"histograms":{}}|}
    (Json.to_string (T.to_json t))

let test_merge_and_reset () =
  let a = T.create () and b = T.create () in
  T.add (T.counter a "n") 1;
  T.add (T.counter b "n") 2;
  T.add (T.counter b "only-b") 7;
  T.observe (T.histogram a "h") 4;
  T.observe (T.histogram b "h") 8;
  T.merge ~into:a b;
  check_int "counters add" 3 (T.counter_value a "n");
  check_int "new names created" 7 (T.counter_value a "only-b");
  check_int "histogram counts add" 2 (T.histogram_count a "h");
  check_int "histogram sums add" 12 (T.histogram_sum a "h");
  T.reset a;
  check_int "reset zeroes counters" 0 (T.counter_value a "n");
  check_int "reset zeroes histograms" 0 (T.histogram_count a "h")

(* --- JSON writer and parser --- *)

let test_json_golden () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\n");
        ("i", Json.Int (-3));
        ("f", Json.Float 1.5);
        ("whole", Json.Float 2.0);
        ("nan", Json.Float Float.nan);
        ("l", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("o", Json.Obj []);
      ]
  in
  Alcotest.(check string)
    "compact rendering"
    {|{"s":"a\"b\n","i":-3,"f":1.5,"whole":2.0,"nan":null,"l":[null,true,false],"o":{}}|}
    (Json.to_string v)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("xs", Json.List [ Json.Int 1; Json.Float 2.25; Json.String "τ" ]);
        ("b", Json.Bool false);
        ("n", Json.Null);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> check_true "round-trips" (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Json.of_string "{\"a\": [1, 2" with
  | Ok _ -> Alcotest.fail "accepted truncated JSON"
  | Error _ -> ());
  match Json.of_string "[1e3, -4.5, 17]" with
  | Ok (Json.List [ Json.Float 1000.0; Json.Float (-4.5); Json.Int 17 ]) -> ()
  | Ok j -> Alcotest.failf "unexpected parse: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "parse failed: %s" e

(* --- the reader, pinned: every input below maps to the exact result or
   error string [of_string] returns, so a faster reader must accept and
   reject the same inputs at the same offsets. --- *)

let rec show = function
  | Json.Null -> "Null"
  | Json.Bool b -> Printf.sprintf "Bool %b" b
  | Json.Int i -> Printf.sprintf "Int %d" i
  | Json.Float f -> Printf.sprintf "Float %h" f
  | Json.String s -> Printf.sprintf "String %S" s
  | Json.List xs -> "List [" ^ String.concat "; " (List.map show xs) ^ "]"
  | Json.Obj fields ->
      "Obj ["
      ^ String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%S, %s" k (show v)) fields)
      ^ "]"

let parse_result s =
  match Json.of_string s with Ok v -> "ok " ^ show v | Error e -> "error " ^ e

let reader_golden =
  [
    ("", "error at offset 0: unexpected end of input");
    ("   ", "error at offset 3: unexpected end of input");
    ("{", "error at offset 1: expected '\"'");
    ("{\"a\"", "error at offset 4: expected ':'");
    ("{\"a\":", "error at offset 5: unexpected end of input");
    ("{\"a\":1", "error at offset 6: expected '}'");
    ("{\"a\":1,", "error at offset 7: expected '\"'");
    ("{\"a\": [1, 2", "error at offset 11: expected ']'");
    ("[", "error at offset 1: unexpected end of input");
    ("[1", "error at offset 2: expected ']'");
    ("[1,", "error at offset 3: unexpected end of input");
    ("[1,2", "error at offset 4: expected ']'");
    ("[1,]", "error at offset 3: unexpected ']'");
    ("{,}", "error at offset 1: expected '\"'");
    ("{\"a\" 1}", "error at offset 5: expected ':'");
    ("{1:2}", "error at offset 1: expected '\"'");
    ("[1 2]", "error at offset 3: expected ']'");
    (" [ 1 , 2 ] ", "ok List [Int 1; Int 2]");
    ("{ \"a\" : 1 , \"b\" : [ ] }", "ok Obj [\"a\", Int 1; \"b\", List []]");
    ("-", "error at offset 1: bad number");
    ("1.2.3", "error at offset 5: bad number");
    ("01", "ok Int 1");
    ("-0", "ok Int 0");
    ("-0.0", "ok Float -0x0p+0");
    ("9999999999999999999", "ok Float 0x1.158e460913dp+63");
    ("4611686018427387903", "ok Int 4611686018427387903");
    ("-4611686018427387904", "ok Int -4611686018427387904");
    ("4611686018427387904", "ok Float 0x1p+62");
    ("123456789012345678", "ok Int 123456789012345678");
    ("-123456789012345678", "ok Int -123456789012345678");
    ("1e3", "ok Float 0x1.f4p+9");
    ("-4.5", "ok Float -0x1.2p+2");
    ("1E+2", "ok Float 0x1.9p+6");
    ("-.5", "ok Float -0x1p-1");
    ("1.", "ok Float 0x1p+0");
    ("--1", "error at offset 3: bad number");
    ("1-2", "error at offset 3: bad number");
    ("+1", "error at offset 0: unexpected '+'");
    ("0x10", "error at offset 1: trailing garbage");
    ("1e", "error at offset 2: bad number");
    (".5", "error at offset 0: unexpected '.'");
    ("1e999", "ok Float infinity");
    ("2.5e-320", "ok Float 0x0.00000000013c4p-1022");
    ("\"a\000b\"", "ok String \"a\\000b\"");
    ("\000", "error at offset 0: unexpected '\\000'");
    ("[1\000]", "error at offset 2: expected ']'");
    ("1 2", "error at offset 2: trailing garbage");
    ("{} x", "error at offset 3: trailing garbage");
    ("[]]", "error at offset 2: trailing garbage");
    ("nullx", "error at offset 4: trailing garbage");
    ("\"a\"\"b\"", "error at offset 3: trailing garbage");
    ("nul", "error at offset 0: expected null");
    ("tru", "error at offset 0: expected true");
    ("fals", "error at offset 0: expected false");
    ("true", "ok Bool true");
    ("false", "ok Bool false");
    ("null", "ok Null");
    ("NaN", "error at offset 0: unexpected 'N'");
    ("\"\\x\"", "error at offset 2: bad escape");
    ("\"\\", "error at offset 2: bad escape");
    ("\"abc", "error at offset 4: unterminated string");
    ("\"\\u12\"", "error at offset 2: truncated \\u escape");
    ("\"\\u12G4\"", "error at offset 2: bad \\u escape");
    ("\"\\u00e9\"", "ok String \"\\195\\169\"");
    ("\"\\u0041\"", "ok String \"A\"");
    ("\"\\u00_1\"", "ok String \"\\001\"");
    ("\"\\/\"", "ok String \"/\"");
    ("\"\\b\\f\\n\\r\\t\\\"\\\\\"", "ok String \"\\b\\012\\n\\r\\t\\\"\\\\\"");
    ("\"\\u20ac\"", "ok String \"\\226\\130\\172\"");
    (* Escaped surrogate pairs decode to one 4-byte UTF-8 sequence; a
       lone surrogate is rejected at its own \u. *)
    ("\"\\ud83d\\ude00\"", "ok String \"\\240\\159\\152\\128\"");
    ("\"\\uD800\\uDC00\"", "ok String \"\\240\\144\\128\\128\"");
    ("\"\\udbff\\udfff\"", "ok String \"\\244\\143\\191\\191\"");
    ("\"\\ud83d\"", "error at offset 2: bad \\u escape");
    ("\"\\ude00\"", "error at offset 2: bad \\u escape");
    ("\"\\ud83d\\u0041\"", "error at offset 2: bad \\u escape");
    ("\"\\ud83dx\"", "error at offset 2: bad \\u escape");
    ("\"a\\ud83d\\ude0\"", "error at offset 3: bad \\u escape");
    ("\"\\ud83d\\ude00\\ud83d\"", "error at offset 14: bad \\u escape");
  ]

let test_reader_golden () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) (Printf.sprintf "of_string %S" input) expected (parse_result input))
    reader_golden

(* One record exactly as the run store wrote it (compact line plus
   newline).  Every strict prefix is a truncated file; the digest pins
   the result of parsing each one, in order. *)
let stored_record =
  String.concat ""
    [
      {|{"schema":"jamming-election.store/1","fingerprint":"2231e46955824bc0895d69c664|};
      {|37dc32","key":{"kind":"uniform","protocol":"LESK(0.5)","cd":"strong-CD","adver|};
      {|sary":"greedy","n":64,"eps":0.5,"window":16,"max_slots":50000,"reps":3,"base_s|};
      {|eed":42},"hash":"39afd7d06e390d19d0831e425d24062d","value":{"protocol":"LESK(0|};
      {|.5)","adversary":"greedy","setup":{"n":64,"eps":0.5,"window":16,"max_slots":50|};
      {|000},"reps":3,"total_slots":274,"success_rate":1.0,"median_slots":95.0,"mean_e|};
      {|nergy_per_station":23.627474113396108,"median_jammed_fraction":0.4742268041237|};
      {|1132,"results":[{"slots":82,"completed":true,"elected":true,"leader":31,"statu|};
      {|ses":null,"jammed_slots":39,"nulls":0,"singles":1,"collisions":81,"transmissio|};
      {|ns":1466.2925088993666,"max_station_transmissions":0},{"slots":95,"completed":|};
      {|true,"elected":true,"leader":43,"statuses":null,"jammed_slots":45,"nulls":1,"s|};
      {|ingles":1,"collisions":93,"transmissions":1509.4582958032345,"max_station_tran|};
      {|smissions":0},{"slots":97,"completed":true,"elected":true,"leader":52,"statuse|};
      {|s":null,"jammed_slots":46,"nulls":1,"singles":1,"collisions":95,"transmissions|};
      {|":1560.7242250694517,"max_station_transmissions":0}]}}|};
    ]
  ^ "\n"

let test_reader_prefixes () =
  let n = String.length stored_record in
  let results = List.init n (fun k -> parse_result (String.sub stored_record 0 k)) in
  check_int "strict prefixes" 1147 (List.length results);
  check_true "the whole record parses" (Result.is_ok (Json.of_string stored_record));
  Alcotest.(check string)
    "digest of every prefix's result" "4eb39afbc04c1cdc46b3a3a37c425d2a"
    (Digest.to_hex (Digest.string (String.concat "\n" results)))

(* Writer then reader is the identity on every tree whose floats are
   finite, down to the bits of each float. *)
let rec json_equal a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && json_equal v v') xs ys
  | _ -> a = b

let gen_json =
  let open QCheck.Gen in
  let text =
    let byte =
      frequency
        [
          (6, char_range 'a' 'z');
          (2, oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\012' ]);
          (2, map Char.chr (int_range 0 0x1f));
          (1, map Char.chr (int_range 0x80 0xff));
        ]
    in
    frequency
      [
        (4, string_size ~gen:byte (int_bound 12));
        (1, oneofl [ ""; "τ"; "naïve"; "日本"; "😀"; "\000" ]);
      ]
  in
  let int =
    frequency [ (4, int); (1, oneofl [ max_int; min_int; 0; -1 ]); (2, int_range (-1000) 1000) ]
  in
  let finite =
    let rec bits st =
      let f = Int64.float_of_bits (Random.State.int64 st Int64.max_int) in
      if Float.is_finite f then f else bits st
    in
    frequency
      [
        (* Random bit patterns need all 17 significant digits. *)
        (3, map2 (fun f neg -> if neg then -.f else f) bits bool);
        (1, map (fun k -> Float.ldexp (float_of_int k) (-1074)) (int_range 1 ((1 lsl 52) - 1)));
        (* Integral floats from 2^52 to 2^57, printed without exponent. *)
        ( 1,
          map2
            (fun m e -> Float.ldexp (float_of_int m) e)
            (int_range (1 lsl 52) ((1 lsl 53) - 1))
            (int_range 0 4) );
        (1, oneofl [ 0.0; -0.0; 2.0; 1e15; Float.max_float; Float.min_float; 5e-324; 0.1 ]);
        (2, float_range (-1e6) 1e6);
      ]
  in
  sized
  @@ fix (fun self size ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float f) finite;
               map (fun s -> Json.String s) text;
             ]
         in
         if size <= 0 then leaf
         else
           frequency
             [
               (3, leaf);
               (1, map (fun xs -> Json.List xs) (list_size (int_bound 4) (self (size / 3))));
               (1, map (fun fs -> Json.Obj fs) (list_size (int_bound 4) (pair text (self (size / 3)))));
             ])

let test_reader_roundtrip =
  qtest ~count:500 "json of_string (to_string v) = Ok v"
    (QCheck.make ~print:show gen_json)
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> json_equal v v'
      | Error e -> QCheck.Test.fail_reportf "unparseable: %s" e)

let test_result_json_golden () =
  let r =
    {
      Metrics.slots = 120;
      completed = true;
      elected = true;
      leader = Some 3;
      statuses = [||];
      jammed_slots = 30;
      nulls = 50;
      singles = 10;
      collisions = 30;
      transmissions = 64.5;
      max_station_transmissions = 0;
      energy = None;
    }
  in
  Alcotest.(check string)
    "Metrics.result serialization"
    {|{"slots":120,"completed":true,"elected":true,"leader":3,"statuses":null,"jammed_slots":30,"nulls":50,"singles":10,"collisions":30,"transmissions":64.5,"max_station_transmissions":0}|}
    (Json.to_string (Metrics.result_to_json r))

let setup = { E.Runner.n = 64; eps = 0.5; window = 16; max_slots = 50_000 }
let engine = E.Runner.Uniform (E.Specs.lesk ~eps:0.5)

let test_sample_json () =
  let sample = E.Runner.replicate ~engine ~reps:4 setup E.Specs.greedy in
  let j = E.Runner.sample_to_json ~include_results:true sample in
  (* Deterministic: same cell, same JSON, byte for byte. *)
  let again = E.Runner.replicate ~engine ~reps:4 setup E.Specs.greedy in
  Alcotest.(check string)
    "sample JSON deterministic" (Json.to_string j)
    (Json.to_string (E.Runner.sample_to_json ~include_results:true again));
  (* And structurally sound under our own parser. *)
  match Json.of_string (Json.to_string j) with
  | Error e -> Alcotest.failf "sample JSON unparseable: %s" e
  | Ok j ->
      check_true "protocol recorded"
        (Option.bind (Json.member "protocol" j) Json.to_string_opt = Some "LESK(0.5)");
      check_true "adversary recorded"
        (Option.bind (Json.member "adversary" j) Json.to_string_opt = Some "greedy");
      check_true "reps recorded"
        (Option.bind (Json.member "reps" j) Json.to_int_opt = Some 4);
      (match Option.bind (Json.member "results" j) Json.to_list_opt with
      | Some l -> check_int "one result object per rep" 4 (List.length l)
      | None -> Alcotest.fail "results array missing");
      match Option.bind (Json.member "setup" j) (Json.member "n") with
      | Some (Json.Int 64) -> ()
      | _ -> Alcotest.fail "setup.n missing"

(* --- run-store codecs: the JSON decoders are exact inverses of the
   writers, floats included (DESIGN.md §11 leans on this for
   bit-identical cache hits). --- *)

let test_float_image_exact () =
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') -> check_true "float round-trips exactly" (f' = f)
      | Ok (Json.Int i) -> check_true "integral image" (float_of_int i = f)
      | Ok _ -> Alcotest.fail "float rendered as non-number"
      | Error e -> Alcotest.failf "float image unparseable: %s" e)
    [
      0.1; 1.0 /. 3.0; Float.pi; 1e-300; 6.02214076e23; 123456789.123456789;
      Float.succ 1.0; Float.pred 1.0; 2.0; 0.0;
    ];
  (* Integral floats in [1e15, 1e17) that need 17 digits keep their
     ".0" marker, so they read back as floats, not ints. *)
  List.iter
    (fun (f, image) ->
      Alcotest.(check string) (Printf.sprintf "image of %h" f) image (Json.to_string (Json.Float f));
      check_true "reads back as the same float"
        (Json.of_string image = Ok (Json.Float f)))
    [
      (0x1.3cd8c59611666p+56, "89184435778446944.0");
      (-0x1.3cd8c59611666p+56, "-89184435778446944.0");
      (Float.succ 1e15, "1000000000000000.1");
      (1e16 +. 2.0, "10000000000000002.0");
      (1e15, "1e+15");
    ]

let gen_tx_count =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> Metrics.Exact k) (int_bound 100_000);
        map (fun k -> Metrics.At_least k) (int_bound 100_000);
      ])

let test_tx_count_roundtrip =
  qtest "tx_count json round-trip"
    (QCheck.make ~print:Metrics.tx_count_to_string gen_tx_count)
    (fun t ->
      match Metrics.tx_count_of_json (Metrics.tx_count_to_json t) with
      | Ok t' -> Metrics.equal_tx_count t t'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let gen_result =
  let open QCheck.Gen in
  (* Transmissions stress the float image: ratios of large ints need the
     full 17 significant digits to survive a text round-trip. *)
  let transmissions =
    oneof
      [
        map2
          (fun a b -> float_of_int a /. float_of_int b)
          (int_bound 1_000_000_000) (int_range 1 999_983);
        map float_of_int (int_bound 1_000_000);
      ]
  in
  let status = oneofl [ Station.Leader; Station.Non_leader; Station.Undecided ] in
  let statuses =
    oneof [ return [||]; map Array.of_list (list_size (int_range 1 48) status) ]
  in
  map
    (fun ( (slots, completed, elected, leader),
           (jammed_slots, nulls, singles, collisions),
           (statuses, transmissions, max_station_transmissions) ) ->
      {
        Metrics.slots;
        completed;
        elected;
        leader;
        statuses;
        jammed_slots;
        nulls;
        singles;
        collisions;
        transmissions;
        max_station_transmissions;
        energy = None;
      })
    (triple
       (quad (int_bound 1_000_000) bool bool (opt (int_bound 4096)))
       (quad (int_bound 100_000) (int_bound 100_000) (int_bound 100_000)
          (int_bound 100_000))
       (triple statuses transmissions (int_bound 1_000)))

let test_result_roundtrip =
  qtest "result json round-trip (via text)"
    (QCheck.make ~print:(Format.asprintf "%a" Metrics.pp_result) gen_result)
    (fun r ->
      (* Through the writer AND the parser — exactly the store's path. *)
      match Json.of_string (Json.to_string (Metrics.result_to_json r)) with
      | Error e -> QCheck.Test.fail_reportf "unparseable: %s" e
      | Ok j -> (
          match Metrics.result_of_json j with
          | Ok r' -> Metrics.equal_result r r'
          | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e))

let test_result_decode_rejects_corruption () =
  let r =
    {
      Metrics.slots = 9;
      completed = true;
      elected = true;
      leader = Some 0;
      statuses = [| Station.Leader; Station.Non_leader; Station.Undecided |];
      jammed_slots = 1;
      nulls = 3;
      singles = 2;
      collisions = 3;
      transmissions = 5.5;
      max_station_transmissions = 2;
      energy = None;
    }
  in
  let tamper f =
    match Metrics.result_to_json r with
    | Json.Obj fields -> Json.Obj (List.map f fields)
    | _ -> assert false
  in
  let expect_error what j =
    match Metrics.result_of_json j with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "decoder accepted %s" what
  in
  expect_error "a dropped field"
    (match Metrics.result_to_json r with
    | Json.Obj fields -> Json.Obj (List.remove_assoc "slots" fields)
    | _ -> assert false);
  expect_error "a mistyped field"
    (tamper (function "slots", _ -> ("slots", Json.String "9") | kv -> kv));
  expect_error "counts disagreeing with packed"
    (tamper (function
      | "statuses", Json.Obj s ->
          ( "statuses",
            Json.Obj
              (List.map
                 (function "leader", _ -> ("leader", Json.Int 2) | kv -> kv)
                 s) )
      | kv -> kv));
  expect_error "a bad packed character"
    (tamper (function
      | "statuses", Json.Obj s ->
          ( "statuses",
            Json.Obj
              (List.map
                 (function "packed", _ -> ("packed", Json.String "LNX") | kv -> kv)
                 s) )
      | kv -> kv));
  (* And the untampered record decodes back to the original. *)
  match Metrics.result_of_json (Metrics.result_to_json r) with
  | Ok r' -> check_true "clean record decodes" (Metrics.equal_result r r')
  | Error e -> Alcotest.failf "clean record rejected: %s" e

(* --- aggregation determinism: the telemetry a replicate produces is
   a pure function of the cell, not of the domain count. --- *)

let test_jobs_independent_aggregation () =
  let snapshot jobs =
    let tel = T.create () in
    ignore (E.Runner.replicate ~jobs ~telemetry:tel ~engine ~reps:12 setup E.Specs.greedy);
    Json.to_string (T.to_json ~timers:false tel)
  in
  Alcotest.(check string) "jobs=1 and jobs=4 agree" (snapshot 1) (snapshot 4)

let test_replicate_telemetry_contents () =
  let tel = T.create () in
  let sample = E.Runner.replicate ~telemetry:tel ~engine ~reps:5 setup E.Specs.greedy in
  let total f = Array.fold_left (fun acc r -> acc + f r) 0 sample.E.Runner.results in
  check_int "runner.runs" 5 (T.counter_value tel "runner.runs");
  check_int "runner.slots" (total (fun r -> r.Metrics.slots))
    (T.counter_value tel "runner.slots");
  check_int "runner.jammed" (total (fun r -> r.Metrics.jammed_slots))
    (T.counter_value tel "runner.jammed");
  check_int "histogram count = reps" 5 (T.histogram_count tel "runner.slots_per_run");
  check_int "histogram sum = slots" (total (fun r -> r.Metrics.slots))
    (T.histogram_sum tel "runner.slots_per_run");
  check_true "wall timer ran" (T.timer_seconds tel "runner.wall" >= 0.0)

let test_default_sink_install () =
  let tel = T.create () in
  E.Runner.with_telemetry tel (fun () ->
      ignore (E.Runner.replicate ~engine ~reps:2 setup E.Specs.no_jamming));
  check_int "default sink receives runs" 2 (T.counter_value tel "runner.runs");
  (* Restored after the thunk: further runs are unmetered. *)
  ignore (E.Runner.replicate ~engine ~reps:2 setup E.Specs.no_jamming);
  check_int "sink restored" 2 (T.counter_value tel "runner.runs")

let suite =
  [
    ("counters", `Quick, test_counters);
    ("timers", `Quick, test_timers);
    ("histograms", `Quick, test_histograms);
    ("disabled sink is inert", `Quick, test_disabled_sink);
    ("merge and reset", `Quick, test_merge_and_reset);
    ("json golden", `Quick, test_json_golden);
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json reader golden table", `Quick, test_reader_golden);
    ("json reader on every prefix of a stored record", `Quick, test_reader_prefixes);
    test_reader_roundtrip;
    ("result json golden", `Quick, test_result_json_golden);
    ("float image exact", `Quick, test_float_image_exact);
    test_tx_count_roundtrip;
    test_result_roundtrip;
    ("result decode rejects corruption", `Quick, test_result_decode_rejects_corruption);
    ("sample json", `Quick, test_sample_json);
    ("jobs-independent aggregation", `Quick, test_jobs_independent_aggregation);
    ("replicate telemetry contents", `Quick, test_replicate_telemetry_contents);
    ("default sink install/restore", `Quick, test_default_sink_install);
  ]
