(* Quick checks of the benchmark's own arithmetic and generators. *)

open Perfbench

let close = Alcotest.float 1e-12

let test_percentiles () =
  Alcotest.check close "median, odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "median, even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "p90 interpolates" 9.1
    (Stats.percentile (List.init 11 float_of_int) 91.0);
  Alcotest.(check (option (float 0.0))) "below 40: the median alone" None (Stats.tail_percentile 39);
  Alcotest.(check (option (float 0.0))) "40: p75" (Some 75.0) (Stats.tail_percentile 40);
  Alcotest.(check (option (float 0.0))) "99: still p75" (Some 75.0) (Stats.tail_percentile 99);
  Alcotest.(check (option (float 0.0))) "100: p90" (Some 90.0) (Stats.tail_percentile 100);
  Alcotest.(check (option (float 0.0))) "1000: p99" (Some 99.0) (Stats.tail_percentile 1000)

let test_geomean () =
  Alcotest.check close "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  Alcotest.check close "one value" 0.125 (Stats.geomean [ 0.125 ]);
  Alcotest.check_raises "non-positive" (Invalid_argument "Stats.geomean: non-positive")
    (fun () -> ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_schedule () =
  let a = Gen.certifyd_schedule ~seed:7 ~seconds:30.0 in
  let b = Gen.certifyd_schedule ~seed:7 ~seconds:30.0 in
  let c = Gen.certifyd_schedule ~seed:8 ~seconds:30.0 in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  Alcotest.(check bool) "other seed, other schedule" false (a = c);
  Alcotest.(check int) "size" (Gen.schedule_size ~seconds:30.0) (List.length a);
  let count cls l = List.length (List.filter (fun r -> r.Gen.cls = cls) l) in
  List.iter
    (fun cls -> Alcotest.(check int) "class shares do not depend on the seed" (count cls a) (count cls c))
    Gen.[ Distinct; Variant; Repeat ];
  let dues = List.map (fun r -> r.Gen.due) a in
  Alcotest.(check bool) "arrivals in order" true (List.sort compare dues = dues);
  (* a repeat comes after its original, two seconds of arrivals later *)
  List.iteri
    (fun k r ->
      if r.Gen.cls = Gen.Repeat then
        let first =
          List.find (fun x -> x.Gen.cls <> Gen.Repeat && x.Gen.query = r.Gen.query) a
        in
        let pos = List.length (List.filter (fun x -> x.Gen.due < first.Gen.due) a) in
        Alcotest.(check bool) "repeat after its original" true (k - pos > int_of_float (2.0 *. Gen.rate)))
    a;
  let keys l = List.sort compare (List.map (fun r -> Gen.key r.Gen.query) l) in
  Alcotest.(check (list string)) "same queries, whatever the seed" (keys a) (keys c)

let test_lists () =
  Alcotest.(check bool) "radius list repeats" true
    (Gen.radius_queries ~seed:3 = Gen.radius_queries ~seed:3);
  Alcotest.(check bool) "precise list repeats" true
    (Gen.precise_jobs ~seed:3 = Gen.precise_jobs ~seed:3);
  let sorted l = List.sort compare (List.map Gen.key l) in
  Alcotest.(check (list string)) "a seed only orders the radius list"
    (sorted Gen.radius_set) (sorted (Gen.radius_queries ~seed:11))

(* Every metric the runs print is declared in BENCHMARK.json with the
   same unit, and nothing else is. *)
let test_declared () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let occurrences sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length text then acc
      else go (i + 1) (if String.sub text i n = sub then acc + 1 else acc)
    in
    go 0 0
  in
  let declared = Common.end_to_end_units @ Common.per_layer_units in
  List.iter
    (fun (name, unit) ->
      Alcotest.(check int) name 1
        (occurrences (Printf.sprintf "{\"name\": %S, \"unit\": %S" name unit)))
    declared;
  Alcotest.(check int) "no other metric" (List.length declared) (occurrences "\"unit\": ")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentiles;
          Alcotest.test_case "geomean" `Quick test_geomean;
        ] );
      ( "gen",
        [
          Alcotest.test_case "poisson schedule" `Quick test_schedule;
          Alcotest.test_case "query lists" `Quick test_lists;
        ] );
      ("metrics", [ Alcotest.test_case "declared in BENCHMARK.json" `Quick test_declared ]);
    ]
