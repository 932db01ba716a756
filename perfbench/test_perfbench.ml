(* Tests for the benchmark's own arithmetic: the tail-percentile rule,
   ratio bases, span self time and coverage, the reference unit, and the
   determinism of the crowd generator. *)

open Perfbench

let check = Alcotest.check
let close = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* The percentile rule: the highest percentile with at least ten
   samples beyond it.                                                  *)

let test_tail_rule () =
  let rule n = Pb_stats.tail_percentile n in
  let opt = Alcotest.(option (float 0.)) in
  check opt "19 samples: none" None (rule 19);
  check opt "20 samples: p50" (Some 50.) (rule 20);
  check opt "99 samples: p50" (Some 50.) (rule 99);
  check opt "100 samples: p90" (Some 90.) (rule 100);
  check opt "999 samples: p90" (Some 90.) (rule 999);
  check opt "1000 samples: p99" (Some 99.) (rule 1000);
  check opt "9999 samples: p99" (Some 99.) (rule 9999);
  check opt "10000 samples: p99.9" (Some 99.9) (rule 10000);
  check Alcotest.int "1000 leave 10 beyond p99" 10 (Pb_stats.beyond ~n:1000 990);
  check Alcotest.int "10000 leave 10 beyond p99.9" 10 (Pb_stats.beyond ~n:10000 999)

let test_admissible () =
  let opt = Alcotest.(option (float 0.)) in
  check opt "p99 kept at 2112 samples" (Some 99.) (Pb_stats.admissible ~n:2112 99.);
  check opt "p99 falls back to p90 at 500" (Some 90.) (Pb_stats.admissible ~n:500 99.);
  check opt "p50 kept at 20" (Some 50.) (Pb_stats.admissible ~n:20 50.);
  check opt "nothing below 20" None (Pb_stats.admissible ~n:10 50.)

let test_percentile_matches_stats () =
  let xs = Array.init 101 (fun i -> float_of_int ((i * 37) mod 101)) in
  check close "median of 0..100" 50. (Pb_stats.median xs);
  check close "p99 interpolates" 99. (Pb_stats.percentile xs 99.);
  check close "same as Stats.percentile" (Stats.percentile xs ~p:90.)
    (Pb_stats.percentile xs 90.);
  check close "empty input reads 0" 0. (Pb_stats.percentile [||] 50.)

let test_samples () =
  let s = Pb_stats.Samples.create () in
  for i = 1 to 5000 do Pb_stats.Samples.add s (float_of_int i) done;
  let a = Pb_stats.Samples.to_array s in
  check Alcotest.int "every sample kept across growth" 5000 (Array.length a);
  check close "order kept" 4321. a.(4320)

(* ------------------------------------------------------------------ *)
(* Ratios carry their base.                                            *)

let test_ratio_bases () =
  let shed = Pb_stats.ratio ~base_name:"arrivals" 139. 20000. in
  check close "shed / arrivals" 0.00695 shed.Pb_stats.value;
  check Alcotest.string "base named" "arrivals" shed.Pb_stats.base_name;
  check close "base kept" 20000. shed.Pb_stats.base;
  check close "admit ratio is the complement" 0.99305
    (Pb_stats.complement shed).Pb_stats.value;
  let none = Pb_stats.ratio ~base_name:"spawned" 0. 0. in
  check close "empty base reads 0" 0. none.Pb_stats.value;
  check close "its complement too" 0. (Pb_stats.complement none).Pb_stats.value;
  check Alcotest.bool "printed with its base" true
    (String.ends_with ~suffix:"(139 / 20000 arrivals)" (Pb_stats.pp_ratio shed));
  Alcotest.check_raises "negative terms rejected"
    (Invalid_argument "Pb_stats.ratio: negative term") (fun () ->
      ignore (Pb_stats.ratio ~base_name:"x" (-1.) 2.))

(* ------------------------------------------------------------------ *)
(* Self time and coverage.                                             *)

let span id name parent t0 t1 = { Span.id; name; parent; op = -1; t0; t1; words = 0. }

let test_self_time () =
  (* root [0,10] with children [1,3], [2,5] (overlapping) and [8,12]
     (running past its parent); a grandchild under [1,3] does not count
     against the root. *)
  let spans =
    [|
      span 0 "root" (-1) 0. 10.;
      span 1 "a" 0 1. 3.;
      span 2 "b" 0 2. 5.;
      span 3 "c" 0 8. 12.;
      span 4 "a.child" 1 1.5 2.5;
    |]
  in
  let self = Span.self_times spans in
  check close "root: 10 - |[1,5] u [8,10]|" 4. self.(0);
  check close "a: 2 - 1 covered by its child" 1. self.(1);
  check close "leaf: whole duration" 3. self.(2);
  check close "grandchild: whole duration" 1. self.(4);
  Alcotest.check_raises "ids must be dense"
    (Invalid_argument "Span.self_times: ids not dense") (fun () ->
      ignore (Span.self_times [| span 1 "x" (-1) 0. 1. |]))

let test_coverage () =
  let spans =
    [| span 0 "harness" (-1) 0. 10.; span 1 "l1" 0 1. 4.; span 2 "l2" 0 3. 6. |]
  in
  let layer s = s.Span.name <> "harness" in
  check close "layers cover [1,6] of [0,10]" 0.5
    (Span.coverage spans ~lo:0. ~hi:10. ~select:layer);
  check close "clipped to the window" 1.
    (Span.coverage spans ~lo:2. ~hi:5. ~select:layer);
  check close "empty window" 0. (Span.coverage spans ~lo:3. ~hi:3. ~select:layer)

let test_recorder () =
  let t = Span.create ~enabled:true () in
  let v =
    Span.with_ t ~op:7 "outer" (fun () ->
        ignore (Span.with_ t "inner" (fun () -> 1));
        (try Span.with_ t "raises" (fun () -> failwith "boom") with Failure _ -> 0) + 41)
  in
  check Alcotest.int "value returned" 41 v;
  let s = Span.spans t in
  check Alcotest.(list string) "names in start order" [ "outer"; "inner"; "raises" ]
    (Array.to_list (Array.map (fun s -> s.Span.name) s));
  check Alcotest.(list int) "parents" [ -1; 0; 0 ]
    (Array.to_list (Array.map (fun s -> s.Span.parent) s));
  check Alcotest.int "op id kept" 7 s.(0).Span.op;
  check Alcotest.bool "children inside the parent" true
    (s.(1).Span.t0 >= s.(0).Span.t0 && s.(2).Span.t1 <= s.(0).Span.t1);
  let off = Span.create ~enabled:false () in
  check Alcotest.int "disabled recorder runs the call" 3
    (Span.with_ off "x" (fun () -> 3));
  check Alcotest.int "and records nothing" 0 (Array.length (Span.spans off))

let test_summarize () =
  let spans =
    [| span 0 "p" (-1) 0. 4.; span 1 "q" 0 1. 2.; span 2 "p" (-1) 5. 6. |]
  in
  match Span.summarize spans with
  | [ p; q ] ->
      check Alcotest.string "first-start order" "p" p.Span.s_name;
      check Alcotest.int "two p spans" 2 p.Span.s_count;
      check close "p total" 5. p.Span.s_total;
      check close "p self" 4. p.Span.s_self;
      check close "q total" 1. q.Span.s_total
  | l -> Alcotest.failf "expected 2 summaries, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* The crowd generator.                                                *)

let small seed = { (Crowd.default ~seed) with Crowd.parents = 12; blocks = 2 }

let test_crowd_determinism () =
  let a = Crowd.generate (small 3) and b = Crowd.generate (small 3) in
  check Alcotest.bool "same seed, same costs" true (a.Crowd.costs = b.Crowd.costs);
  let ra = Crowd.run (Crowd.build a) and rb = Crowd.run (Crowd.build b) in
  check Alcotest.int "same event count" ra.Crowd.events rb.Crowd.events;
  check Alcotest.int64 "same winners digest" (Crowd.winners_digest ra)
    (Crowd.winners_digest rb);
  check Alcotest.int "every block picks its cheapest" 0 (Crowd.wrong_winners a ra);
  check Alcotest.int "one report per block" 24 (Array.length ra.Crowd.reports);
  let c = Crowd.generate (small 4) in
  let rc = Crowd.run (Crowd.build c) in
  check Alcotest.bool "another seed, another digest" false
    (Int64.equal (Crowd.winners_digest ra) (Crowd.winners_digest rc))

let test_crowd_costs_separated () =
  let input = Crowd.generate { (Crowd.default ~seed:9) with Crowd.parents = 50 } in
  Array.iter
    (Array.iter (fun costs ->
         let sorted = Array.copy costs in
         Array.sort compare sorted;
         for i = 1 to Array.length sorted - 1 do
           if sorted.(i) -. sorted.(i - 1) < Crowd.min_separation then
             Alcotest.failf "costs %g and %g closer than the separation" sorted.(i - 1)
               sorted.(i)
         done;
         check Alcotest.bool "cheapest found" true
           (costs.(Crowd.cheapest costs) = sorted.(0))))
    input.Crowd.costs

(* ------------------------------------------------------------------ *)
(* The reference unit.                                                 *)

let test_calib_kernel () =
  check Alcotest.int "the kernel is the pinned one" Calib.checksum (Calib.work ());
  check Alcotest.int "and repeats" (Calib.work ()) (Calib.work ());
  let u = Calib.unit_s ~budget:0. () in
  check Alcotest.bool "a unit takes some time" true (u > 0.)

let test_ref_seconds () =
  let r = Calib.ref_unit_s in
  check close "a host at reference speed: wall time unchanged" 2.
    (Calib.ref_seconds ~wall:2. ~unit_s:r);
  check close "a host at half speed: half the wall time" 1.
    (Calib.ref_seconds ~wall:2. ~unit_s:(2. *. r));
  check close "a host at twice the speed: twice the wall time" 4.
    (Calib.ref_seconds ~wall:2. ~unit_s:(r /. 2.))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "admissible percentile" `Quick test_admissible;
          Alcotest.test_case "interpolation" `Quick test_percentile_matches_stats;
          Alcotest.test_case "sample buffer" `Quick test_samples;
        ] );
      ("ratio", [ Alcotest.test_case "bases" `Quick test_ratio_bases ]);
      ( "span",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "coverage" `Quick test_coverage;
          Alcotest.test_case "recorder" `Quick test_recorder;
          Alcotest.test_case "summaries" `Quick test_summarize;
        ] );
      ( "calib",
        [
          Alcotest.test_case "kernel pinned" `Quick test_calib_kernel;
          Alcotest.test_case "reference seconds" `Quick test_ref_seconds;
        ] );
      ( "crowd",
        [
          Alcotest.test_case "generator determinism" `Quick test_crowd_determinism;
          Alcotest.test_case "costs separated" `Quick test_crowd_costs_separated;
        ] );
    ]
