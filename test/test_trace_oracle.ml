(* Trace-identity oracle for the engine's scheduling internals.

   The predicate sweep and the processor-sharing CPU scheduler may be
   re-implemented for speed, but never observably: every trace entry, CPU
   total and report figure must stay bit-identical. These tests pin one
   digest over every trace entry (plus the exact CPU ledger, printed with
   %h) of three fixed campaigns, and check that the campaigns exercise
   every kind of work a sweep visit can do, so that the digests actually
   cover them:

   - the sanitized invariant matrix (the [@check] matrix, 2 seeds);
   - the fault-injection smoke campaign ([@fuzz-smoke], 2 seeds);
   - the site-failure smoke campaign ([@site-smoke], 2 seeds).

   Traced runs take the per-message delivery path, so the bulk
   (untraced) delivery to several world copies gets its own small
   scenario below, pinned the same way. *)

let check = Alcotest.check

(* One cell's contribution: its trace as JSON lines plus the figures
   that read the CPU ledger, bit-exact. *)
let cell_text engine extra =
  Trace.to_jsonl (Engine.trace engine)
  ^ Printf.sprintf "cpu=%h events=%d scanned=%d|%s\n"
      (Engine.total_cpu_time engine)
      (Engine.stats_events_processed engine)
      (Engine.stats_mailbox_scanned engine)
      extra

let report_text (r : 'a Concurrent.report) =
  Printf.sprintf "elapsed=%h setup=%h sel=%h wasted=%h cow=%d sync=%d att=%d"
    r.Concurrent.elapsed r.Concurrent.setup_cost r.Concurrent.selection_cost
    r.Concurrent.wasted_cpu r.Concurrent.child_cow_copies
    r.Concurrent.sync_messages r.Concurrent.attempted

(* A digest over the per-cell digests, in cell order. *)
let digest_cells texts =
  let buf = Buffer.create 4096 in
  List.iter (fun s -> Buffer.add_string buf (Digest.to_hex (Digest.string s))) texts;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents buf))) 0 16

let matrix_runs =
  lazy
    (Array.to_list (Invariants.matrix_cells ~seeds:2 ())
    |> List.map (fun (c : Invariants.cell) ->
           Invariants.run_scenario ~sanitize:true c.Invariants.cell_scenario
             ~policy:c.Invariants.cell_policy ~seed:c.Invariants.cell_seed))

let test_matrix_digest () =
  let runs = Lazy.force matrix_runs in
  check Alcotest.int "cells" 192 (List.length runs);
  let d =
    digest_cells
      (List.map
         (fun (rr : Invariants.run) ->
           cell_text rr.Invariants.engine (report_text rr.Invariants.report))
         runs)
  in
  check Alcotest.string "sanitized matrix trace digest" "47f3885997d53485" d

let test_fuzz_digest () =
  let cells = Array.to_list (Fuzz.cells ~seeds:2 ()) in
  let d =
    digest_cells
      (List.map
         (fun c ->
           let rr, _ = Fuzz.run_cell c in
           cell_text rr.Invariants.engine (Fuzz.summary c rr))
         cells)
  in
  check Alcotest.string "fuzz smoke trace digest" "b373e51f103e7a30" d

let test_sites_digest () =
  let cells = Array.to_list (Sitefuzz.cells ~seeds:2 ()) in
  let d =
    digest_cells
      (List.map
         (fun c ->
           let r = Sitefuzz.run_cell c in
           cell_text r.Sitefuzz.sf_engine (Sitefuzz.summary r))
         cells)
  in
  check Alcotest.string "site smoke trace digest" "6e81f9df56b8c70b" d

(* ---------------- small scenarios -------------------------------- *)

let status_text eng pid =
  match Engine.status eng pid with
  | Some Engine.Exited_ok -> "ok"
  | Some (Engine.Exited_failed m) -> "failed " ^ m
  | Some (Engine.Crashed m) -> "crashed " ^ m
  | Some (Engine.Eliminated m) -> "eliminated " ^ m
  | None -> "live"

(* The scenario's observable text: a log the bodies append to, then the
   exit status and exact CPU time of every pid. *)
let outcome eng log =
  let pids = List.init 512 Pid.of_int in
  Buffer.contents log
  ^ String.concat ","
      (List.filter_map
         (fun p ->
           match Engine.name_of eng p with
           | None -> None
           | Some _ ->
             Some
               (Printf.sprintf "%s:%s:%h" (Pid.to_string p) (status_text eng p)
                  (Engine.cpu_time_of eng p)))
         pids)

let note log ctx what =
  Printf.bprintf log "%h %s %s;" (Engine.now_v ctx)
    (Pid.to_string (Engine.self ctx))
    what

let take log ctx =
  let m = Engine.receive ctx () in
  note log ctx (Payload.to_string m.Message.payload)

(* A process assuming its own completion, like an alternative. *)
let speculative eng pid =
  Engine.spawn eng ~pid ~predicate:(Predicate.make ~must_complete:[ pid ] ~must_fail:[])

(* A cloneable receiver splits on a message from an uncertain sender
   [s1], so its logical pid has two world copies. A certain sender then
   sends two messages back to back, which travel as one delivery batch.
   Untraced, the batch is handed to both copies before either is
   rescanned; the first copy wakes, takes a message and aborts, and the
   fate it records runs a sweep while the second copy still holds the
   batch unscanned: that sweep must let the second copy take the batch
   before it kills [z], whose predicate assumed the first copy completes
   and whose exit is logged. Finally [s1] completes, which kills the
   rejecting copy as a dead world. *)
let bulk_scenario ~trace =
  let eng = Engine.create ~seed:5 ~trace () in
  let log = Buffer.create 256 in
  let s1 = List.hd (Engine.fresh_pids eng 1) in
  let r = ref s1 in
  r :=
    Engine.spawn eng ~name:"receiver" (fun ctx ->
        take log ctx;
        take log ctx;
        if Pid.equal (Engine.self ctx) !r then Engine.abort ctx "original gives up";
        take log ctx;
        take log ctx);
  ignore
    (speculative eng s1 ~name:"s1" (fun ctx ->
         Engine.send ctx !r (Payload.Str "from-s1");
         Engine.delay ctx 5.0));
  ignore
    (Engine.spawn eng ~name:"s2" ~start_delay:1.0 (fun ctx ->
         Engine.send ctx !r (Payload.Str "a");
         Engine.send ctx !r (Payload.Str "b");
         Engine.delay ctx 1.0));
  (* Spawned after the split, so its pid is above the clone's. *)
  Engine.after eng ~delay:0.5 (fun () ->
      let z =
        Engine.spawn eng ~name:"z"
          ~predicate:(Predicate.make ~must_complete:[ !r ] ~must_fail:[])
          (fun ctx -> ignore (Engine.receive ctx ~tag:"never" ()))
      in
      Engine.on_exit eng z (fun _ ->
          Printf.bprintf log "%h z exits;" (Engine.now eng)));
  Engine.run eng;
  (eng, !r, outcome eng log)

(* Non-cloneable receivers cannot split, so a message needing new
   assumptions is deferred, and every later sweep rescans it (traced, each
   rescan repeats the Ignored entry) until the sender's fate is known.
   [good] completes, so its messages are finally accepted in FIFO order;
   [bad] fails, so its message is dropped as a dead world. A certain
   sender's message is accepted past the deferred ones meanwhile, and
   unrelated ticker exits drive the sweeps in between. *)
let deferral_scenario ~trace =
  let eng = Engine.create ~seed:6 ~trace ~cores:(Engine.Cores 2) () in
  let log = Buffer.create 256 in
  let specs = Engine.fresh_pids eng 2 in
  let good = List.nth specs 0 and bad = List.nth specs 1 in
  let recv name =
    Engine.spawn eng ~cloneable:false ~name (fun ctx ->
        for _ = 1 to 3 do
          take log ctx
        done)
  in
  let r1 = recv "r1" and r2 = recv "r2" in
  ignore
    (speculative eng good ~name:"good" (fun ctx ->
         Engine.send ctx r1 (Payload.Str "g1");
         Engine.send ctx r1 (Payload.Str "g2");
         Engine.delay ctx 4.0));
  ignore
    (speculative eng bad ~name:"bad" (fun ctx ->
         Engine.send ctx r2 (Payload.Str "b1");
         Engine.delay ctx 3.0;
         Engine.abort ctx "bad fails"));
  List.iteri
    (fun i d ->
      ignore
        (Engine.spawn eng ~name:(Printf.sprintf "ticker%d" i) ~start_delay:d
           (fun ctx -> Engine.delay ctx 0.25)))
    [ 0.5; 1.0; 1.5; 2.5 ];
  ignore
    (Engine.spawn eng ~name:"certain" ~start_delay:2.0 (fun ctx ->
         Engine.send ctx r1 (Payload.Str "c1");
         Engine.send ctx r2 (Payload.Str "c2");
         Engine.delay ctx 3.0;
         Engine.send ctx r2 (Payload.Str "c3");
         Engine.send ctx r2 (Payload.Str "c4")));
  Engine.run eng;
  (eng, outcome eng log)

(* Fates decided in the middle of a sweep pass. [x] fails; [a] assumed it
   completes and dies as a dead world while the pass is at [a]; of the
   processes assuming [a] completes, [b] (above [a]) dies in the same
   pass, [c] (below [a]) and [d] (spawned by [a]'s exit watcher, so born
   mid-pass) in the next one. The Killed order pins that. *)
let cursor_scenario ~trace =
  let eng = Engine.create ~seed:7 ~trace () in
  let log = Buffer.create 256 in
  let pids = Engine.fresh_pids eng 4 in
  let x = List.nth pids 0 and c = List.nth pids 1 in
  let a = List.nth pids 2 and b = List.nth pids 3 in
  let waiter ctx = ignore (Engine.receive ctx ~tag:"never" ()) in
  let on pid = Predicate.make ~must_complete:[ pid ] ~must_fail:[] in
  ignore
    (Engine.spawn eng ~pid:x ~name:"x" (fun ctx ->
         Engine.delay ctx 1.0;
         Engine.abort ctx "x fails"));
  ignore (Engine.spawn eng ~pid:c ~name:"c" ~predicate:(on a) waiter);
  ignore (Engine.spawn eng ~pid:a ~name:"a" ~predicate:(on x) waiter);
  ignore (Engine.spawn eng ~pid:b ~name:"b" ~predicate:(on a) waiter);
  Engine.on_exit eng a (fun _ ->
      ignore (Engine.spawn eng ~name:"d" ~predicate:(on a) waiter));
  Engine.run eng;
  (eng, outcome eng log)

(* A receiver adopts the assumption that a sender completes after that
   sender already failed: the accepting world is dead on arrival, and the
   next sweep (a ticker's exit) kills it, while the rejecting clone's
   predicate simplifies to certain. *)
let adopt_decided_scenario ~trace =
  let eng = Engine.create ~seed:8 ~trace () in
  let log = Buffer.create 256 in
  let pids = Engine.fresh_pids eng 2 in
  let y = List.nth pids 0 and s = List.nth pids 1 in
  let r =
    Engine.spawn eng ~name:"r" (fun ctx ->
        Engine.delay ctx 2.0;
        take log ctx;
        take log ctx)
  in
  ignore (speculative eng y ~name:"y" (fun ctx -> Engine.delay ctx 10.0));
  ignore
    (Engine.spawn eng ~pid:s ~name:"s"
       ~predicate:(Predicate.make ~must_complete:[ y ] ~must_fail:[])
       (fun ctx ->
         Engine.send ctx r (Payload.Str "from-s");
         Engine.delay ctx 0.5;
         Engine.abort ctx "s fails"));
  ignore
    (Engine.spawn eng ~name:"ticker" ~start_delay:3.0 (fun ctx ->
         Engine.delay ctx 0.5));
  ignore
    (Engine.spawn eng ~name:"late" ~start_delay:5.0 (fun ctx ->
         Engine.send ctx r (Payload.Str "late")));
  Engine.run eng;
  (eng, outcome eng log)

(* Deferred fates settle in their order. [d1] (deferred last, so first in
   order) settles once [x] completes; that makes [d2] settle in the same
   walk, before the next pass kills [m], which assumed [d1] fails. [d1]'s
   resolution also wakes [w], whose fate is deferred during the walk and
   so settles after the older [e] once [y] completes. *)
let settle_scenario ~trace =
  let eng = Engine.create ~seed:10 ~trace () in
  let log = Buffer.create 256 in
  let pids = Engine.fresh_pids eng 7 in
  let pid i = List.nth pids i in
  let x = pid 0 and y = pid 1 and d1 = pid 2 and d2 = pid 3 in
  let m = pid 4 and e = pid 5 and w = pid 6 in
  let on ?(fails = []) completes = Predicate.make ~must_complete:completes ~must_fail:fails in
  let exits_after d ctx = Engine.delay ctx d in
  ignore (Engine.spawn eng ~pid:x ~name:"x" (exits_after 3.0));
  ignore (Engine.spawn eng ~pid:y ~name:"y" (exits_after 4.0));
  ignore (Engine.spawn eng ~pid:e ~name:"e" ~predicate:(on [ y ]) (exits_after 0.5));
  ignore (Engine.spawn eng ~pid:d2 ~name:"d2" ~predicate:(on [ d1 ]) (exits_after 1.0));
  ignore (Engine.spawn eng ~pid:d1 ~name:"d1" ~predicate:(on [ x ]) (exits_after 2.0));
  ignore
    (Engine.spawn eng ~pid:m ~name:"m" ~predicate:(on ~fails:[ d1 ] [])
       (fun ctx -> ignore (Engine.receive ctx ~tag:"never" ())));
  let iv = Engine.Ivar.create () in
  ignore
    (Engine.spawn eng ~pid:w ~name:"w" ~predicate:(on [ y ]) (fun ctx ->
         Engine.Ivar.read ctx iv;
         note log ctx "w woken"));
  Engine.on_resolution eng d1 (fun _ -> ignore (Engine.Ivar.try_fill iv ()));
  Engine.run eng;
  (eng, outcome eng log)

(* Processor sharing with many tasks starting together: the per-pid CPU
   ledger and its total are pinned bit-exactly. Work spans four orders
   of magnitude, so the total can depend on the order the ledger sums
   in (it does at seed 5). Some tasks are killed mid-way, some start
   after others finished. *)
let cpu_scenario ~seed ~trace =
  let eng = Engine.create ~seed ~trace ~cores:(Engine.Cores 3) () in
  let log = Buffer.create 256 in
  let rng = Rng.create ~seed in
  let procs =
    List.init 300 (fun i ->
        let work = 10. ** Rng.uniform_in rng ~lo:(-3.) ~hi:1. in
        let start = float_of_int (i mod 7) *. 0.05 in
        Engine.spawn eng ~name:(Printf.sprintf "w%d" i) ~start_delay:start
          (fun ctx ->
            Engine.delay ctx work;
            Engine.delay ctx (work /. 3.)))
  in
  List.iteri
    (fun i p -> if i mod 11 = 0 then Engine.after eng ~delay:0.4 (fun () -> Engine.kill eng p ~reason:"cut"))
    procs;
  Engine.run eng;
  Printf.bprintf log "total=%h" (Engine.total_cpu_time eng);
  (eng, outcome eng log)

(* The CPU paths the digests above need not force, each in its own
   small scenario: the task holding the minimum remaining work is killed
   (alone, and tied with another); several tasks finish at one tick;
   zero, negative and sub-threshold work; a task added at the instant
   another finishes, both before that finish's tick runs and from the
   finished task's own resumption. *)
let cpu_kill_min_scenario ~trace =
  let eng = Engine.create ~seed:11 ~trace ~cores:(Engine.Cores 2) () in
  let log = Buffer.create 256 in
  let worker name work =
    Engine.spawn eng ~name (fun ctx ->
        Engine.delay ctx work;
        note log ctx "done")
  in
  let least = worker "least" 0.3 in
  List.iteri (fun i w -> ignore (worker (Printf.sprintf "w%d" i) w)) [ 0.9; 1.5; 2.0 ];
  let tie_a = worker "tie-a" 0.6 in
  ignore (worker "tie-b" 0.6);
  Engine.after eng ~delay:0.2 (fun () -> Engine.kill eng least ~reason:"cut min");
  Engine.after eng ~delay:1.0 (fun () -> Engine.kill eng tie_a ~reason:"cut tie");
  Engine.run eng;
  Printf.bprintf log "total=%h" (Engine.total_cpu_time eng);
  (eng, outcome eng log)

let cpu_tie_scenario ~trace =
  let eng = Engine.create ~seed:12 ~trace ~cores:(Engine.Cores 3) () in
  let log = Buffer.create 256 in
  let worker ?(start_delay = 0.) name work =
    ignore
      (Engine.spawn eng ~name ~start_delay (fun ctx ->
           Engine.delay ctx work;
           note log ctx "done"))
  in
  for i = 0 to 5 do
    worker (Printf.sprintf "same%d" i) 0.75
  done;
  worker "long-a" 2.0;
  worker "long-b" 2.0;
  (* Under sharing at rate 3/8 then 1, [early] and [late] finish
     together: their remaining work reaches zero at one update. *)
  worker ~start_delay:3.0 "early" 1.0;
  worker ~start_delay:3.5 "late" 0.5;
  Engine.run eng;
  Printf.bprintf log "total=%h" (Engine.total_cpu_time eng);
  (eng, outcome eng log)

let cpu_zero_work_scenario ~trace =
  let eng = Engine.create ~seed:13 ~trace ~cores:(Engine.Cores 1) () in
  let log = Buffer.create 256 in
  ignore
    (Engine.spawn eng ~name:"busy" (fun ctx ->
         Engine.delay ctx 1.0;
         note log ctx "busy done"));
  List.iteri
    (fun i work ->
      ignore
        (Engine.spawn eng ~name:(Printf.sprintf "z%d" i) ~start_delay:0.25
           (fun ctx ->
             Engine.delay ctx work;
             note log ctx "after";
             Engine.delay ctx work;
             note log ctx "again")))
    [ 0.; -1.; 1e-13; 5e-13; 0.125 ];
  Engine.run eng;
  Printf.bprintf log "total=%h" (Engine.total_cpu_time eng);
  (eng, outcome eng log)

let cpu_add_at_finish_scenario ~trace =
  let eng = Engine.create ~seed:14 ~trace ~cores:(Engine.Cores 1) () in
  let log = Buffer.create 256 in
  ignore
    (Engine.spawn eng ~name:"first" (fun ctx ->
         Engine.delay ctx 1.0;
         note log ctx "first done";
         Engine.delay ctx 0.5;
         note log ctx "first again"));
  (* Its start event is older than the tick that finishes [first]. *)
  ignore
    (Engine.spawn eng ~name:"joiner" ~start_delay:1.0 (fun ctx ->
         Engine.delay ctx 0.25;
         note log ctx "joiner done"));
  Engine.after eng ~delay:0.5 (fun () ->
      ignore
        (Engine.spawn eng ~name:"spawned" ~start_delay:0.5 (fun ctx ->
             Engine.delay ctx 0.5;
             note log ctx "spawned done")));
  Engine.run eng;
  Printf.bprintf log "total=%h" (Engine.total_cpu_time eng);
  (eng, outcome eng log)

let cpu_edge_scenarios =
  [
    ("cpu-kill-min", cpu_kill_min_scenario);
    ("cpu-tie", cpu_tie_scenario);
    ("cpu-zero-work", cpu_zero_work_scenario);
    ("cpu-add-at-finish", cpu_add_at_finish_scenario);
  ]

let scenarios =
  [
    ("bulk", fun ~trace -> let e, _, o = bulk_scenario ~trace in (e, o));
    ("deferral", deferral_scenario);
    ("cursor", cursor_scenario);
    ("adopt-decided", adopt_decided_scenario);
    ("settle", settle_scenario);
  ]
  @ List.init 8 (fun i -> (Printf.sprintf "cpu-%d" (i + 1), cpu_scenario ~seed:(i + 1)))

let test_scenarios_digest () =
  let texts =
    List.concat_map
      (fun (_, run) ->
        List.map
          (fun trace ->
            let eng, o = run ~trace in
            cell_text eng o)
          [ true; false ])
      scenarios
  in
  check Alcotest.string "scenario digest" "2891e9f60dfc41f6" (digest_cells texts)

let test_cpu_edge_digest () =
  let texts =
    List.concat_map
      (fun (_, run) ->
        List.map
          (fun trace ->
            let eng, o = run ~trace in
            cell_text eng o)
          [ true; false ])
      cpu_edge_scenarios
  in
  check Alcotest.string "cpu edge digest" "09180512b34d193e" (digest_cells texts)

(* The tie scenario does finish several tasks at one instant. *)
let test_cpu_tie_finishes_together () =
  let eng, _ = cpu_tie_scenario ~trace:true in
  let times =
    List.filter_map
      (function t, Trace.Exited _ -> Some t | _ -> None)
      (Trace.events (Engine.trace eng))
  in
  let most =
    List.fold_left
      (fun acc t -> max acc (List.length (List.filter (Float.equal t) times)))
      0 times
  in
  if most < 6 then Alcotest.failf "at most %d exits share an instant" most

(* Every effect a sweep visit can have must occur in the pinned runs: a
   dead world killed, a deferred fate, a deferred (non-cloneable)
   acceptance that is rescanned, a world split. The matrix alone covers
   only some of them; the scenarios above cover the rest. *)
let test_sweep_effects_covered () =
  let engines =
    List.map (fun (rr : Invariants.run) -> rr.Invariants.engine) (Lazy.force matrix_runs)
    @ List.map (fun (_, run) -> fst (run ~trace:true)) scenarios
  in
  let count f =
    List.fold_left (fun acc e -> acc + Trace.count (Engine.trace e) ~f) 0 engines
  in
  let positive name n =
    if n <= 0 then Alcotest.failf "%s: no occurrence in the pinned runs" name
  in
  positive "Killed dead world"
    (count (function Trace.Killed { reason = "dead world"; _ } -> true | _ -> false));
  positive "Fate_deferred" (count (function Trace.Fate_deferred _ -> true | _ -> false));
  positive "Ignored deferred"
    (count (function
      | Trace.Ignored { reason = "deferred (receiver not cloneable)"; _ } -> true
      | _ -> false));
  positive "Split" (count (function Trace.Split _ -> true | _ -> false))

(* The bulk scenario really takes the multi-copy bulk path when
   untraced: traced, the same batch is visible landing on a receiver
   that has already split (batching does not depend on tracing). *)
let test_bulk_multi_copy () =
  let eng, r, _ = bulk_scenario ~trace:true in
  let rec split_then_batch seen_split = function
    | [] -> false
    | (_, Trace.Split { original; _ }) :: rest when Pid.equal original r ->
      split_then_batch true rest
    | (_, Trace.Delivered_batch { dest; count; _ }) :: _
      when seen_split && Pid.equal dest r && count = 2 ->
      true
    | _ :: rest -> split_then_batch seen_split rest
  in
  check Alcotest.bool "batch of 2 reaches a split receiver" true
    (split_then_batch false (Trace.events (Engine.trace eng)))

let () =
  Alcotest.run "trace_oracle"
    [
      ( "oracle",
        [
          Alcotest.test_case "sanitized matrix digest" `Quick test_matrix_digest;
          Alcotest.test_case "fuzz smoke digest" `Quick test_fuzz_digest;
          Alcotest.test_case "site smoke digest" `Quick test_sites_digest;
          Alcotest.test_case "world and cpu scenarios digest" `Quick
            test_scenarios_digest;
          Alcotest.test_case "sweep effects covered" `Quick
            test_sweep_effects_covered;
          Alcotest.test_case "bulk delivery to world copies" `Quick
            test_bulk_multi_copy;
          Alcotest.test_case "cpu edge scenarios digest" `Quick
            test_cpu_edge_digest;
          Alcotest.test_case "tied tasks finish together" `Quick
            test_cpu_tie_finishes_together;
        ] );
    ]
