(* The repository's benchmark: four workloads driven through the public
   functions of the library modules, timed on the host clock (stated in
   reference seconds, see calib.ml), with the modelled machine's virtual
   clock reported alongside.

     bench.exe --workload serve|overload|sweep|crowd --seed N
               --seconds S --trace 0|1 --source ID
               --anchor DIGEST,P50,P99,SEED,REQUESTS

   With --trace 0 it reports the end-to-end metrics; with --trace 1 it
   alternates untraced passes with passes that record spans around every
   call into a layer, and reports the per-layer metrics (spans are
   written to .perfbench/ as JSON lines). Every output is checked; the
   last line of
   standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}, and the exit code is 1
   when any check failed. perfbench/README.md lists the metrics. *)

open Perfbench

let t_process = Pb_stats.now ()

(* ------------------------------------------------------------------ *)
(* Metric schemas: every run prints every metric of its mode.          *)

let e2e_schema =
  [
    ("setup_s", "s"); ("ref_ops_per_s", "1/s"); ("alloc_words_per_op", "words");
    ("peak_rss_mb", "MB"); ("virt_p50_s", "s"); ("virt_p99_s", "s");
    ("goodput_per_vs", "1/s"); ("virt_wasted_per_op_s", "s");
    ("admit_ratio", "ratio"); ("ok_ratio", "ratio");
  ]

let span_names =
  [
    "workload.generate"; "server.run"; "server.digest"; "servebench.output";
    "sanitizer.run_scenario"; "checker.at_most_once"; "checker.transparency";
    "checker.world"; "checker.elimination"; "checker.accounting";
    "race.isolation"; "race.sources"; "sanitizer.crosscheck";
    "engine.run_scenario"; "crowd.build"; "engine.run";
  ]

let layer_schema =
  [
    ("workload.generate_ms", "ms"); ("server.run_ms", "ms");
    ("server.batches", "count"); ("server.jobs_per_batch", "count");
    ("lane.busy_share", "ratio"); ("admission.shed_quota", "count");
    ("admission.shed_overload", "count"); ("controller.transitions", "count");
    ("controller.peak_pressure", "x"); ("breaker.opens", "count");
    ("verdict.served", "count"); ("verdict.degraded", "count");
    ("verdict.recovered", "count"); ("verdict.failed", "count");
    ("digest.ms", "ms"); ("digest.ns_per_response", "ns"); ("output.ms", "ms");
    ("parallel.spawn_us", "us"); ("parallel.reuse_us", "us");
    ("engine.run_us_per_cell", "us"); ("engine.events_per_cell", "count");
    ("engine.mailbox_scanned_per_cell", "count");
    ("trace.entries_per_cell", "count");
    ("sanitizer.overhead_us_per_cell", "us"); ("sanitizer.crosscheck_us", "us");
    ("sanitizer.state_size", "count"); ("checker.at_most_once_us", "us");
    ("checker.transparency_us", "us"); ("checker.world_us", "us");
    ("checker.elimination_us", "us"); ("checker.accounting_us", "us");
    ("race.isolation_us", "us"); ("race.sources_us", "us");
    ("block.spawned", "count"); ("block.sync_messages", "count");
    ("block.cow_copies", "count"); ("block.useful_ratio", "ratio");
    ("block.wasted_share", "ratio"); ("engine.run_ms", "ms");
    ("engine.events", "count"); ("engine.us_per_event", "us");
    ("engine.alloc_words_per_event", "words"); ("engine.scaling_ratio", "x");
    ("us_per_event", "us"); ("op_wall_p50_us", "us"); ("op_wall_p99_us", "us");
    ("shed_ratio", "ratio"); ("failed_ratio", "ratio");
    ("ops_per_s", "1/s"); ("setup.wall_s", "s"); ("ref.unit_us", "us");
    ("ops_per_s.untraced", "1/s"); ("ops_per_s.traced", "1/s");
    ("trace.overhead_ratio", "x"); ("trace.coverage", "ratio");
  ]
  @ List.map (fun s -> (s ^ ".alloc_words", "words")) span_names

(* ------------------------------------------------------------------ *)
(* Options.                                                            *)

type anchor = {
  an_digest : int64;
  an_p50 : float;
  an_p99 : float;
  an_seed : int;
  an_requests : int;
}

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;
  source : string;
  anchor : anchor option;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload serve|overload|sweep|crowd --seed N \
     --seconds S --trace 0|1 [--source ID] [--anchor \
     DIGEST,P50,P99,SEED,REQUESTS]";
  exit 2

let parse_anchor s =
  match String.split_on_char ',' s with
  | [ d; p50; p99; seed; requests ] ->
      {
        an_digest = Int64.of_string ("0x" ^ d);
        an_p50 = float_of_string p50;
        an_p99 = float_of_string p99;
        an_seed = int_of_string seed;
        an_requests = int_of_string requests;
      }
  | _ -> usage ()

let parse_opts argv =
  let get = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace get (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go argv;
  let find k = match Hashtbl.find_opt get k with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (find k) with Some n -> n | None -> usage () in
  let workload = find "workload" in
  if not (List.mem workload [ "serve"; "overload"; "sweep"; "crowd" ]) then usage ();
  let seconds = int_of "seconds" in
  if seconds < 1 then usage ();
  let trace = match find "trace" with "0" -> false | "1" -> true | _ -> usage () in
  {
    workload;
    seed = int_of "seed";
    seconds = float_of_int seconds;
    trace;
    jobs =
      (match workload with
      | "serve" | "overload" -> min 2 (Domain.recommended_domain_count ())
      | _ -> 1);
    source = Option.value (Hashtbl.find_opt get "source") ~default:"unknown";
    anchor = Option.map parse_anchor (Hashtbl.find_opt get "anchor");
  }

(* ------------------------------------------------------------------ *)
(* Measurement plumbing.                                               *)

type pass = {
  start : float;
  wall : float;
  ops : int;
  words : float;
  unit_s : float;  (* reference unit: mean of the ones before and after *)
}

(* Share of a pass's wall time spent timing the reference unit after it. *)
let calib_share = 0.15

let measure ~ops ~unit_before f =
  let w0 = Pb_stats.words () and t0 = Pb_stats.now () in
  let v = f () in
  let t1 = Pb_stats.now () in
  let words = Pb_stats.words () -. w0 in
  let unit_after = Calib.unit_s ~budget:(calib_share *. (t1 -. t0)) () in
  ( v,
    { start = t0; wall = t1 -. t0; ops; words; unit_s = (unit_before +. unit_after) /. 2. },
    unit_after )

type ('a, 's) passes = {
  firsts : 'a list;  (* the whole output of the first [keep] untraced passes *)
  plain : ('s * pass) list;  (* every untraced pass, summarized *)
  traced : ('s * pass) list;
}

(* Passes for [seconds], and at least [keep] untraced ones; [plain j] and
   [traced j] run the j-th pass of their kind. Only the first [keep]
   untraced outputs are kept whole; every pass keeps its [summary], so
   memory does not grow with the run. A traced run alternates untraced
   and traced passes, so drift over the run (heap growth, host load)
   falls on both sides alike; [probe], untimed, follows every traced
   pass for the same reason. After [traced_cap] traced passes the rest
   of the run is untraced, which bounds the spans held in memory. *)
let run_passes ?(probe = ignore) ?(keep = 1) ?(traced_cap = max_int) o ~ops ~plain ~traced
    ~summary =
  let stop = Pb_stats.now () +. o.seconds in
  let firsts = ref [] in
  let rec go i np nt p t unit_before =
    let use_traced = o.trace && i mod 2 = 1 && nt < traced_cap in
    let j = if use_traced then nt else np in
    let v, pass, unit_after =
      measure ~ops ~unit_before (fun () -> if use_traced then traced j else plain j)
    in
    if (not use_traced) && j < keep then firsts := v :: !firsts;
    if use_traced then probe ();
    let r = (summary j v, pass) in
    let p, t, np, nt =
      if use_traced then (p, r :: t, np, nt + 1) else (r :: p, t, np + 1, nt)
    in
    if Pb_stats.now () >= stop && np >= keep && ((not o.trace) || nt >= 1) then
      { firsts = List.rev !firsts; plain = List.rev p; traced = List.rev t }
    else go (i + 1) np nt p t unit_after
  in
  go 0 0 0 [] [] (Calib.unit_s ~budget:0.05 ())

(* Work completed per second over the whole measured time. *)
let ops_per_s passes =
  let ops, wall =
    List.fold_left (fun (n, w) p -> (n + p.ops, w +. p.wall)) (0, 0.) passes
  in
  float_of_int ops /. wall

(* Work completed per reference second: each pass's wall time is
   rescaled by the reference unit the host ran around it, to the time a
   host that runs the unit in [Calib.ref_unit_s] would take. Host speed
   on a shared machine moves by half within seconds; this ratio moves
   with the program's speed alone. *)
let ref_ops_per_s passes =
  let ops, ref_s =
    List.fold_left
      (fun (n, r) p -> (n + p.ops, r +. Calib.ref_seconds ~wall:p.wall ~unit_s:p.unit_s))
      (0, 0.) passes
  in
  float_of_int ops /. ref_s

let median_unit_us passes =
  Pb_stats.median (Array.of_list (List.map (fun p -> p.unit_s) passes)) *. 1e6

let words_per_op passes =
  let w, n = List.fold_left (fun (w, n) p -> (w +. p.words, n + p.ops)) (0., 0) passes in
  w /. float_of_int n

let total_ops passes = List.fold_left (fun n (_, p) -> n + p.ops) 0 passes

(* Host microseconds per engine event over every untraced pass, each
   pass processing [events]. *)
let us_per_event passes ~events =
  let wall = List.fold_left (fun w (_, p) -> w +. p.wall) 0. passes in
  wall *. 1e6 /. (events *. float_of_int (List.length passes))

(* Set up [reps] times and report the median duration, in reference
   seconds and in wall seconds; the first set-up is timed from process
   start. Each set-up is rescaled by the reference unit timed around it,
   as [ref_ops_per_s] rescales passes. Returns the last set-up's
   value. *)
let setup_reps = 9

type setup_time = { ref_s : float; wall_s : float }

let setup f =
  let walls = Array.make setup_reps 0. and refs = Array.make setup_reps 0. in
  let last = ref None in
  let unit_before = ref None in
  for i = 0 to setup_reps - 1 do
    let t0 = if i = 0 then t_process else Pb_stats.now () in
    last := Some (f ());
    let wall = Pb_stats.now () -. t0 in
    let unit_after = Calib.unit_s ~budget:0.02 () in
    let unit_s =
      match !unit_before with Some u -> (u +. unit_after) /. 2. | None -> unit_after
    in
    unit_before := Some unit_after;
    walls.(i) <- wall;
    refs.(i) <- Calib.ref_seconds ~wall ~unit_s
  done;
  (Option.get !last, { ref_s = Pb_stats.median refs; wall_s = Pb_stats.median walls })

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                  (fun kb -> Some (float_of_int kb /. 1024.))
            | Some _ -> scan ()
          in
          scan ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

(* ------------------------------------------------------------------ *)
(* What a workload hands back.                                         *)

type check = { c_name : string; c_ok : bool; c_failed_ops : int }

type outcome = {
  attempted : int;
  checks : check list;
  e2e : (string * float) list;
  layer : (string * float) list;
  partial : (string * string * float option * string) list;
      (* end-to-end figures some workloads lack: name, unit, value, basis *)
  notes : string list;  (* human-readable lines: bases, sizes *)
  spans : Span.span array;
}

let check name ok ~failed_ops =
  { c_name = name; c_ok = ok; c_failed_ops = (if ok then 0 else failed_ops) }

(* The end-to-end block every workload shares. *)
type common = {
  setup : setup_time;
  passes : pass list;
  virt_latencies : float array;
  goodput : Pb_stats.ratio;
  wasted : Pb_stats.ratio;
  shed : Pb_stats.ratio;
  failed : Pb_stats.ratio;
}

let virt_pct lat p =
  let n = Array.length lat in
  match Pb_stats.admissible ~n p with
  | Some q -> (Pb_stats.percentile lat q, q, n)
  | None -> (0., 0., n)

let common_e2e c =
  let p50, _, _ = virt_pct c.virt_latencies 50. in
  let p99, _, _ = virt_pct c.virt_latencies 99. in
  [
    ("setup_s", c.setup.ref_s); ("ref_ops_per_s", ref_ops_per_s c.passes);
    ("alloc_words_per_op", words_per_op c.passes);
    ("peak_rss_mb", peak_rss_mb ()); ("virt_p50_s", p50); ("virt_p99_s", p99);
    ("goodput_per_vs", c.goodput.Pb_stats.value);
    ("virt_wasted_per_op_s", c.wasted.Pb_stats.value);
    ("admit_ratio", (Pb_stats.complement c.shed).Pb_stats.value);
    ("ok_ratio", (Pb_stats.complement c.failed).Pb_stats.value);
  ]

let common_notes c =
  let _, q99, n = virt_pct c.virt_latencies 99. in
  [
    Printf.sprintf "virt_p99_s is the p%g of %d samples (>= 10 beyond it)" q99 n;
    "goodput_per_vs = " ^ Pb_stats.pp_ratio c.goodput;
    "virt_wasted_per_op_s = " ^ Pb_stats.pp_ratio c.wasted;
    Printf.sprintf "passes: %d, ops: %d, ops_per_s %.1f, reference unit median %.1f us"
      (List.length c.passes)
      (List.fold_left (fun n p -> n + p.ops) 0 c.passes)
      (ops_per_s c.passes) (median_unit_us c.passes);
    Printf.sprintf "ops/s per pass: %s"
      (String.concat " "
         (List.map (fun p -> Printf.sprintf "%.0f" (float_of_int p.ops /. p.wall)) c.passes));
    Printf.sprintf "ref ops/s per pass: %s"
      (String.concat " "
         (List.map
            (fun p ->
              Printf.sprintf "%.0f"
                (float_of_int p.ops /. Calib.ref_seconds ~wall:p.wall ~unit_s:p.unit_s))
            c.passes));
  ]

(* The partial figures, with the shed and failed ratios every workload
   has, printed as ratios of their bases. *)
let partial c ~us_per_event ~op_wall =
  us_per_event
  :: op_wall
  @ [
      ("shed_ratio", "ratio", Some c.shed.Pb_stats.value, Pb_stats.pp_base c.shed);
      ("failed_ratio", "ratio", Some c.failed.Pb_stats.value, Pb_stats.pp_base c.failed);
    ]

(* Per-block virtual counts over [reports]; [total_cpu] is the CPU
   ledger of the engines that ran them. *)
let block_layer (reports : int Concurrent.report array) ~total_cpu =
  let n = float_of_int (Array.length reports) in
  let sum f = Array.fold_left (fun a r -> a +. f r) 0. reports in
  let spawned = sum (fun r -> float_of_int r.Concurrent.spawned) in
  let winners = sum (fun r -> if Option.is_some r.Concurrent.winner then 1. else 0.) in
  let wasted = sum (fun r -> r.Concurrent.wasted_cpu) in
  [
    ("block.spawned", spawned /. n);
    ("block.sync_messages", sum (fun r -> float_of_int r.Concurrent.sync_messages) /. n);
    ("block.cow_copies", sum (fun r -> float_of_int r.Concurrent.child_cow_copies) /. n);
    ("block.useful_ratio", (Pb_stats.ratio ~base_name:"spawned" winners spawned).value);
    ( "block.wasted_share",
      (Pb_stats.ratio ~base_name:"engine cpu" wasted total_cpu).value );
  ]

let span_ms spans name =
  let xs =
    Array.of_list
      (Array.fold_right
         (fun s acc -> if s.Span.name = name then Span.duration s :: acc else acc)
         spans [])
  in
  Pb_stats.median xs *. 1e3

let span_mean_us spans name =
  let n = ref 0 and t = ref 0. in
  Array.iter
    (fun s ->
      if s.Span.name = name then begin
        incr n;
        t := !t +. Span.duration s
      end)
    spans;
  if !n = 0 then 0. else !t /. float_of_int !n *. 1e6

(* Per-call allocation of every layer span, and the traced-run figures
   shared by all workloads. *)
let trace_layer spans ps =
  (* The untraced passes that alternated with traced ones. *)
  let nt = List.length ps.traced in
  let alternated = List.filteri (fun i _ -> i < nt) (List.map snd ps.plain)
  and traced = List.map snd ps.traced in
  let layer s = not (String.starts_with ~prefix:"harness." s.Span.name) in
  let covered, wall =
    List.fold_left
      (fun (c, w) (_, p) ->
        let lo = p.start and hi = p.start +. p.wall in
        (c +. (Span.coverage spans ~lo ~hi ~select:layer *. p.wall), w +. p.wall))
      (0., 0.) ps.traced
  in
  let summaries = Span.summarize spans in
  List.filter_map
    (fun sm ->
      if List.mem sm.Span.s_name span_names then
        Some
          ( sm.Span.s_name ^ ".alloc_words",
            sm.Span.s_words /. float_of_int sm.Span.s_count )
      else None)
    summaries
  @ [
      ("ops_per_s", ops_per_s (List.map snd ps.plain));
      ("ref.unit_us", median_unit_us (List.map snd (ps.plain @ ps.traced)));
      ("ops_per_s.untraced", ops_per_s alternated); ("ops_per_s.traced", ops_per_s traced);
      ("trace.overhead_ratio", ref_ops_per_s alternated /. ref_ops_per_s traced);
      ("trace.coverage", covered /. wall);
    ]

let span_table spans =
  List.map
    (fun sm ->
      Printf.sprintf "span %-24s n=%-7d total=%9.3fms self=%9.3fms words/call=%.0f"
        sm.Span.s_name sm.Span.s_count (sm.Span.s_total *. 1e3)
        (sm.Span.s_self *. 1e3)
        (sm.Span.s_words /. float_of_int sm.Span.s_count))
    (Span.summarize spans)

(* ------------------------------------------------------------------ *)
(* serve and overload: the request path through Server.run.           *)

let serve_wl ~overload seed =
  {
    Workload.default with
    Workload.wl_seed = seed;
    wl_requests = (if overload then 60_000 else 20_000);
    wl_rate = (if overload then 800. else Workload.default.Workload.wl_rate);
  }

let serve_sv ~overload ~seed jobs =
  if overload then
    {
      Server.default with
      Server.sv_jobs = jobs;
      sv_ladder =
        {
          (Controller.default ~lanes:Server.default.Server.sv_lanes) with
          Controller.dc_enabled = true;
        };
      sv_faults = Some seed;
    }
  else { Server.default with Server.sv_jobs = jobs }

(* The input is [chunks] independent traffic windows, each seeded from
   (seed, window); pass j serves window j mod chunks. Overload executes
   only a sixth of its arrivals, so it pools four windows to keep its
   virtual tails steady across seeds without holding a 240k-request run
   in memory. *)
let serve_chunks ~overload = if overload then 4 else 1

let no_pool = { Servebench.pc_spawn_s = 0.; pc_reuse_s = 0. }

(* What the checks and metrics need of one served window, so a run holds
   no whole Server.result beyond the pass that made it. *)
type window = {
  w_digest : int64;
  w_violations : int;
  w_latencies : float array;  (* executed requests, arrival order *)
  w_wasted : float;
  w_makespan : float;
  w_served : int;
  w_degraded : int;
  w_recovered : int;
  w_failed : int;
  w_shed : int;
  w_shed_overload : int;
  w_transitions : int;
  w_peak_pressure : float;
  w_breaker_opens : int;
  w_batches : int;
  w_busy : float;  (* lane-seconds of batch service *)
}

let window_of (r : Server.result) d (m : Servebench.metrics) =
  let executed = List.filter (fun (rs : Server.response) ->
      match rs.Server.rs_verdict with Server.Rejected _ -> false | _ -> true)
      (Array.to_list r.Server.responses)
  in
  {
    w_digest = d;
    w_violations = List.length r.Server.violations;
    w_latencies = Array.of_list (List.map (fun rs -> rs.Server.rs_latency) executed);
    w_wasted =
      Array.fold_left (fun acc (rs : Server.response) -> acc +. rs.Server.rs_wasted) 0.
        r.Server.responses;
    w_makespan = m.Servebench.m_makespan;
    w_served = r.Server.served;
    w_degraded = r.Server.degraded;
    w_recovered = r.Server.recovered;
    w_failed = r.Server.failed;
    w_shed = r.Server.shed;
    w_shed_overload = r.Server.shed_overload;
    w_transitions = r.Server.ladder_transitions;
    w_peak_pressure = r.Server.peak_pressure;
    w_breaker_opens = r.Server.breaker_opens;
    w_batches = Array.length r.Server.batches;
    w_busy =
      Array.fold_left
        (fun acc (b : Server.batch_stat) ->
          acc +. (b.Server.bs_done -. b.Server.bs_start))
        0. r.Server.batches;
  }

(* One op batch: serve one window, digest it, build the record. *)
let serve_pass spans wl sv =
  let r = Span.with_ spans "server.run" (fun () -> Server.run wl sv) in
  let d = Span.with_ spans "server.digest" (fun () -> Server.digest r) in
  let m =
    Span.with_ spans "servebench.output" (fun () ->
        let m = Servebench.metrics_of sv r in
        (* The record is built for its cost; the checks below judge. *)
        let v =
          { Servebench.v_replay_identical = true; v_jobs_identical = true; v_digest = d }
        in
        ignore (Sys.opaque_identity (Servebench.to_json wl sv m v no_pool));
        m)
  in
  (r, d, m)

let anchor_checks o =
  match o.anchor with
  | None -> [ check "anchor given (--anchor)" false ~failed_ops:1 ]
  | Some a ->
      let wl =
        {
          Workload.default with
          Workload.wl_seed = a.an_seed;
          wl_requests = a.an_requests;
        }
      in
      let sv = { Server.default with Server.sv_jobs = o.jobs } in
      let r = Server.run wl sv in
      let d = Server.digest r and m = Servebench.metrics_of sv r in
      let close x y = Float.abs (x -. y) < 5e-7 in
      [
        check
          (Printf.sprintf "anchor digest %016Lx = committed %016Lx" d a.an_digest)
          (Int64.equal d a.an_digest) ~failed_ops:a.an_requests;
        check
          (Printf.sprintf "anchor p50/p99 %.6f/%.6f = committed %.6f/%.6f"
             m.Servebench.m_p50 m.Servebench.m_p99 a.an_p50 a.an_p99)
          (close m.Servebench.m_p50 a.an_p50 && close m.Servebench.m_p99 a.an_p99)
          ~failed_ops:a.an_requests;
      ]

let run_serve o ~overload =
  (* Server.run fans out over domains: count allocation on all of them. *)
  let spans = Span.create ~words:Pb_stats.words ~enabled:o.trace () in
  let chunks = serve_chunks ~overload in
  let wls = Array.init chunks (fun k -> serve_wl ~overload ((o.seed * chunks) + k)) in
  let svs =
    Array.init chunks (fun k -> serve_sv ~overload ~seed:((o.seed * chunks) + k) o.jobs)
  in
  let warm = { wls.(0) with Workload.wl_requests = (if overload then 4000 else 1000) } in
  let n, setup =
    setup (fun () ->
        let rqs =
          Span.with_ spans "workload.generate" (fun () -> Array.map Workload.generate wls)
        in
        ignore (Server.run warm svs.(0));
        Array.length rqs.(0))
  in
  let untraced = Span.create ~enabled:false () in
  let pass spans j =
    let r, d, m = serve_pass spans wls.(j mod chunks) svs.(j mod chunks) in
    window_of r d m
  in
  let ps =
    run_passes ~keep:chunks o ~ops:n ~plain:(pass untraced)
      ~traced:(fun j -> Span.with_ spans ~op:j "harness.pass" (fun () -> pass spans j))
      ~summary:(fun j w -> (j mod chunks, w.w_digest, w.w_violations))
  in
  let all = ps.plain @ ps.traced in
  let results = Array.of_list ps.firsts in
  (* Checks: no violations, every pass of a window the same digest,
     jobs-1 = jobs-N on every window, and the anchor reproduces the
     committed record. *)
  let violations = List.fold_left (fun acc ((_, _, v), _) -> acc + v) 0 all in
  let digest k = results.(k).w_digest in
  let replay_bad =
    List.length (List.filter (fun ((k, d, _), _) -> not (Int64.equal d (digest k))) all)
  in
  let other_jobs = if o.jobs = 1 then 2 else 1 in
  let jobs_bad =
    List.length
      (List.filter
         (fun k ->
           let sv = { (svs.(k)) with Server.sv_jobs = other_jobs } in
           not (Int64.equal (Server.digest (Server.run wls.(k) sv)) (digest k)))
         (List.init chunks Fun.id))
  in
  let sum f = Array.fold_left (fun acc w -> acc +. f w) 0. results in
  let sumi f = sum (fun w -> float_of_int (f w)) in
  let failed_verdicts = sumi (fun w -> w.w_failed) in
  let checks =
    [
      check (Printf.sprintf "%d audit violations" violations) (violations = 0)
        ~failed_ops:violations;
      check
        (Printf.sprintf "digests %s identical across %d passes"
           (String.concat ","
              (List.init chunks (fun k -> Printf.sprintf "%016Lx" (digest k))))
           (List.length all))
        (replay_bad = 0) ~failed_ops:(replay_bad * n);
      check
        (Printf.sprintf "jobs-%d digests = jobs-%d digests" o.jobs other_jobs)
        (jobs_bad = 0) ~failed_ops:(jobs_bad * n);
    ]
    @
    if overload then []
    else
      check
        (Printf.sprintf "%.0f Failed verdicts without faults" failed_verdicts)
        (failed_verdicts = 0.) ~failed_ops:(int_of_float failed_verdicts)
      :: anchor_checks o
  in
  let arrivals = float_of_int (n * chunks) in
  let shed = sumi (fun w -> w.w_shed) in
  let executed = arrivals -. shed in
  let latencies = Array.concat (List.map (fun w -> w.w_latencies) ps.firsts) in
  let wasted = sum (fun w -> w.w_wasted) in
  let makespan = sum (fun w -> w.w_makespan) in
  let c =
    {
      setup;
      passes = List.map snd ps.plain;
      virt_latencies = latencies;
      goodput =
        Pb_stats.ratio ~base_name:"virtual s of makespan"
          (sumi (fun w -> w.w_served + w.w_degraded + w.w_recovered))
          makespan;
      wasted = Pb_stats.ratio ~base_name:"executed requests" wasted executed;
      shed = Pb_stats.ratio ~base_name:"arrivals" shed arrivals;
      failed =
        Pb_stats.ratio ~base_name:"arrivals"
          (failed_verdicts +. sumi (fun w -> w.w_violations))
          arrivals;
    }
  in
  let layer =
    if not o.trace then []
    else begin
      let sp = Span.spans spans in
      let pool = Array.init 3 (fun _ -> Servebench.measure_pool_cost ~jobs:o.jobs) in
      let pool_us f = Pb_stats.median (Array.map f pool) *. 1e6 in
      let lanes = float_of_int Server.default.Server.sv_lanes in
      let busy = sum (fun w -> w.w_busy) in
      let batches = sumi (fun w -> w.w_batches) in
      (* Counts are per Server.run call: one window. *)
      let per_call f = sumi f /. float_of_int chunks in
      [
        ("workload.generate_ms", span_ms sp "workload.generate");
        ("server.run_ms", span_ms sp "server.run");
        ("server.batches", batches /. float_of_int chunks);
        ("server.jobs_per_batch", executed /. batches);
        ( "lane.busy_share",
          (Pb_stats.ratio ~base_name:"lane-seconds" busy (lanes *. makespan))
            .Pb_stats.value );
        ("admission.shed_quota", per_call (fun w -> w.w_shed - w.w_shed_overload));
        ("admission.shed_overload", per_call (fun w -> w.w_shed_overload));
        ("controller.transitions", per_call (fun w -> w.w_transitions));
        ( "controller.peak_pressure",
          Array.fold_left (fun acc w -> Float.max acc w.w_peak_pressure) 0. results );
        ("breaker.opens", per_call (fun w -> w.w_breaker_opens));
        ("verdict.served", per_call (fun w -> w.w_served));
        ("verdict.degraded", per_call (fun w -> w.w_degraded));
        ("verdict.recovered", per_call (fun w -> w.w_recovered));
        ("verdict.failed", per_call (fun w -> w.w_failed));
        ("digest.ms", span_ms sp "server.digest");
        ("digest.ns_per_response", span_ms sp "server.digest" *. 1e6 /. float_of_int n);
        ("output.ms", span_ms sp "servebench.output");
        ("parallel.spawn_us", pool_us (fun p -> p.Servebench.pc_spawn_s));
        ("parallel.reuse_us", pool_us (fun p -> p.Servebench.pc_reuse_s));
      ]
      @ trace_layer sp ps
      @ [ ("setup.wall_s", c.setup.wall_s) ]
    end
  in
  {
    attempted = total_ops all;
    checks;
    e2e = common_e2e c;
    layer;
    partial =
      partial c
        ~us_per_event:
          ("us_per_event", "us", None, "Server.run keeps its batch engines private")
        ~op_wall:
          (List.map
             (fun m -> (m, "us", None, "requests run inside one Server.run call"))
             [ "op_wall_p50_us"; "op_wall_p99_us" ]);
    notes =
      common_notes c
      @ [
          Printf.sprintf "jobs: %d; %d window(s) of %d requests (%.0f executed in all)"
            o.jobs chunks n executed;
        ];
    spans = Span.spans spans;
  }

(* ------------------------------------------------------------------ *)
(* sweep: the altcheck run --sanitize matrix.                          *)

let sweep_seeds_per_cell = 22

(* Cells are timed one by one in the first passes only, so the samples
   held do not grow with the host's speed (peak RSS is a metric). *)
let sweep_timed_passes = 8

(* The matrix with seeds [(seed-1)*k + 1 .. seed*k] per (scenario,
   policy): seed 1 is exactly the matrix altcheck run --seeds k sweeps. *)
let sweep_cells seed =
  Array.map
    (fun c ->
      {
        c with
        Invariants.cell_seed =
          ((seed - 1) * sweep_seeds_per_cell) + c.Invariants.cell_seed;
      })
    (Invariants.matrix_cells ~seeds:sweep_seeds_per_cell ())

type cell_result = {
  cr_selected : bool;
  cr_elapsed : float;
  cr_wasted : float;
  cr_events : int;
  cr_violations : int;
  cr_digest : string;
}

let cell_result (rr : Invariants.run) vs =
  let rep = rr.Invariants.report in
  let sel, w =
    match rep.Concurrent.outcome with
    | Alt_block.Selected { index; value } -> (true, Printf.sprintf "%d=%d" index value)
    | Alt_block.Block_failed _ -> (false, "fail")
  in
  {
    cr_selected = sel;
    cr_elapsed = rep.Concurrent.elapsed;
    cr_wasted = rep.Concurrent.wasted_cpu;
    cr_events = Engine.stats_events_processed rr.Invariants.engine;
    cr_violations = List.length vs;
    cr_digest =
      Printf.sprintf "%s|%.17g|%.17g;" w rep.Concurrent.elapsed rep.Concurrent.wasted_cpu;
  }

(* The cell exactly as Invariants.run_checked composes it, with a span
   around each layer. *)
let traced_cell spans (c : Invariants.cell) =
  let sc = c.Invariants.cell_scenario and policy = c.Invariants.cell_policy in
  let seed = c.Invariants.cell_seed in
  let rr =
    Span.with_ spans "sanitizer.run_scenario" (fun () ->
        Invariants.run_scenario ~sanitize:true sc ~policy ~seed)
  in
  let pol = Concurrent.describe policy and name = sc.Invariants.sc_name in
  let sp n f = Span.with_ spans n f in
  let vs =
    sp "checker.at_most_once" (fun () -> Invariants.check_at_most_once rr)
    @ sp "checker.transparency" (fun () -> Invariants.check_transparency rr)
    @ sp "checker.world" (fun () -> Invariants.check_world rr)
    @ sp "checker.elimination" (fun () -> Invariants.check_elimination rr)
    @ sp "checker.accounting" (fun () -> Invariants.check_accounting rr)
    @ sp "race.isolation" (fun () ->
          Race.check_isolation rr.Invariants.engine
            ~children:rr.Invariants.report.Concurrent.children ~scenario:name
            ~policy:pol ~seed)
    @ sp "race.sources" (fun () ->
          match rr.Invariants.source with
          | Some s -> Race.check_sources s ~scenario:name ~policy:pol ~seed
          | None -> [])
  in
  let sz = Option.get rr.Invariants.sanitizer in
  let state = Sanitizer.state_size sz in
  let vs =
    sp "sanitizer.crosscheck" (fun () ->
        Sanitizer.detach sz;
        vs @ Sanitizer.crosscheck sz ~oracle:vs ~scenario:name ~policy:pol ~seed)
  in
  (rr, vs, state)

(* What the plain-engine probe keeps of one cell. *)
type probed = {
  pr_report : int Concurrent.report;
  pr_events : int;
  pr_scanned : int;
  pr_trace : int;  (* trace entries *)
  pr_cpu : float;  (* the engine's whole CPU ledger *)
}

let run_sweep o =
  let spans = Span.create ~enabled:o.trace () in
  let cells, setup =
    setup (fun () ->
        let cells = Span.with_ spans "workload.generate" (fun () -> sweep_cells o.seed) in
        (* Warm-up: one seed of every (scenario, policy). *)
        Array.iteri
          (fun i (c : Invariants.cell) ->
            if i mod sweep_seeds_per_cell = 0 then
              ignore
                (Invariants.run_checked ~sanitize:true c.Invariants.cell_scenario
                   ~policy:c.Invariants.cell_policy ~seed:c.Invariants.cell_seed))
          cells;
        cells)
  in
  let n = Array.length cells in
  let walls = Pb_stats.Samples.create () in
  let untraced_pass j =
    Array.map
      (fun (c : Invariants.cell) ->
        let t0 = Pb_stats.now () in
        let rr, vs =
          Invariants.run_checked ~sanitize:true c.Invariants.cell_scenario
            ~policy:c.Invariants.cell_policy ~seed:c.Invariants.cell_seed
        in
        if j < sweep_timed_passes then Pb_stats.Samples.add walls (Pb_stats.now () -. t0);
        cell_result rr vs)
      cells
  in
  let states = ref 0 and state_n = ref 0 in
  (* The engine alone: every cell once more, without the sanitizer. *)
  let plain = Span.create ~enabled:o.trace () in
  let probed = ref None in
  let probe () =
    let b =
      Array.map
        (fun (c : Invariants.cell) ->
          let rr =
            Span.with_ plain "engine.run_scenario" (fun () ->
                Invariants.run_scenario c.Invariants.cell_scenario
                  ~policy:c.Invariants.cell_policy ~seed:c.Invariants.cell_seed)
          in
          let e = rr.Invariants.engine in
          {
            pr_report = rr.Invariants.report;
            pr_events = Engine.stats_events_processed e;
            pr_scanned = Engine.stats_mailbox_scanned e;
            pr_trace = Trace.count (Engine.trace e) ~f:(fun _ -> true);
            pr_cpu = Engine.total_cpu_time e;
          })
        cells
    in
    if Option.is_none !probed then probed := Some b
  in
  let ps =
    run_passes ~probe ~traced_cap:6 o ~ops:n ~plain:untraced_pass ~traced:(fun _ ->
        Array.mapi
          (fun i c ->
            Span.with_ spans ~op:i "harness.cell" (fun () ->
                let rr, vs, state = traced_cell spans c in
                states := !states + state;
                incr state_n;
                cell_result rr vs))
          cells)
      ~summary:(fun _ res ->
        ( Array.fold_left (fun h r -> Pb_stats.fnv1a h r.cr_digest) Pb_stats.fnv_init res,
          Array.fold_left (fun a r -> if r.cr_violations > 0 then a + 1 else a) 0 res ))
  in
  let all = ps.plain @ ps.traced in
  let first = List.hd ps.firsts in
  let d0 = fst (fst (List.hd all)) in
  let violating = List.fold_left (fun acc ((_, v), _) -> acc + v) 0 all in
  let replay_bad = List.length (List.filter (fun ((d, _), _) -> d <> d0) all) in
  let checks =
    [
      check
        (Printf.sprintf "%d cells with check_all or sanitizer findings" violating)
        (violating = 0) ~failed_ops:violating;
      check
        (Printf.sprintf "outcome digest %016Lx identical across %d passes" d0
           (List.length all))
        (replay_bad = 0) ~failed_ops:(replay_bad * n);
    ]
  in
  let sumf f = Array.fold_left (fun a r -> a +. f r) 0. first in
  let selected = sumf (fun r -> if r.cr_selected then 1. else 0.) in
  let c =
    {
      setup;
      passes = List.map snd ps.plain;
      virt_latencies = Array.map (fun r -> r.cr_elapsed) first;
      goodput =
        Pb_stats.ratio ~base_name:"virtual s summed over cells" selected
          (sumf (fun r -> r.cr_elapsed));
      wasted =
        Pb_stats.ratio ~base_name:"cells" (sumf (fun r -> r.cr_wasted)) (float_of_int n);
      shed = Pb_stats.ratio ~base_name:"cells" 0. (float_of_int n);
      failed =
        Pb_stats.ratio ~base_name:"cells"
          (sumf (fun r -> if r.cr_violations > 0 then 1. else 0.))
          (float_of_int n);
    }
  in
  let walls = Pb_stats.Samples.to_array walls in
  let wall_pct p =
    match Pb_stats.admissible ~n:(Array.length walls) p with
    | Some q -> Pb_stats.percentile walls q *. 1e6
    | None -> 0.
  in
  let events = sumf (fun r -> float_of_int r.cr_events) in
  let us_per_event = us_per_event ps.plain ~events in
  let layer =
    if not o.trace then []
    else begin
      let probed = Option.get !probed in
      let plain_sp = Span.spans plain in
      let sp = Span.spans spans in
      let fn = float_of_int n in
      let sum f = Array.fold_left (fun a b -> a +. float_of_int (f b)) 0. probed in
      let ev = sum (fun b -> b.pr_events) in
      let plain_us = span_mean_us plain_sp "engine.run_scenario" in
      (* Words per probe pass. *)
      let plain_words =
        Array.fold_left (fun a s -> a +. s.Span.words) 0. plain_sp
        /. float_of_int (Array.length plain_sp / n)
      in
      let sanitized_us = span_mean_us sp "sanitizer.run_scenario" in
      [
        ("workload.generate_ms", span_ms sp "workload.generate");
        ("engine.run_us_per_cell", plain_us);
        ("engine.events_per_cell", ev /. fn);
        ("engine.mailbox_scanned_per_cell", sum (fun b -> b.pr_scanned) /. fn);
        ("trace.entries_per_cell", sum (fun b -> b.pr_trace) /. fn);
        ("sanitizer.overhead_us_per_cell", sanitized_us -. plain_us);
        ("sanitizer.crosscheck_us", span_mean_us sp "sanitizer.crosscheck");
        ("sanitizer.state_size", float_of_int !states /. float_of_int (max 1 !state_n));
        ("checker.at_most_once_us", span_mean_us sp "checker.at_most_once");
        ("checker.transparency_us", span_mean_us sp "checker.transparency");
        ("checker.world_us", span_mean_us sp "checker.world");
        ("checker.elimination_us", span_mean_us sp "checker.elimination");
        ("checker.accounting_us", span_mean_us sp "checker.accounting");
        ("race.isolation_us", span_mean_us sp "race.isolation");
        ("race.sources_us", span_mean_us sp "race.sources");
        ("engine.run_ms", plain_us *. fn /. 1e3);
        ("engine.events", ev);
        ("engine.us_per_event", plain_us *. fn /. ev);
        ("engine.alloc_words_per_event", plain_words /. ev);
        ("engine.run_scenario.alloc_words", plain_words /. fn);
      ]
      @ block_layer
          (Array.map (fun b -> b.pr_report) probed)
          ~total_cpu:(Array.fold_left (fun a b -> a +. b.pr_cpu) 0. probed)
      @ trace_layer sp ps
      @ [ ("setup.wall_s", c.setup.wall_s) ]
    end
  in
  {
    attempted = total_ops all;
    checks;
    e2e = common_e2e c;
    layer;
    partial =
      partial c
        ~us_per_event:
          ( "us_per_event", "us", Some us_per_event,
            Printf.sprintf "untraced wall / (%.0f events x %d passes)" events
              (List.length ps.plain) )
        ~op_wall:
          (List.map
             (fun p ->
               ( Printf.sprintf "op_wall_p%g_us" p, "us", Some (wall_pct p),
                 Printf.sprintf "%d cells timed" (Array.length walls) ))
             [ 50.; 99. ]);
    notes =
      common_notes c
      @ [
          Printf.sprintf "cells per pass: %d (4 scenarios x 24 policies x %d seeds)" n
            sweep_seeds_per_cell;
        ];
    spans = Span.spans spans;
  }

(* ------------------------------------------------------------------ *)
(* crowd: hundreds of live processes in one engine.                    *)

let crowd_pass spans input =
  let world = Span.with_ spans "crowd.build" (fun () -> Crowd.build input) in
  Span.with_ spans "engine.run" (fun () -> Crowd.run world)

(* The input is [crowd_worlds] independent engines, each seeded from
   (seed, world); pass j runs world j mod crowd_worlds. A world is short
   enough that the reference unit timed around it tracks the host, and
   four of them pool enough blocks to keep the virtual tails steady
   across seeds. *)
let crowd_worlds = 4

let run_crowd o =
  let spans = Span.create ~enabled:o.trace () in
  let cfgs =
    Array.init crowd_worlds (fun k -> Crowd.default ~seed:((o.seed * crowd_worlds) + k))
  in
  let cfg = cfgs.(0) in
  let small cfg = { cfg with Crowd.parents = cfg.Crowd.parents / 8 } in
  let inputs, setup =
    setup (fun () ->
        let inputs =
          Span.with_ spans "workload.generate" (fun () -> Array.map Crowd.generate cfgs)
        in
        ignore (Crowd.run (Crowd.build (Crowd.generate (small cfg))));
        inputs)
  in
  let n = cfg.Crowd.parents * cfg.Crowd.blocks in
  let untraced = Span.create ~enabled:false () in
  (* The same generator at 1/8 size, for the scaling ratio. *)
  let small_input = Crowd.generate (small cfg) in
  let small_us = Pb_stats.Samples.create () in
  let probe () =
    for _ = 1 to 3 do
      let world = Crowd.build small_input in
      let t0 = Pb_stats.now () in
      let r = Crowd.run world in
      Pb_stats.Samples.add small_us
        ((Pb_stats.now () -. t0) *. 1e6 /. float_of_int r.Crowd.events)
    done
  in
  let input j = inputs.(j mod crowd_worlds) in
  let ps =
    run_passes ~probe ~keep:crowd_worlds o ~ops:n
      ~plain:(fun j -> crowd_pass untraced (input j))
      ~traced:(fun j ->
        Span.with_ spans ~op:j "harness.pass" (fun () -> crowd_pass spans (input j)))
      ~summary:(fun j r ->
        ( j mod crowd_worlds,
          Crowd.winners_digest r,
          Crowd.wrong_winners (input j) r,
          r.Crowd.events ))
  in
  let all = ps.plain @ ps.traced in
  let firsts = Array.of_list ps.firsts in
  let digest k = Crowd.winners_digest firsts.(k) in
  let wrong = List.fold_left (fun acc ((_, _, w, _), _) -> acc + w) 0 all in
  let replay_bad =
    List.length (List.filter (fun ((k, d, _, _), _) -> not (Int64.equal d (digest k))) all)
  in
  let checks =
    [
      check
        (Printf.sprintf "%d blocks did not select their cheapest alternative" wrong)
        (wrong = 0) ~failed_ops:wrong;
      check
        (Printf.sprintf "winners digests %s identical across %d passes"
           (String.concat ","
              (List.init crowd_worlds (fun k -> Printf.sprintf "%016Lx" (digest k))))
           (List.length all))
        (replay_bad = 0) ~failed_ops:(replay_bad * n);
    ]
  in
  let blocks = float_of_int (n * crowd_worlds) in
  let reports = Array.concat (List.map (fun r -> r.Crowd.reports) ps.firsts) in
  let sumr f = Array.fold_left (fun a r -> a +. f r) 0. reports in
  let sumw f = Array.fold_left (fun a r -> a +. f r) 0. firsts in
  let selected =
    sumr (fun r ->
        match r.Concurrent.outcome with
        | Alt_block.Selected _ -> 1.
        | Alt_block.Block_failed _ -> 0.)
  in
  let c =
    {
      setup;
      passes = List.map snd ps.plain;
      virt_latencies = Array.map (fun r -> r.Concurrent.elapsed) reports;
      goodput =
        Pb_stats.ratio ~base_name:"virtual s of makespan" selected
          (sumw (fun r -> r.Crowd.makespan));
      wasted =
        Pb_stats.ratio ~base_name:"blocks" (sumr (fun r -> r.Concurrent.wasted_cpu)) blocks;
      shed = Pb_stats.ratio ~base_name:"blocks" 0. blocks;
      failed =
        Pb_stats.ratio ~base_name:"blocks"
          (float_of_int
             (Array.fold_left ( + ) 0
                (Array.mapi (fun k r -> Crowd.wrong_winners inputs.(k) r) firsts)))
          blocks;
    }
  in
  (* Events per world, and host microseconds per event over every
     untraced pass. *)
  let events = sumw (fun r -> float_of_int r.Crowd.events) /. float_of_int crowd_worlds in
  let plain_events =
    List.fold_left (fun a ((_, _, _, e), _) -> a +. float_of_int e) 0. ps.plain
  in
  let host_us_per_event =
    List.fold_left (fun w (_, p) -> w +. p.wall) 0. ps.plain *. 1e6 /. plain_events
  in
  let layer =
    if not o.trace then []
    else begin
      let sp = Span.spans spans in
      let run_spans =
        List.filter (fun s -> s.Span.name = "engine.run") (Array.to_list sp)
      in
      let run_s = Pb_stats.median (Array.of_list (List.map Span.duration run_spans)) in
      let run_words =
        List.fold_left (fun a s -> a +. s.Span.words) 0. run_spans
        /. float_of_int (List.length run_spans)
      in
      let small_us = Pb_stats.median (Pb_stats.Samples.to_array small_us) in
      let us_per_event = run_s *. 1e6 /. events in
      [
        ("workload.generate_ms", span_ms sp "workload.generate");
        ("engine.run_ms", run_s *. 1e3);
        ("engine.events", events);
        ("engine.us_per_event", us_per_event);
        ("engine.alloc_words_per_event", run_words /. events);
        ("engine.scaling_ratio", us_per_event /. small_us);
      ]
      @ block_layer reports ~total_cpu:(sumw (fun r -> r.Crowd.total_cpu))
      @ trace_layer sp ps
      @ [ ("setup.wall_s", c.setup.wall_s) ]
    end
  in
  {
    attempted = total_ops all;
    checks;
    e2e = common_e2e c;
    layer;
    partial =
      partial c
        ~us_per_event:
          ( "us_per_event", "us", Some host_us_per_event,
            Printf.sprintf "untraced wall / %.0f events over %d passes" plain_events
              (List.length ps.plain) )
        ~op_wall:
          (List.map
             (fun m -> (m, "us", None, "blocks interleave inside one engine run"))
             [ "op_wall_p50_us"; "op_wall_p99_us" ]);
    notes =
      common_notes c
      @ [
          Printf.sprintf
            "%d worlds of %d parents x %d blocks of %d alternatives, Cores %d; %.0f \
             events per world"
            crowd_worlds cfg.Crowd.parents cfg.Crowd.blocks cfg.Crowd.alts cfg.Crowd.cores
            events;
        ];
    spans = Span.spans spans;
  }

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)

let json_metrics schema values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         let v = match List.assoc_opt name values with Some v -> v | None -> 0. in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       schema)

let write_spans o spans =
  if Array.length spans > 0 then begin
    let dir = ".perfbench" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let file =
      Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" o.workload o.seed)
    in
    Out_channel.with_open_text file (fun oc -> output_string oc (Span.to_jsonl spans));
    Printf.printf "spans: %d written to %s\n" (Array.length spans) file
  end

let () =
  let o = parse_opts (List.tl (Array.to_list Sys.argv)) in
  let out =
    match o.workload with
    | "serve" -> run_serve o ~overload:false
    | "overload" -> run_serve o ~overload:true
    | "sweep" -> run_sweep o
    | _ -> run_crowd o
  in
  let schema, values =
    if o.trace then
      ( layer_schema,
        out.layer
        @ List.filter_map
            (fun (n, _, v, _) -> Option.map (fun v -> (n, v)) v)
            out.partial )
    else (e2e_schema, out.e2e)
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name schema) then
        failwith ("metric outside the schema: " ^ name))
    values;
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\n" o.workload o.seed o.seconds
    o.trace;
  List.iter (fun (n, u) ->
      Printf.printf "  %-36s %16.6f %s\n" n
        (match List.assoc_opt n values with Some v -> v | None -> 0.) u)
    schema;
  List.iter
    (fun (n, u, v, basis) ->
      Printf.printf "  %-36s %16s %s (%s)\n" n
        (match v with Some v -> Printf.sprintf "%.6f" v | None -> "n/a")
        u basis)
    out.partial;
  List.iter (fun l -> Printf.printf "  note: %s\n" l) out.notes;
  if o.trace then List.iter (fun l -> Printf.printf "  %s\n" l) (span_table out.spans);
  List.iter
    (fun c ->
      Printf.printf "  check %s: %s\n" (if c.c_ok then "ok" else "FAILED") c.c_name)
    out.checks;
  write_spans o out.spans;
  let failed = List.fold_left (fun a c -> a + c.c_failed_ops) 0 out.checks in
  let correct = List.for_all (fun c -> c.c_ok) out.checks in
  Printf.printf
    "facts {\"nproc\": %d, \"ocaml\": %S, \"jobs\": %d, \"source\": %S, \"workload\": %S, \
     \"seed\": %d%s}\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version o.jobs o.source o.workload o.seed
    (if o.trace then
       Printf.sprintf
         ", \"ops_per_s_untraced\": %.6g, \"ops_per_s_traced\": %.6g, \"coverage\": %.4f"
         (List.assoc "ops_per_s.untraced" out.layer)
         (List.assoc "ops_per_s.traced" out.layer)
         (List.assoc "trace.coverage" out.layer)
     else "");
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct out.attempted (min failed out.attempted) (json_metrics schema values);
  exit (if correct then 0 else 1)
