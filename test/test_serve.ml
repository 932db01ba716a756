(* Tests for the request-driven serving layer (lib/serve): workload
   determinism, GCRA quota exactness at virtual-time boundaries, the
   zero-timeout pure polls a shed path issues, batch formation, and the
   end-to-end determinism contract (replay-identical, jobs-1 = jobs-N). *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Workload generation.                                                *)

let test_workload_deterministic () =
  let wl = { Workload.default with Workload.wl_requests = 500 } in
  let a = Workload.generate wl and b = Workload.generate wl in
  check Alcotest.bool "same seed, same stream" true (a = b);
  Array.iteri
    (fun i (rq : Workload.request) ->
      check Alcotest.int "dense ids" i rq.Workload.rq_id;
      if i > 0 then
        check Alcotest.bool "arrivals nondecreasing" true
          (rq.Workload.rq_arrival >= a.(i - 1).Workload.rq_arrival);
      check Alcotest.bool "tenant in range" true
        (rq.Workload.rq_tenant >= 0
        && rq.Workload.rq_tenant < wl.Workload.wl_tenants);
      check Alcotest.bool "work in [1, cap]" true
        (rq.Workload.rq_work >= 1.
        && rq.Workload.rq_work <= wl.Workload.wl_tail_cap))
    a;
  let c = Workload.generate { wl with Workload.wl_seed = 2 } in
  check Alcotest.bool "different seed, different stream" false (a = c)

(* ------------------------------------------------------------------ *)
(* Quota exactness.

   The GCRA stores an integer admission counter, never a float
   accumulator, so at binary-exact virtual-time boundaries the
   admit/shed pattern is bit-exact arbitrarily far into the stream.
   rate = 1024 makes every k/1024 and k/2048 arrival time exact in
   binary floating point: any drift at all changes the admission
   count. *)

let test_quota_no_drift_over_1e6 () =
  let n = 1_000_000 in
  (* Arrivals exactly at the refill boundary: one token refills per
     step, so every single request must be admitted — the millionth
     decision compares k >= k with no accumulated error. *)
  let q = Quota.create ~rate:1024. ~burst:1 in
  for k = 0 to n - 1 do
    ignore (Quota.admit q ~now:(float_of_int k /. 1024.))
  done;
  check Alcotest.int "boundary arrivals all admitted" n (Quota.admitted q);
  (* Arrivals at half the refill period: after the initial burst token
     the pattern must alternate admit/shed forever, exactly. *)
  let q = Quota.create ~rate:1024. ~burst:1 in
  let last_sheds = ref [] in
  for k = 0 to n - 1 do
    let ok = Quota.admit q ~now:(float_of_int k /. 2048.) in
    if k >= n - 4 then last_sheds := ok :: !last_sheds
  done;
  check Alcotest.int "half-period arrivals alternate exactly" (n / 2)
    (Quota.admitted q);
  check
    Alcotest.(list bool)
    "tail of the stream still alternates" [ true; false; true; false ]
    (List.rev !last_sheds)

let test_quota_burst_and_refusal () =
  let q = Quota.create ~rate:10. ~burst:3 in
  let okays = List.init 5 (fun _ -> Quota.admit q ~now:0.) in
  check
    Alcotest.(list bool)
    "burst then refusal" [ true; true; true; false; false ] okays;
  check Alcotest.bool "shed leaves no tokens" true (Quota.tokens q ~now:0. < 1.);
  (* Sheds must not consume anything: a full refill period later one
     token is back, regardless of how many refusals happened. *)
  check Alcotest.bool "refill after shed burst" true (Quota.admit q ~now:0.1)

(* Composed quota classes (tenant x scenario x global): a request is
   admitted only when every class conforms, and a composite shed
   charges none of them — the all-or-nothing contract admission relies
   on so one starved class cannot silently drain the others. *)

let test_quota_classes_all_or_nothing () =
  let tenant = Quota.create ~rate:10. ~burst:2 in
  let global = Quota.create ~rate:10. ~burst:1 in
  check Alcotest.bool "both conform: admitted" true
    (Quota.admit_all [ tenant; global ] ~now:0.);
  (* The global bucket is now empty; the tenant still holds a token. *)
  check Alcotest.bool "one class starved: shed" false
    (Quota.admit_all [ tenant; global ] ~now:0.);
  check Alcotest.int "composite shed charged the tenant nothing" 1
    (Quota.admitted tenant);
  check Alcotest.bool "tenant token survived the composite shed" true
    (Quota.tokens tenant ~now:0. >= 1.);
  (* After a global refill period both conform again — the shed left no
     debt anywhere. *)
  check Alcotest.bool "refill readmits" true
    (Quota.admit_all [ tenant; global ] ~now:0.1)

let test_quota_classes_no_drift_over_1e6 () =
  (* The PR 8 drift test, lifted to the composed form: three classes at
     the same binary-exact rate, arrivals exactly on the refill
     boundary. Every arrival must pass all three, a million times, with
     the admit counts in lockstep — any float drift in any class breaks
     the equality. *)
  let n = 1_000_000 in
  let mk () = Quota.create ~rate:1024. ~burst:1 in
  let a = mk () and b = mk () and c = mk () in
  for k = 0 to n - 1 do
    ignore (Quota.admit_all [ a; b; c ] ~now:(float_of_int k /. 1024.))
  done;
  List.iter
    (fun q -> check Alcotest.int "boundary arrivals all admitted" n
        (Quota.admitted q))
    [ a; b; c ];
  (* Half-period arrivals with one tight class: the tight bucket
     alternates admit/shed exactly, and the loose buckets must show
     exactly the same count — composite sheds never charge them. *)
  let tight = mk () in
  let loose = Quota.create ~rate:4096. ~burst:8 in
  for k = 0 to n - 1 do
    ignore (Quota.admit_all [ loose; tight ] ~now:(float_of_int k /. 2048.))
  done;
  check Alcotest.int "tight class alternates exactly" (n / 2)
    (Quota.admitted tight);
  check Alcotest.int "loose class charged only on admits" (n / 2)
    (Quota.admitted loose)

(* ------------------------------------------------------------------ *)
(* Zero-timeout pure polls inside an admission-shed path.

   A frontend that sheds a request typically drains without blocking:
   poll for a cancel message, poll the response ivar it will never
   fill. Both [~timeout:0.] forms must return immediately — no parking,
   no virtual-time advance — whether or not something is queued. *)

let test_timeout_zero_polls_in_shed_path () =
  let eng = Engine.create ~trace:false () in
  let quota = Quota.create ~rate:10. ~burst:1 in
  let polled = ref [] in
  let frontend_ready = Engine.Ivar.create () in
  let frontend =
    Engine.spawn eng (fun ctx ->
        ignore (Engine.Ivar.try_fill frontend_ready ());
        (* Two requests arrive at the same virtual instant; the bucket
           holds one token, so the second is shed. *)
        for _ = 1 to 2 do
          let m = Engine.receive ctx ~tag:"req" () in
          let now = Engine.now_v ctx in
          if Quota.admit quota ~now then
            polled := `Admitted (Payload.get_int m.Message.payload) :: !polled
          else begin
            (* The shed path: pure polls only, never a park. *)
            let t0 = Engine.now_v ctx in
            let cancel = Engine.receive_timeout ctx ~tag:"cancel" ~timeout:0. () in
            let iv = Engine.Ivar.create () in
            let unfilled = Engine.Ivar.read_timeout ctx iv ~timeout:0. in
            ignore (Engine.Ivar.try_fill iv 7);
            let filled = Engine.Ivar.read_timeout ctx iv ~timeout:0. in
            let stray = Engine.receive_timeout ctx ~tag:"req" ~timeout:0. () in
            check (Alcotest.float 0.) "polls do not advance virtual time" t0
              (Engine.now_v ctx);
            polled :=
              `Shed
                ( Option.is_some cancel,
                  unfilled,
                  filled,
                  Option.map (fun m -> Payload.get_int m.Message.payload) stray )
              :: !polled
          end
        done)
  in
  ignore
    (Engine.spawn eng (fun ctx ->
        ignore (Engine.Ivar.read ctx frontend_ready);
        Engine.send ctx ~tag:"req" frontend (Payload.int 1);
        Engine.send ctx ~tag:"req" frontend (Payload.int 2)));
  Engine.run eng;
  match List.rev !polled with
  | [ `Admitted 1; `Shed (cancel, unfilled, filled, stray) ] ->
      check Alcotest.bool "no cancel queued" false cancel;
      check (Alcotest.option Alcotest.int) "unfilled ivar polls None" None
        unfilled;
      check (Alcotest.option Alcotest.int) "filled ivar polls Some" (Some 7)
        filled;
      check (Alcotest.option Alcotest.int) "no third request queued" None stray
  | _ -> Alcotest.fail "expected one admitted then one shed request"

(* ------------------------------------------------------------------ *)
(* Batch formation and honest shedding.                                *)

let small_wl = { Workload.default with Workload.wl_requests = 300 }

let answered (r : Server.result) =
  r.Server.served + r.Server.degraded + r.Server.recovered + r.Server.failed
  + r.Server.shed

let test_batch_invariants () =
  let r = Server.run small_wl Server.default in
  check Alcotest.int "every request answered" small_wl.Workload.wl_requests
    (answered r);
  check Alcotest.int "default config never degrades" 0
    (r.Server.degraded + r.Server.recovered + r.Server.shed_overload);
  let requests = Workload.generate small_wl in
  Array.iter
    (fun (bs : Server.batch_stat) ->
      check Alcotest.bool "batch occupancy within bound" true
        (bs.Server.bs_size >= 1
        && bs.Server.bs_size <= Server.default.Server.sv_max_batch);
      check Alcotest.bool "dispatch after close" true
        (bs.Server.bs_start >= bs.Server.bs_close);
      check Alcotest.bool "service takes time" true
        (bs.Server.bs_done > bs.Server.bs_start))
    r.Server.batches;
  Array.iter
    (fun (rs : Server.response) ->
      let rq = requests.(rs.Server.rs_id) in
      match rs.Server.rs_verdict with
      | Server.Rejected (Server.Quota_exhausted { tokens }) ->
          check Alcotest.int "rejections carry no batch" (-1) rs.Server.rs_batch;
          check Alcotest.bool "honest refusal: bucket really was empty" true
            (tokens < 1.)
      | Server.Rejected (Server.Overload _) ->
          Alcotest.fail "ladder disabled: no overload sheds possible"
      | _ ->
          check Alcotest.bool "completion after arrival" true
            (rs.Server.rs_completion > rq.Workload.rq_arrival);
          check Alcotest.bool "latency consistent" true
            (Float.abs
               (rs.Server.rs_latency
               -. (rs.Server.rs_completion -. rq.Workload.rq_arrival))
            < 1e-9))
    r.Server.responses;
  check Alcotest.bool "healthy run has no violations" true
    (r.Server.violations = [])

let test_starved_quota_sheds_honestly () =
  let sv =
    { Server.default with Server.sv_quota_rate = 0.01; sv_quota_burst = 1 }
  in
  let r = Server.run small_wl sv in
  check Alcotest.bool "starved quota sheds most of the stream" true
    (r.Server.shed > small_wl.Workload.wl_requests / 2);
  check Alcotest.int "every request still answered"
    small_wl.Workload.wl_requests (answered r)

let test_starved_quota_classes_shed_honestly () =
  (* A tight global class behind generous tenant buckets: the composite
     must shed most of the stream, name the binding constraint in the
     verdict, and the response census must still balance. *)
  let sv =
    { Server.default with Server.sv_global_rate = 1.; sv_global_burst = 1 }
  in
  let r = Server.run small_wl sv in
  check Alcotest.bool "starved global class sheds most of the stream" true
    (r.Server.shed > small_wl.Workload.wl_requests / 2);
  check Alcotest.int "every request still answered"
    small_wl.Workload.wl_requests (answered r);
  Array.iter
    (fun (rs : Server.response) ->
      match rs.Server.rs_verdict with
      | Server.Rejected (Server.Quota_exhausted { tokens }) ->
          check Alcotest.bool "refusal names the binding (empty) class" true
            (tokens < 1.)
      | _ -> ())
    r.Server.responses

(* ------------------------------------------------------------------ *)
(* The determinism contract, end to end.                               *)

let test_replay_and_jobs_identical () =
  let sv = { Server.default with Server.sv_jobs = 3 } in
  let d3 = Server.digest (Server.run small_wl sv) in
  let d3' = Server.digest (Server.run small_wl sv) in
  let d1 = Server.digest (Server.run small_wl { sv with Server.sv_jobs = 1 }) in
  check Alcotest.bool "replay is byte-identical" true (d3 = d3');
  check Alcotest.bool "jobs-1 = jobs-3" true (d1 = d3);
  let other =
    Server.digest (Server.run { small_wl with Workload.wl_seed = 99 } sv)
  in
  check Alcotest.bool "different seed, different digest" false (d3 = other)

let test_sanitized_run_stays_clean () =
  let sv = { Server.default with Server.sv_sanitize = true } in
  let r = Server.run { small_wl with Workload.wl_requests = 120 } sv in
  check Alcotest.bool "sanitized serving run flags nothing" true
    (r.Server.violations = [])

let test_bench_record_schema () =
  let sv = Server.default in
  let wl = { small_wl with Workload.wl_requests = 150 } in
  let r, m, v = Servebench.run_verified wl sv in
  check Alcotest.bool "verification passes" true
    (v.Servebench.v_replay_identical && v.Servebench.v_jobs_identical);
  check Alcotest.int "occupancy histogram covers every batch"
    m.Servebench.m_batches
    (Array.fold_left ( + ) 0 m.Servebench.m_occupancy);
  check Alcotest.int "metrics count what the server counted"
    (r.Server.served + r.Server.failed)
    (m.Servebench.m_served + m.Servebench.m_failed);
  check Alcotest.int "degraded/recovered counters flow through" 0
    (m.Servebench.m_degraded + m.Servebench.m_recovered);
  let pc = Servebench.measure_pool_cost ~jobs:sv.Server.sv_jobs in
  match Servebench.validate (Servebench.to_json wl sv m v pc) with
  | Ok n ->
      check Alcotest.int "all schema fields present"
        (List.length Servebench.required_fields)
        n
  | Error missing ->
      Alcotest.fail ("missing fields: " ^ String.concat ", " missing)

(* ------------------------------------------------------------------ *)
(* The digest's definition.

   The reference is the digest as first defined: each response rendered
   with Printf, then FNV-1a 64 over the line's bytes in Int64
   arithmetic. [Server.digest] streams the same bytes without building
   the line, so it must agree on every verdict, every int and every
   float class, or the replay anchor and every pinned digest move. *)

let ref_verdict = function
  | Server.Served { alt; value } -> Printf.sprintf "served:%d:%d" alt value
  | Server.Served_degraded { alt; value; level } ->
      Printf.sprintf "degraded:L%d:%d:%d" level alt value
  | Server.Recovered { alt; value; epochs } ->
      Printf.sprintf "recovered:e%d:%d:%d" epochs alt value
  | Server.Failed reason -> Printf.sprintf "failed:%s" reason
  | Server.Rejected (Server.Quota_exhausted { tokens }) ->
      Printf.sprintf "rejected:%.17g" tokens
  | Server.Rejected (Server.Overload { backlog }) ->
      Printf.sprintf "rejected:overload:%.17g" backlog

let ref_line (rs : Server.response) =
  Printf.sprintf "%d|%d|%d|%s|%.17g|%.17g|%.17g|%.17g" rs.Server.rs_id
    rs.Server.rs_tenant rs.Server.rs_batch
    (ref_verdict rs.Server.rs_verdict)
    rs.Server.rs_completion rs.Server.rs_latency rs.Server.rs_elapsed
    rs.Server.rs_wasted

let fnv_basis = 0xcbf29ce484222325L

let fnv_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let ref_digest (r : Server.result) =
  Array.fold_left
    (fun h rs -> fnv_string h (ref_line rs))
    fnv_basis r.Server.responses

let result_of responses =
  {
    Server.responses;
    batches = [||];
    violations = [];
    served = 0;
    degraded = 0;
    recovered = 0;
    failed = 0;
    shed = 0;
    shed_overload = 0;
    breaker_opens = 0;
    ladder_transitions = 0;
    peak_pressure = 0.;
  }

let odd_floats =
  [
    0.; -0.; nan; -.nan; infinity; neg_infinity; 5e-324; 1e300; 0.1; -2.5;
    1.9142250000000001; 123456789.125;
  ]

let odd_ints = [ 0; 7; -1; 9; 10; -10; 1234567; max_int; min_int ]

let odd_verdicts =
  [
    Server.Served { alt = 0; value = 42 };
    Server.Served { alt = 3; value = min_int };
    Server.Served_degraded { alt = 1; value = -7; level = 2 };
    Server.Recovered { alt = 2; value = max_int; epochs = 3 };
    Server.Failed "";
    Server.Failed "coordinator lost";
    Server.Failed "a|b:c||";
    Server.Failed "caf\xc3\xa9 \xe2\x80\x94 \xff\x00\x80";
  ]
  @ List.concat_map
      (fun f ->
        [
          Server.Rejected (Server.Quota_exhausted { tokens = f });
          Server.Rejected (Server.Overload { backlog = f });
        ])
      odd_floats

(* Every verdict against every float in every float slot, with the ints
   rotating through id, tenant and batch (batch [-1] included). *)
let odd_responses =
  let ints = Array.of_list odd_ints and floats = Array.of_list odd_floats in
  let ni = Array.length ints and nf = Array.length floats in
  List.concat
    (List.mapi
       (fun i verdict ->
         List.init nf (fun j ->
             let k = i + j in
             {
               Server.rs_id = ints.(k mod ni);
               rs_tenant = ints.((k + 1) mod ni);
               rs_batch = (if k mod 3 = 0 then -1 else ints.((k + 2) mod ni));
               rs_verdict = verdict;
               rs_completion = floats.(j);
               rs_latency = floats.((j + 1) mod nf);
               rs_elapsed = floats.((j + 2) mod nf);
               rs_wasted = floats.((j + 3) mod nf);
             }))
       odd_verdicts)

let hex = Printf.sprintf "%016Lx"

let test_digest_matches_reference_crafted () =
  List.iter
    (fun rs ->
      let r = result_of [| rs |] in
      check Alcotest.string (ref_line rs) (hex (ref_digest r))
        (hex (Server.digest r)))
    odd_responses;
  let all = result_of (Array.of_list odd_responses) in
  check Alcotest.string "all crafted responses" (hex (ref_digest all))
    (hex (Server.digest all));
  check Alcotest.string "no responses: the offset basis" (hex fnv_basis)
    (hex (Server.digest (result_of [||])))

let ladder_on =
  {
    (Controller.default ~lanes:Server.default.Server.sv_lanes) with
    Controller.dc_enabled = true;
  }

let overload_wl =
  { Workload.default with Workload.wl_rate = 800.; wl_requests = 2000 }

let overload_sv =
  { Server.default with Server.sv_ladder = ladder_on; sv_faults = Some 1 }

let classes_sv =
  {
    Server.default with
    Server.sv_scenario_rate = 40.;
    sv_scenario_burst = 5;
    sv_global_rate = 150.;
    sv_global_burst = 20;
  }

let test_digest_matches_reference_runs () =
  let cases =
    [
      ("default", small_wl, Server.default);
      ("ladder and faults", { overload_wl with Workload.wl_requests = 600 },
        overload_sv);
      ("scenario and global quota classes", small_wl, classes_sv);
    ]
  in
  List.iter
    (fun (name, wl, sv) ->
      let r = Server.run wl sv in
      check Alcotest.string name (hex (ref_digest r)) (hex (Server.digest r)))
    cases

(* The digest allocates only the strings [%.17g] returns: a few words
   per nonzero float, never a line or a boxed hash state. *)
let digest_words_per_response r =
  ignore (Sys.opaque_identity (Server.digest r));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Server.digest r));
  (Gc.minor_words () -. w0) /. float_of_int (Array.length r.Server.responses)

let test_digest_allocation () =
  let over =
    List.filter_map
      (fun (name, wl, sv) ->
        let w = digest_words_per_response (Server.run wl sv) in
        if w > 32. then Some (Printf.sprintf "%s: %.1f" name w) else None)
      [
        ("default run", Workload.default, Server.default);
        ("800 req/s with ladder and faults", overload_wl, overload_sv);
      ]
  in
  if over <> [] then
    Alcotest.failf "minor words per response above 32: %s"
      (String.concat "; " over)

(* Page buffers are one word over the minor heap's limit, so every
   fresh page goes straight to the major heap. With frames recycled and
   each job's space released, a warmed default run allocates almost
   nothing there directly: major words minus promoted words. *)
let direct_major_words f =
  ignore (Sys.opaque_identity (f ()));
  let _, p0, m0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let _, p1, m1 = Gc.counters () in
  m1 -. m0 -. (p1 -. p0)

let test_run_major_allocation () =
  let wl = Workload.default and sv = { Server.default with Server.sv_jobs = 1 } in
  let w =
    direct_major_words (fun () -> Server.run wl sv)
    /. float_of_int wl.Workload.wl_requests
  in
  if w > 32. then
    Alcotest.failf "%.1f major-heap words allocated directly per request" w

(* ------------------------------------------------------------------ *)
(* Batch formation.

   Pinned at the list-scan planner for configs the benchmark does not
   run: the response digest and an FNV over each batch's
   (id, scenario, policy, rung, size, close bits). *)

let batches_digest (r : Server.result) =
  Array.fold_left
    (fun h (bs : Server.batch_stat) ->
      fnv_string h
        (Printf.sprintf "%d|%s|%d|%d|%d|%Lx" bs.Server.bs_id
           bs.Server.bs_scenario bs.Server.bs_policy bs.Server.bs_level
           bs.Server.bs_size
           (Int64.bits_of_float bs.Server.bs_close)))
    fnv_basis r.Server.batches

let pinned_batch_runs =
  [
    ( "scenario and global quota classes (repeated scenario name)",
      {
        Workload.default with
        Workload.wl_requests = 600;
        wl_scenarios = [ "guarded"; "counters"; "all-fail"; "guarded" ];
      },
      classes_sv,
      ("c3fb5442a835b487", "3e9b242eb99c18ff") );
    ( "shed-only ladder",
      { Workload.default with Workload.wl_requests = 1500; wl_rate = 800. },
      {
        Server.default with
        Server.sv_ladder = { ladder_on with Controller.dc_shed_only = true };
      },
      ("698638989ce39f6e", "07a9e4a48ab3cc8b") );
    ( "ladder (rungs 0-2 batch apart)",
      { Workload.default with Workload.wl_requests = 1500; wl_rate = 800. },
      { Server.default with Server.sv_ladder = ladder_on },
      ("a8ed2d157409ce3f", "a92fe7629f4df07e") );
    ( "max_batch 1, window 0",
      { Workload.default with Workload.wl_requests = 400 },
      { Server.default with Server.sv_max_batch = 1; sv_window = 0. },
      ("fec0f9d51420b6b7", "7a4bd810b32cf0fd") );
  ]

let test_batch_formation_pinned () =
  List.iter
    (fun (name, wl, sv, (digest, batches)) ->
      let r = Server.run wl sv in
      check Alcotest.string (name ^ ": digest") digest (hex (Server.digest r));
      check Alcotest.string (name ^ ": batches") batches
        (hex (batches_digest r)))
    pinned_batch_runs

let config_gen =
  QCheck.Gen.(
    let* seed = int_range 1 10_000 in
    let* requests = int_range 0 120 in
    let* rate = oneofl [ 50.; 200.; 800.; 5000. ] in
    let* scenarios =
      oneofl
        [
          [ "guarded" ];
          [ "counters"; "guarded" ];
          [ "guarded"; "all-fail"; "guarded" ];
        ]
    in
    let* policies = int_range 1 8 in
    let* max_batch = int_range 1 6 in
    let* window = oneofl [ 0.; 0.001; 0.05; 0.3; infinity ] in
    let* quota_rate = oneofl [ 5.; 50. ] in
    let* classes = bool in
    let* ladder = oneofl [ `Off; `On; `Shed_only ] in
    let wl =
      {
        Workload.default with
        Workload.wl_seed = seed;
        wl_requests = requests;
        wl_rate = rate;
        wl_tenants = 10;
        wl_scenarios = scenarios;
        wl_policies = policies;
      }
    in
    let sv =
      {
        Server.default with
        Server.sv_lanes = 4;
        sv_max_batch = max_batch;
        sv_window = window;
        sv_quota_rate = quota_rate;
        sv_scenario_rate = (if classes then 30. else 0.);
        sv_global_rate = (if classes then 60. else 0.);
        sv_global_burst = 5;
        sv_ladder =
          (match ladder with
          | `Off -> Controller.default ~lanes:4
          | `On -> { (Controller.default ~lanes:4) with dc_enabled = true }
          | `Shed_only ->
              {
                (Controller.default ~lanes:4) with
                dc_enabled = true;
                dc_shed_only = true;
              });
      }
    in
    return (wl, sv))

let config_arb =
  QCheck.make config_gen ~print:(fun ((wl : Workload.config), (sv : Server.config)) ->
      Printf.sprintf
        "seed %d, %d requests at %g/s, scenarios [%s], %d policies, max_batch \
         %d, window %g, quota %g, classes %b, ladder %b/%b"
        wl.Workload.wl_seed wl.Workload.wl_requests wl.Workload.wl_rate
        (String.concat ";" wl.Workload.wl_scenarios)
        wl.Workload.wl_policies sv.Server.sv_max_batch sv.Server.sv_window
        sv.Server.sv_quota_rate
        (sv.Server.sv_global_rate > 0.)
        sv.Server.sv_ladder.Controller.dc_enabled
        sv.Server.sv_ladder.Controller.dc_shed_only)

let prop_batch_formation =
  QCheck.Test.make ~name:"batches partition the admitted requests" ~count:40
    config_arb (fun (wl, sv) ->
      let r = Server.run wl sv in
      let requests = Workload.generate wl in
      let nb = Array.length r.Server.batches in
      let members = Array.make nb 0 in
      let first = Array.make nb infinity in
      Array.iteri
        (fun i (rs : Server.response) ->
          if rs.Server.rs_id <> i then
            QCheck.Test.fail_reportf "request %d unanswered" i;
          match rs.Server.rs_verdict with
          | Server.Rejected _ ->
              if rs.Server.rs_batch <> -1 then
                QCheck.Test.fail_reportf "shed request %d in batch %d" i
                  rs.Server.rs_batch
          | _ ->
              let b = rs.Server.rs_batch in
              if b < 0 || b >= nb then
                QCheck.Test.fail_reportf "request %d in no batch" i;
              members.(b) <- members.(b) + 1;
              first.(b) <-
                Float.min first.(b) requests.(i).Workload.rq_arrival)
        r.Server.responses;
      Array.iteri
        (fun b (bs : Server.batch_stat) ->
          if bs.Server.bs_id <> b then
            QCheck.Test.fail_reportf "batch %d has id %d" b bs.Server.bs_id;
          if bs.Server.bs_size <> members.(b) then
            QCheck.Test.fail_reportf "batch %d: size %d, %d members" b
              bs.Server.bs_size members.(b);
          if bs.Server.bs_size < 1 || bs.Server.bs_size > sv.Server.sv_max_batch
          then QCheck.Test.fail_reportf "batch %d: size %d" b bs.Server.bs_size;
          if bs.Server.bs_close > first.(b) +. sv.Server.sv_window then
            QCheck.Test.fail_reportf "batch %d closes after its window" b;
          if b > 0 && bs.Server.bs_close < r.Server.batches.(b - 1).Server.bs_close
          then QCheck.Test.fail_reportf "batch %d closes before batch %d" b (b - 1))
        r.Server.batches;
      true)

(* The invariant batch expiry relies on: a window's deadline is its
   first arrival plus a constant, so non-decreasing arrivals keep the
   open batches in deadline order. *)
let prop_arrivals_nondecreasing =
  QCheck.Test.make ~name:"generated arrivals are non-decreasing" ~count:200
    QCheck.(
      triple (int_range 0 1_000_000) (int_range 0 400)
        (float_range 0.001 100_000.))
    (fun (seed, requests, rate) ->
      let rqs =
        Workload.generate
          {
            Workload.default with
            Workload.wl_seed = seed;
            wl_requests = requests;
            wl_rate = rate;
          }
      in
      let ok = ref true in
      Array.iteri
        (fun i (rq : Workload.request) ->
          if i > 0 && rq.Workload.rq_arrival < rqs.(i - 1).Workload.rq_arrival
          then ok := false)
        rqs;
      !ok)

let () =
  Alcotest.run "serve"
    [
      ( "workload",
        [
          Alcotest.test_case "seeded generation is deterministic" `Quick
            test_workload_deterministic;
        ] );
      ( "quota",
        [
          Alcotest.test_case "no drift across 10^6 boundary arrivals" `Quick
            test_quota_no_drift_over_1e6;
          Alcotest.test_case "burst then refusal then refill" `Quick
            test_quota_burst_and_refusal;
          Alcotest.test_case "composed classes are all-or-nothing" `Quick
            test_quota_classes_all_or_nothing;
          Alcotest.test_case "composed classes: no drift across 10^6" `Quick
            test_quota_classes_no_drift_over_1e6;
        ] );
      ( "shed path",
        [
          Alcotest.test_case "zero-timeout polls never park" `Quick
            test_timeout_zero_polls_in_shed_path;
        ] );
      ( "server",
        [
          Alcotest.test_case "batch and response invariants" `Quick
            test_batch_invariants;
          Alcotest.test_case "starved quota sheds honestly" `Quick
            test_starved_quota_sheds_honestly;
          Alcotest.test_case "starved quota classes shed honestly" `Quick
            test_starved_quota_classes_shed_honestly;
          Alcotest.test_case "replay identical, jobs-1 = jobs-N" `Quick
            test_replay_and_jobs_identical;
          Alcotest.test_case "sanitized run stays clean" `Quick
            test_sanitized_run_stays_clean;
          Alcotest.test_case "bench record satisfies its schema" `Quick
            test_bench_record_schema;
          Alcotest.test_case "at most 32 major words per request" `Quick
            test_run_major_allocation;
        ] );
      ( "digest",
        [
          Alcotest.test_case "crafted responses match Printf reference"
            `Quick test_digest_matches_reference_crafted;
          Alcotest.test_case "served runs match the Printf reference" `Quick
            test_digest_matches_reference_runs;
          Alcotest.test_case "at most 32 minor words per response" `Quick
            test_digest_allocation;
        ] );
      ( "batching",
        [
          Alcotest.test_case "digests pinned at the list-scan planner" `Quick
            test_batch_formation_pinned;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_batch_formation; prop_arrivals_nondecreasing ] );
    ]
