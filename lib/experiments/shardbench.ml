type cell = {
  sb_shards : int;
  sb_procs : int;
  sb_cross : float;
}

type sample = {
  s_cell : cell;
  s_digest : int64;
  s_events : int;
  s_barriers : int;
  s_cross_msgs : int;
  s_wall_s : float;
}

type report = {
  r_seed : int;
  r_rounds : int;
  r_sites : int;
  r_cores : int;
  r_samples : sample list;
  r_identical : bool;
  r_pool_jobs : int;
  r_pool_speedup : float;
}

let default_shards = [ 1; 2; 4 ]
let default_procs = [ 8; 24 ]
let default_cross = [ 0.0; 0.25; 0.75 ]
let sites = 4

(* SplitMix64 finalizer, used as the digest combiner. *)
let mix64 h k =
  let open Int64 in
  let x = add (logxor h (mul k 0x9E3779B97F4A7C15L)) 0x632BE59BD9B4E019L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

(* One execution of the workload: [procs] oblivious workers spread
   round-robin over [sites] sites, each sending [rounds] messages to
   seeded partners — cross-site with probability [cross] — draining its
   own mailbox between rounds and after the last send. Every delivery is
   folded into the worker's digest word together with its receipt time,
   so a reordered, dropped or duplicated delivery under any shard count
   changes the digest. Returns (digest, events, barriers, cross_msgs). *)
let run_once ~seed ~rounds (c : cell) =
  let eng =
    Engine.create ~model:Cost_model.att_3b2 ~seed ~trace:false
      ~shards:c.sb_shards ()
  in
  let pids = Array.of_list (Engine.fresh_pids eng c.sb_procs) in
  let digests = Array.make c.sb_procs 0L in
  (* Each worker's partners, same-site and cross-site, in index order; a
     side with no partner falls back to every other worker. Built once
     per run, so a send costs one draw and one array read: the bench
     times the engine, not its own list building. *)
  let peers =
    let others i = List.filter (fun j -> j <> i) (List.init c.sb_procs Fun.id) in
    Array.init c.sb_procs (fun i ->
        let side cross =
          let want j =
            if cross then j mod sites <> i mod sites
            else j mod sites = i mod sites
          in
          match List.filter want (others i) with
          | [] -> Array.of_list (others i)
          | l -> Array.of_list l
        in
        (side false, side true))
  in
  let worker i ctx =
    let rng = Rng.create ~seed:((seed * 9176) + i) in
    let acc = ref 0L in
    let note (m : Message.t) =
      acc := mix64 !acc (Int64.of_int (Pid.to_int m.Message.sender));
      acc := mix64 !acc (Int64.of_int (Payload.get_int m.Message.payload));
      acc := mix64 !acc (Int64.bits_of_float (Engine.now_v ctx))
    in
    let drain_pending () =
      let rec go () =
        match Engine.receive_timeout ctx ~tag:"sb" ~timeout:0. () with
        | Some m -> note m; go ()
        | None -> ()
      in
      go ()
    in
    for round = 1 to rounds do
      let cross = Rng.bernoulli rng ~p:c.sb_cross in
      let peers = (if cross then snd else fst) peers.(i) in
      let peer = peers.(Rng.int rng (Array.length peers)) in
      Engine.send ctx ~tag:"sb" pids.(peer)
        (Payload.int ((i * 1_000_003) + round));
      drain_pending ();
      Engine.delay ctx 0.0005
    done;
    (* Quiesce: keep draining until half a virtual second passes with
       nothing arriving (virtual-time timeouts, so fully deterministic). *)
    let rec final () =
      match Engine.receive_timeout ctx ~tag:"sb" ~timeout:0.5 () with
      | Some m -> note m; final ()
      | None -> ()
    in
    final ();
    digests.(i) <- !acc
  in
  for i = 0 to c.sb_procs - 1 do
    ignore
      (Engine.spawn eng ~pid:pids.(i) ~cloneable:false ~oblivious:true
         ~name:(Printf.sprintf "w%d" i)
         ~site:(Printf.sprintf "s%d" (i mod sites))
         (worker i))
  done;
  Engine.run eng;
  let digest =
    let d =
      Array.fold_left (fun h w -> mix64 h w) (Int64.of_int seed) digests
    in
    mix64 d (Int64.of_int (Engine.stats_events_processed eng))
  in
  ( digest,
    Engine.stats_events_processed eng,
    Engine.stats_barriers eng,
    Engine.stats_cross_shard_msgs eng )

let cells ~shard_counts ~proc_counts ~cross_ratios =
  List.concat_map
    (fun procs ->
      List.concat_map
        (fun cross ->
          List.map
            (fun shards ->
              { sb_shards = shards; sb_procs = procs; sb_cross = cross })
            shard_counts)
        cross_ratios)
    proc_counts

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

let run ?(seed = 42) ?(rounds = 40) ?(shard_counts = default_shards)
    ?(proc_counts = default_procs) ?(cross_ratios = default_cross)
    ?(reps = 3) () =
  let cs = cells ~shard_counts ~proc_counts ~cross_ratios in
  let sample c =
    let digest = ref 0L and events = ref 0 in
    let barriers = ref 0 and cross_msgs = ref 0 in
    let walls =
      Array.init (max 1 reps) (fun _ ->
          let t0 = Unix.gettimeofday () in
          let d, e, b, x = run_once ~seed ~rounds c in
          let w = Unix.gettimeofday () -. t0 in
          digest := d;
          events := e;
          barriers := b;
          cross_msgs := x;
          w)
    in
    {
      s_cell = c;
      s_digest = !digest;
      s_events = !events;
      s_barriers = !barriers;
      s_cross_msgs = !cross_msgs;
      s_wall_s = median walls;
    }
  in
  let samples = List.map sample cs in
  (* The sweep-level speedup: the same independent cells dispatched once
     per domain count through the pool paths the harnesses use. *)
  let carr = Array.of_list cs in
  let timed jobs =
    let t0 = Unix.gettimeofday () in
    ignore
      (Parallel.map_indexed_shared ~jobs
         (fun i -> run_once ~seed ~rounds carr.(i))
         (Array.length carr));
    Unix.gettimeofday () -. t0
  in
  let pool_jobs = max 1 (Parallel.default_jobs ()) in
  let seq_wall = timed 1 in
  let pool_wall = if pool_jobs = 1 then seq_wall else timed pool_jobs in
  let identical =
    List.for_all
      (fun procs ->
        List.for_all
          (fun cross ->
            let ds =
              List.filter_map
                (fun s ->
                  if s.s_cell.sb_procs = procs && s.s_cell.sb_cross = cross
                  then Some s.s_digest
                  else None)
                samples
            in
            match ds with [] -> true | d :: rest -> List.for_all (( = ) d) rest)
          cross_ratios)
      proc_counts
  in
  {
    r_seed = seed;
    r_rounds = rounds;
    r_sites = sites;
    r_cores = Parallel.default_jobs ();
    r_samples = samples;
    r_identical = identical;
    r_pool_jobs = pool_jobs;
    r_pool_speedup = (if pool_wall > 0. then seq_wall /. pool_wall else 1.);
  }

let validate r =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if not r.r_identical then
    err "digests diverge across shard counts (byte-identity broken)";
  let groups =
    List.sort_uniq compare
      (List.map (fun s -> (s.s_cell.sb_procs, s.s_cell.sb_cross)) r.r_samples)
  in
  List.iter
    (fun (procs, cross) ->
      let here =
        List.filter
          (fun s -> s.s_cell.sb_procs = procs && s.s_cell.sb_cross = cross)
          r.r_samples
      in
      let events = List.map (fun s -> s.s_events) here in
      (match events with
      | e :: rest when not (List.for_all (( = ) e) rest) ->
        err "procs=%d cross=%.2f: event counts differ across shard counts"
          procs cross
      | _ -> ());
      List.iter
        (fun s ->
          if s.s_cell.sb_shards = 1 && s.s_barriers <> 0 then
            err "procs=%d cross=%.2f shards=1: %d barriers (want 0)" procs
              cross s.s_barriers;
          if s.s_cell.sb_shards = 1 && s.s_cross_msgs <> 0 then
            err "procs=%d cross=%.2f shards=1: %d cross-shard msgs (want 0)"
              procs cross s.s_cross_msgs;
          if
            s.s_cell.sb_shards > 1 && cross > 0. && procs > sites
            && s.s_cross_msgs = 0
          then
            err
              "procs=%d cross=%.2f shards=%d: no cross-shard messages staged"
              procs cross s.s_cell.sb_shards)
        here)
    groups;
  match !errs with [] -> Ok () | es -> Error (List.rev es)

let to_json r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  %S: %S,\n" "benchmark" "alt-shard");
  Buffer.add_string b (Printf.sprintf "  %S: %S,\n" "schema" "altbench-shard/1");
  Buffer.add_string b (Printf.sprintf "  %S: %d,\n" "seed" r.r_seed);
  Buffer.add_string b (Printf.sprintf "  %S: %d,\n" "rounds" r.r_rounds);
  Buffer.add_string b (Printf.sprintf "  %S: %d,\n" "sites" r.r_sites);
  Buffer.add_string b (Printf.sprintf "  %S: %d,\n" "cores" r.r_cores);
  Buffer.add_string b (Printf.sprintf "  %S: %b,\n" "identical" r.r_identical);
  Buffer.add_string b (Printf.sprintf "  %S: %d,\n" "pool_jobs" r.r_pool_jobs);
  Buffer.add_string b
    (Printf.sprintf "  %S: %.3f,\n" "pool_speedup" r.r_pool_speedup);
  Buffer.add_string b "  \"samples\": [\n";
  let n = List.length r.r_samples in
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf
           "    {%S: %d, %S: %d, %S: %.2f, %S: %S, %S: %d, %S: %d, %S: %d, \
            %S: %.6f}%s\n"
           "shards" s.s_cell.sb_shards "procs" s.s_cell.sb_procs "cross"
           s.s_cell.sb_cross "digest"
           (Printf.sprintf "%016Lx" s.s_digest)
           "events" s.s_events "barriers" s.s_barriers "cross_shard_msgs"
           s.s_cross_msgs "wall_s" s.s_wall_s
           (if i = n - 1 then "" else ",")))
    r.r_samples;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
