(* The crowd workload: one engine holding many parents, each running
   back-to-back alternative blocks of fixed-cost alternatives, so
   hundreds of processes are live at once. *)

type config = {
  seed : int;
  parents : int;
  blocks : int;  (* blocks per parent, run back to back *)
  alts : int;  (* alternatives per block *)
  cores : int;
}

let default ~seed = { seed; parents = 200; blocks = 2; alts = 4; cores = 4 }

(* Sorted, the costs of one block lie [gap] apart plus a jitter of at
   most [gap / 4], so any two differ by at least [min_separation]. The
   parent pays the whole set-up before its children start together, and
   processor sharing serves them at equal rates, so the cheapest finishes
   first; the separation keeps every block clear of ties. *)
let gap = 0.12
let min_separation = 0.75 *. gap

type input = {
  cfg : config;
  starts : float array;  (* per-parent start delay *)
  costs : float array array array;  (* parent -> block -> alternative *)
}

let generate cfg =
  let rng = Rng.create ~seed:cfg.seed in
  let starts = Array.init cfg.parents (fun _ -> Rng.uniform_in rng ~lo:0. ~hi:0.5) in
  let costs =
    Array.init cfg.parents (fun _ ->
        Array.init cfg.blocks (fun _ ->
            let base = Rng.uniform_in rng ~lo:0.1 ~hi:0.5 in
            let c =
              Array.init cfg.alts (fun r ->
                  base +. (gap *. float_of_int r)
                  +. Rng.uniform_in rng ~lo:0. ~hi:(gap /. 4.))
            in
            Rng.shuffle rng c;
            c))
  in
  { cfg; starts; costs }

let cheapest costs =
  let best = ref 0 in
  Array.iteri (fun i c -> if c < costs.(!best) then best := i) costs;
  !best

type result = {
  reports : int Concurrent.report array;  (* parent-major, block-minor *)
  events : int;
  makespan : float;  (* virtual *)
  total_cpu : float;  (* virtual *)
}

(* One engine: spawn every parent (the set-up half), then run it. *)
let build input =
  let cfg = input.cfg in
  let engine =
    Engine.create ~cores:(Engine.Cores cfg.cores) ~model:Cost_model.att_3b2
      ~seed:cfg.seed ~trace:false ()
  in
  let reports = Array.make (cfg.parents * cfg.blocks) None in
  Array.iteri
    (fun p per_block ->
      let space =
        Address_space.create (Engine.frame_store engine) (Engine.model engine)
      in
      Address_space.set_int space ~addr:0 p;
      ignore
        (Engine.spawn engine ~space ~cloneable:false ~start_delay:input.starts.(p)
           ~name:(Printf.sprintf "crowd-%d" p) (fun ctx ->
             Array.iteri
               (fun b costs ->
                 let alts =
                   Array.to_list
                     (Array.mapi
                        (fun i cost -> Alternative.fixed ~cost ((p * 1000) + i))
                        costs)
                 in
                 reports.((p * cfg.blocks) + b) <-
                   Some (Concurrent.run ctx alts))
               per_block)))
    input.costs;
  (engine, reports)

let run (engine, reports) =
  Engine.run engine;
  {
    reports =
      Array.map
        (function
          | Some r -> r
          | None -> failwith "Crowd.run: a block did not complete")
        reports;
    events = Engine.stats_events_processed engine;
    makespan = Engine.now engine;
    total_cpu = Engine.total_cpu_time engine;
  }

(* Blocks that did not select their cheapest alternative and its value. *)
let wrong_winners input result =
  let cfg = input.cfg in
  let bad = ref 0 in
  Array.iteri
    (fun k (r : int Concurrent.report) ->
      let p = k / cfg.blocks in
      let costs = input.costs.(p).(k mod cfg.blocks) in
      match r.Concurrent.outcome with
      | Alt_block.Selected { index; value }
        when index = cheapest costs && value = (p * 1000) + index -> ()
      | _ -> incr bad)
    result.reports;
  !bad

(* FNV-1a over every block's winner index and virtual elapsed time. *)
let winners_digest result =
  Array.fold_left
    (fun h (r : int Concurrent.report) ->
      let w =
        match r.Concurrent.outcome with
        | Alt_block.Selected { index; _ } -> index
        | Alt_block.Block_failed _ -> -1
      in
      Pb_stats.fnv1a h (Printf.sprintf "%d|%.17g;" w r.Concurrent.elapsed))
    Pb_stats.fnv_init result.reports
