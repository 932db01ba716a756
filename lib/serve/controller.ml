(* The deterministic degradation ladder.

   An admission controller driven purely by virtual-time signals. The
   load meter is a leaky bucket of *estimated* work: each admitted
   request deposits [dc_est_service * rq_work] estimated work-seconds,
   and the bucket drains at the lane capacity ([dc_lanes] work-seconds
   per virtual second). The backlog-per-lane that remains is exactly
   the queueing delay a new arrival should expect if the estimate is
   right — a plan-time stand-in for lane occupancy and queue depth,
   computable before any batch executes (actual service times are not
   known at admission time, and using them would make admission depend
   on execution order, breaking the jobs-1 = jobs-N contract).

   The second signal is the recent shed rate: exponentially decayed
   (window [dc_window]) counts of arrivals and sheds. A stream that is
   already shedding is pushed down the ladder faster,
   [pressure = backlog_per_lane * (1 + shed_fraction)].

   Each request class (scenario, policy) walks its own ladder rung
   under the shared meter, one rung per decision, with hysteresis: a
   class steps *down* (cheaper service) when pressure reaches its
   current rung's threshold, and steps back *up* only when pressure has
   fallen below the previous rung's threshold times
   [1 - dc_hysteresis] — so the ladder does not flap when pressure
   hovers at a boundary.

   Rungs (the tentpole's ladder):
     0  full service — the policy the request asked for
        (majority consensus for consensus policies);
     1  consensus elision — lint-proven exclusive scenarios keep their
        at-most-once guarantee through `?exclusive` (local latch, zero
        sync messages); other classes downgrade sync to the local
        latch;
     2  sequential fallback — first-fit `Alt_block.run_first`, no
        speculation at all;
     3  shed — an honest `Rejected {Overload}`, no tokens consumed,
        no work metered.

   [dc_shed_only] is the baseline the degrade benchmark compares
   against: the same meter, thresholds and hysteresis, but every rung
   below full service sheds instead of degrading. *)

type config = {
  dc_enabled : bool;
  dc_shed_only : bool;
  dc_est_service : float;
  dc_lanes : int;
  dc_latch_at : float;
  dc_seq_at : float;
  dc_shed_at : float;
  dc_hysteresis : float;
  dc_window : float;
}

let default ~lanes =
  {
    dc_enabled = false;
    dc_shed_only = false;
    dc_est_service = 0.2;
    dc_lanes = max 1 lanes;
    dc_latch_at = 0.4;
    dc_seq_at = 1.2;
    dc_shed_at = 3.0;
    dc_hysteresis = 0.25;
    dc_window = 0.5;
  }

type decision = Admit of { level : int } | Shed of { backlog : float }

type t = {
  cfg : config;
  mutable outstanding : float;  (* estimated work-seconds not yet drained *)
  mutable last : float;  (* virtual time of the last decision *)
  mutable dec_arrivals : float;  (* decayed arrival count *)
  mutable dec_sheds : float;  (* decayed overload-shed count *)
  levels : (string, int) Hashtbl.t;  (* class -> current rung *)
  mutable transitions : int;
  mutable overload_sheds : int;
  mutable peak_pressure : float;
}

let create cfg =
  if cfg.dc_lanes < 1 then invalid_arg "Controller.create: lanes must be >= 1";
  if cfg.dc_est_service <= 0. then
    invalid_arg "Controller.create: est_service must be > 0";
  if not (cfg.dc_latch_at < cfg.dc_seq_at && cfg.dc_seq_at < cfg.dc_shed_at)
  then invalid_arg "Controller.create: thresholds must increase up the ladder";
  if cfg.dc_hysteresis < 0. || cfg.dc_hysteresis >= 1. then
    invalid_arg "Controller.create: hysteresis must be in [0, 1)";
  if cfg.dc_window <= 0. then
    invalid_arg "Controller.create: window must be > 0";
  {
    cfg;
    outstanding = 0.;
    last = 0.;
    dec_arrivals = 0.;
    dec_sheds = 0.;
    levels = Hashtbl.create 16;
    transitions = 0;
    overload_sheds = 0;
    peak_pressure = 0.;
  }

let shed_rung = 3

let threshold cfg = function
  | 0 -> cfg.dc_latch_at
  | 1 -> cfg.dc_seq_at
  | _ -> cfg.dc_shed_at

(* Advance the meter to [now]: drain the leaky bucket at lane capacity
   and decay the rate counters. Monotone [now] is the arrival stream's
   own guarantee. *)
let advance t ~now =
  let dt = now -. t.last in
  if dt > 0. then begin
    t.outstanding <-
      Float.max 0. (t.outstanding -. (dt *. float_of_int t.cfg.dc_lanes));
    let decay = Float.exp (-.dt /. t.cfg.dc_window) in
    t.dec_arrivals <- t.dec_arrivals *. decay;
    t.dec_sheds <- t.dec_sheds *. decay;
    t.last <- now
  end

let pressure t =
  let backlog = t.outstanding /. float_of_int t.cfg.dc_lanes in
  let shed_frac =
    if t.dec_arrivals <= 0. then 0. else t.dec_sheds /. t.dec_arrivals
  in
  backlog *. (1. +. shed_frac)

let decide t ~cls ~now ~work =
  if not t.cfg.dc_enabled then Admit { level = 0 }
  else begin
    advance t ~now;
    let p = pressure t in
    if p > t.peak_pressure then t.peak_pressure <- p;
    let current =
      match Hashtbl.find_opt t.levels cls with Some l -> l | None -> 0
    in
    let next =
      if current < shed_rung && p >= threshold t.cfg current then current + 1
      else if
        current > 0
        && p <= threshold t.cfg (current - 1) *. (1. -. t.cfg.dc_hysteresis)
      then current - 1
      else current
    in
    if next <> current then begin
      Hashtbl.replace t.levels cls next;
      t.transitions <- t.transitions + 1
    end;
    let effective =
      if t.cfg.dc_shed_only && next > 0 then shed_rung else next
    in
    t.dec_arrivals <- t.dec_arrivals +. 1.;
    if effective >= shed_rung then begin
      (* Sheds deposit nothing: refused work never occupies a lane. *)
      t.dec_sheds <- t.dec_sheds +. 1.;
      t.overload_sheds <- t.overload_sheds + 1;
      Shed { backlog = t.outstanding /. float_of_int t.cfg.dc_lanes }
    end
    else begin
      t.outstanding <- t.outstanding +. (t.cfg.dc_est_service *. work);
      Admit { level = effective }
    end
  end

let level t ~cls =
  match Hashtbl.find_opt t.levels cls with Some l -> l | None -> 0

let transitions t = t.transitions
let overload_sheds t = t.overload_sheds
let peak_pressure t = t.peak_pressure
