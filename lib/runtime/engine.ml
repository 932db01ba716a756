type cores = Infinite | Cores of int

type exit_status =
  | Exited_ok
  | Exited_failed of string
  | Crashed of string
  | Eliminated of string

exception Process_killed of string
exception Abort_process of string
exception Replay_divergence of string

(* One entry per effectful operation of a cloneable process, enough to
   re-execute its body deterministically up to a given point. *)
type log_entry =
  | L_delay of float
  | L_now of float
  | L_recv of Message.t
  | L_recv_opt of Message.t option
  | L_sent
  | L_random of int64

type proc_state =
  | Embryo
  | Running
  | Suspended
  | Dead of exit_status

(* A process's pending CPU work. Its remaining work and the CPU its owner
   has used so far live in the engine's flat float arrays at [slot], so
   the per-event float arithmetic stores unboxed. *)
type cpu_task = {
  owner : Pid.t;
  resume : unit -> unit;
  mutable slot : int;  (* index into the engine's CPU arrays; -1 once detached *)
  mutable ledger : float ref;
      (* the owner's [cpu_used] cell, written back when the task detaches;
         [no_ledger] until the owner's first positive charge *)
  mutable added : int;  (* add order, for first-charge ordering *)
}

let no_ledger = ref 0.
let no_task =
  { owner = Pid.of_int (-1); resume = ignore; slot = -1; ledger = no_ledger; added = -1 }

type park =
  | Park_recv of {
      tag : string option;
      wake : Message.t -> unit;
      cancel : string -> unit;
    }
  | Park_ivar of { cancel : string -> unit }
  | Park_cpu of { task : cpu_task; cancel : string -> unit }

type pcb = {
  pid : Pid.t;
  logical : Pid.t;
  parent : Pid.t option;
  name : string;
  body : ctx -> unit;
  mutable state : proc_state;
  mutable park : park option;
  mutable predicate : Predicate.t;
  space : Address_space.t option;
  mutable mailbox : Mailbox.t;  (* ring of frames, arrival order *)
  mutable last_chan : channel option;  (* last outbound channel, a cache *)
  mutable doomed : string option;
  mutable cloneable : bool;
  mutable log : log_entry list;  (* newest first *)
  mutable replay : log_entry list;  (* oldest first; non-empty while replaying *)
  mutable send_seq : int;
  mutable exit_watchers : (exit_status -> unit) list;
  mutable res_watchers : ([ `Certain | `Dead ] -> unit) list;
  mutable preserve_space : bool;
  oblivious : bool;
  mutable site : string option;
  mutable shard : int;  (* owning shard; world copies inherit the original's *)
  rng : Rng.t;
      (* Per-process SplitMix64 stream, keyed (root seed, pid). A
         per-shard stream would make a process's draws depend on which
         other processes share its shard — and therefore on the shard
         count — breaking the shards-1 = shards-N contract; keying by
         pid is the finest shard-independent split of the root seed.
         Each shard owns exactly the streams of its resident
         processes. *)
  born : int;  (* creation order: pcbs made before it in this engine *)
  mutable queued : bool;  (* due a sweep visit (see [sweep]) *)
  mutable defer_key : int;
      (* position in the deferred-fate order (see [sweep]); 0 when its
         fate is not deferred *)
  mutable defer_queued : bool;  (* due a deferred-fate settle *)
}

and ctx = { engine : t; pcb : pcb }

and event = { mutable dead_ev : bool; run_ev : unit -> unit }

(* One (sender, logical dest) messaging channel: the per-sender FIFO
   clock, a ring-buffer outbox of in-flight frames, and the state of the
   currently open delivery batch.

   A batch is a single scheduled event that will hand a contiguous run of
   outbox frames to the receiver in one step. A later send may join the
   open batch only if (a) it is due at exactly the batch's flush time,
   (b) the event queue's stamp has not moved since the batch last grew —
   i.e. nothing else was scheduled in between — and (c) no event has
   executed since either. The stamp alone counts only pushes: a
   zero-delay timer that pops and runs between two sends at the same
   virtual time (say, filling an ivar whose waiter resumes synchronously
   and sends again) moves neither the stamp nor the flush time, yet an
   event did order between the two sends and must flush the open batch.
   With (a)–(c) together no event can possibly order between the batch's
   members and global (time, seq) order is preserved exactly as if each
   message had its own event. *)
and channel = {
  ch_sender : Pid.t;
  ch_dest : Pid.t;  (* logical destination *)
  outbox : Mailbox.t;
  ch_clock : floatarray;
      (* [0] = last scheduled delivery time (the per-sender FIFO clock),
         [1] = the open batch's flush time. A flat float pair rather than
         two mutable fields of this mixed record, so the send fast path
         stores and compares times without boxing a float per message. *)
  mutable ch_open : bool;
  mutable ch_watermark : int;  (* Event_queue.stamp when the batch last grew *)
  mutable ch_epoch : int;  (* events_processed when the batch was opened *)
  mutable ch_upto : upto;
}

(* The open batch's end position, shared with the scheduled flush closure
   so joins can extend the batch without touching the event queue. *)
and upto = { mutable u : int }

and fault_action =
  | F_deliver
  | F_drop
  | F_delay of float
  | F_duplicate
  | F_reorder of float

and t = {
  mutable vnow : float;
  (* --- The sharded scheduler -------------------------------------
     Processes are partitioned across [nshards] shards (along site
     failure domains; site-less processes hash by pid). Each shard owns
     an event queue; all queues share one engine-global stamp counter
     [next_stamp], so the execution order — the merge of the per-shard
     queues by (time, stamp) — is exactly the order the single-queue
     engine produces, whatever the shard count. Cross-shard message
     events are staged into per-(src, dst) outboxes and exchanged at
     conservative virtual-time barriers (window = earliest next local
     event time + the cost model's minimum message latency); staging
     never changes an event's (time, stamp) key, so it cannot change
     execution order — only queue residency and the barrier counters. *)
  nshards : int;
  queues : event Event_queue.t array;  (* one per shard *)
  staged : event Event_queue.t array;
      (* nshards² per-(src, dst) cross-shard outboxes, row-major
         [src * nshards + dst]; [||] when nshards = 1 *)
  mutable next_stamp : int;  (* engine-global (time, stamp) order *)
  mutable cur_shard : int;  (* shard whose event is executing *)
  shard_events : int array;  (* events executed, per shard *)
  mutable barriers : int;
  mutable cross_msgs : int;  (* messages staged across shards *)
  lookahead : float;  (* conservative window: minimum message latency *)
  site_shards : (string, int) Hashtbl.t;  (* site -> first-seen index *)
  mutable site_count : int;
  root_seed : int;
  debug_shard_local_epoch : bool;
      (* Test-only: re-derive the batch-join epoch guard from the
         sender shard's local execution counter instead of the
         engine-global one — the broken variant the regression test
         pins (see [outbox_push]). *)
  mutable procs : pcb option array;
      (* indexed by pid: spawns, [fresh_pids] and world clones all draw
         from [alloc], so pids are dense per engine; grown by doubling *)
  worlds : (Pid.t, Pid.t list ref) Hashtbl.t;  (* logical pid -> copies *)
  alloc : Pid.Allocator.t;
  reg : Fate_registry.t;
  store : Frame_store.t;
  model_ : Cost_model.t;
  cores : cores;
  trace_ : Trace.t;
  (* --- Processor sharing: the live tasks in slots [0, cpu_n) -------- *)
  mutable cpu_tasks : cpu_task array;
  mutable cpu_rem : floatarray;  (* remaining work, by slot *)
  mutable cpu_use : floatarray;  (* the owner's CPU used so far, by slot *)
  mutable cpu_n : int;
  mutable cpu_uncharged : cpu_task list;  (* added, owner not in [cpu_used] yet *)
  mutable cpu_added : int;
  mutable cpu_buckets : int;
  cpu_used : (Pid.t, float ref) Hashtbl.t;
  cpu_last : floatarray;
      (* [0] = time of the last CPU update; [1] = the minimum over the
         live slots of [max 0 remaining], infinity with none *)
  mutable cpu_gen : int;
  mutable cpu_tick_ev : event option;
  channels : (Pid.t * Pid.t, channel) Hashtbl.t;
  mutable next_uid : int;  (* engine-global send identity *)
  mutable mailbox_scanned : int;  (* slots visited by receive scans *)
  mutable events_processed : int;
  mutable live : int;
  mutable stopped : bool;
  (* --- The predicate sweep (see [sweep]) ---------------------------- *)
  mutable sweeping : bool;
  mutable sweep_again : bool;
  mutable pcbs_made : int;
  dependents : (Pid.t, pcb list) Hashtbl.t;
      (* undecided pid -> pcbs whose predicate gained it *)
  visit_due : pcb Event_queue.t;  (* due in the current pass, keyed by pid *)
  mutable visit_next : pcb list;  (* due from the next pass on *)
  mutable pass_born : int;  (* [pcbs_made] when the current pass began *)
  mutable pass_cursor : int;  (* pid being visited; max_int between passes *)
  (* Processes that exited ok with their fate deferred on unresolved
     assumptions settle in [defer_key] order: a new entry goes ahead of
     every earlier one, except that entries deferred while a settle walks
     go after every earlier one. *)
  mutable defer_front : int;  (* smallest key in use, counting down from 0 *)
  mutable defer_back : int;  (* largest key in use, counting up from 0 *)
  settle_due : pcb Event_queue.t;  (* due in the current walk, by defer_key *)
  mutable settle_next : pcb list;  (* due from the next settle on *)
  mutable settling : bool;
  mutable settle_last : int;  (* [defer_back] when the walk began *)
  mutable settle_cursor : int;  (* key being settled *)
  mutable settle_new : pcb list;  (* deferred during the walk, newest first *)
  mutable msg_fault : (Message.t -> fault_action) option;
  mutable spawn_hook : (Pid.t -> string -> unit) option;
  mutable site_hook :
    (pid:Pid.t ->
    parent:Pid.t option ->
    name:string ->
    explicit:string option ->
    string option)
    option;
  mutable delivery_fault : (Message.t -> dest:Pid.t -> bool) option;
}

(* Send and the receive fast paths no longer go through effects at all:
   [send] runs entirely in the caller's frame, and [receive] /
   [receive_timeout] only perform an effect to park when nothing in the
   mailbox is acceptable right now. *)
type _ Effect.t +=
  | E_delay : float -> unit Effect.t
  | E_now : float Effect.t
  | E_recv : string option -> Message.t Effect.t
  | E_recv_timeout : string option * float -> Message.t option Effect.t
  | E_random : int64 Effect.t
  | E_park : (wake:(unit -> unit) -> unit) -> unit Effect.t

let create ?(cores = Infinite) ?(model = Cost_model.uniform ()) ?(seed = 42)
    ?(trace = true) ?(shards = 1) ?(debug_shard_local_epoch = false) () =
  if shards < 1 then invalid_arg "Engine.create: shards must be >= 1";
  {
    vnow = 0.;
    nshards = shards;
    queues = Array.init shards (fun _ -> Event_queue.create ());
    staged =
      (if shards = 1 then [||]
       else Array.init (shards * shards) (fun _ -> Event_queue.create ()));
    next_stamp = 0;
    cur_shard = 0;
    shard_events = Array.make shards 0;
    barriers = 0;
    cross_msgs = 0;
    lookahead = model.Cost_model.msg_latency;
    site_shards = Hashtbl.create 8;
    site_count = 0;
    root_seed = seed;
    debug_shard_local_epoch;
    procs = Array.make 64 None;
    worlds = Hashtbl.create 64;
    alloc = Pid.Allocator.create ();
    reg = Fate_registry.create ();
    store = Frame_store.create ~page_size:model.Cost_model.page_size;
    model_ = model;
    cores;
    trace_ = Trace.create ~enabled:trace ();
    cpu_tasks = [||];
    cpu_rem = Float.Array.create 0;
    cpu_use = Float.Array.create 0;
    cpu_n = 0;
    cpu_uncharged = [];
    cpu_added = 0;
    cpu_buckets = 16;
    cpu_used = Hashtbl.create 64;
    cpu_last = Float.Array.init 2 (fun i -> if i = 0 then 0. else infinity);
    cpu_gen = 0;
    cpu_tick_ev = None;
    channels = Hashtbl.create 64;
    next_uid = 0;
    mailbox_scanned = 0;
    events_processed = 0;
    live = 0;
    stopped = false;
    sweeping = false;
    sweep_again = false;
    pcbs_made = 0;
    dependents = Hashtbl.create 16;
    visit_due = Event_queue.create ();
    visit_next = [];
    pass_born = 0;
    pass_cursor = max_int;
    defer_front = 0;
    defer_back = 0;
    settle_due = Event_queue.create ();
    settle_next = [];
    settling = false;
    settle_last = 0;
    settle_cursor = 0;
    settle_new = [];
    msg_fault = None;
    spawn_hook = None;
    site_hook = None;
    delivery_fault = None;
  }

let set_message_fault t f = t.msg_fault <- f
let set_spawn_hook t f = t.spawn_hook <- f
let set_site_hook t f = t.site_hook <- f
let set_delivery_fault t f = t.delivery_fault <- f

let now t = t.vnow
let model t = t.model_
let frame_store t = t.store
let trace t = t.trace_
let registry t = t.reg
let shards t = t.nshards

(* Aggregated across shards: the per-shard counters are the source of
   truth, and the barrier path only moves events between queues — it
   never executes or drops one — so the sum is exact. *)
let stats_events_processed t = Array.fold_left ( + ) 0 t.shard_events
let stats_shard_events t = Array.copy t.shard_events
let stats_barriers t = t.barriers
let stats_cross_shard_msgs t = t.cross_msgs
let stats_mailbox_scanned t = t.mailbox_scanned

(* Every event, on every shard queue and in every staging outbox, is
   stamped from this one counter: the merged execution order is the
   single-queue order by construction. *)
let push_on t shard ~at ev =
  let seq = t.next_stamp in
  t.next_stamp <- seq + 1;
  Event_queue.push_stamped t.queues.(shard) ~time:(Float.max at t.vnow) ~seq ev

let schedule_cancellable t ~at thunk =
  let ev = { dead_ev = false; run_ev = thunk } in
  push_on t t.cur_shard ~at ev;
  ev

let cancel_event ev = ev.dead_ev <- true

let schedule t ~at thunk = ignore (schedule_cancellable t ~at thunk)

let schedule_on t shard ~at thunk =
  push_on t shard ~at { dead_ev = false; run_ev = thunk }

(* Route a messaging event to the destination's shard. [src] is the
   {e sender process}'s shard — not [cur_shard], which during a shared
   CPU-scheduler tick is whichever shard the tick event happened to live
   on. Same-shard deliveries go straight onto the shard's own queue (the
   intra-shard fast path); cross-shard ones are staged into the
   (src, dst) outbox for the next barrier exchange. *)
let schedule_to_shard t ~src dst ~at thunk =
  if t.nshards = 1 || dst = src then schedule_on t dst ~at thunk
  else begin
    let seq = t.next_stamp in
    t.next_stamp <- seq + 1;
    Event_queue.push_stamped
      t.staged.((src * t.nshards) + dst)
      ~time:(Float.max at t.vnow) ~seq
      { dead_ev = false; run_ev = thunk };
    t.cross_msgs <- t.cross_msgs + 1
  end

let tr t e = Trace.record t.trace_ ~time:t.vnow e

let status_string = function
  | Exited_ok -> "ok"
  | Exited_failed r -> "failed: " ^ r
  | Crashed r -> "crashed: " ^ r
  | Eliminated r -> "eliminated: " ^ r

let proc_state_string = function
  | Embryo -> "embryo"
  | Running -> "running"
  | Suspended -> "suspended"
  | Dead st -> "dead (" ^ status_string st ^ ")"

(* ------------------------------------------------------------------ *)
(* CPU: egalitarian processor sharing over [cores] processors.         *)

(* A CPU event makes one pass of float arithmetic over the live tasks'
   flat arrays and nothing else per task: no table walk, no lookup, no
   allocation. The pass also refreshes the cached minimum of the
   remaining work, which is all a reschedule reads. *)

let cpu_rate t =
  let n = t.cpu_n in
  if n = 0 then 1.0
  else
    match t.cores with
    | Infinite -> 1.0
    | Cores c -> Float.min 1.0 (float_of_int c /. float_of_int n)

(* [total_cpu_time] sums [cpu_used] in table order, so the order in which
   owners enter it is part of that float result. An owner enters at its
   first positive charge; owners first charged by the same update enter
   in hash-bucket order, newest first within a bucket — the iteration
   order of a pid-keyed [Hashtbl] holding the live tasks, whose bucket
   count [cpu_buckets] tracks (16, doubled whenever the task count
   exceeds twice it, never shrunk). *)
let open_ledgers t =
  let bucket task = Hashtbl.hash task.owner land (t.cpu_buckets - 1) in
  let fresh = List.filter (fun task -> task.slot >= 0) t.cpu_uncharged in
  t.cpu_uncharged <- [];
  List.iter
    (fun task ->
      let r = ref (Float.Array.get t.cpu_use task.slot) in
      task.ledger <- r;
      Hashtbl.replace t.cpu_used task.owner r)
    (List.sort
       (fun a b ->
         match Int.compare (bucket a) (bucket b) with
         | 0 -> Int.compare b.added a.added
         | c -> c)
       fresh)

(* [max 0 r], spelled out so that no float boxes: a NaN counts as 0. *)
let[@inline] clamp r = if r > 0. then r else 0.

let cpu_rescan_min t =
  let m = ref infinity in
  for i = 0 to t.cpu_n - 1 do
    let r = clamp (Float.Array.unsafe_get t.cpu_rem i) in
    if r < !m then m := r
  done;
  Float.Array.unsafe_set t.cpu_last 1 !m

(* Slot [i]'s share of an update by [d] = elapsed * rate: remaining
   work first, then the owner's CPU used. Returns the new remaining. *)
let[@inline] cpu_step t i d =
  let r = Float.Array.unsafe_get t.cpu_rem i -. d in
  Float.Array.unsafe_set t.cpu_rem i r;
  Float.Array.unsafe_set t.cpu_use i (Float.Array.unsafe_get t.cpu_use i +. d);
  r

let cpu_update t =
  let elapsed = t.vnow -. Float.Array.unsafe_get t.cpu_last 0 in
  if elapsed > 0. then begin
    let d = elapsed *. cpu_rate t in
    let m = ref infinity in
    for i = 0 to t.cpu_n - 1 do
      let r = clamp (cpu_step t i d) in
      if r < !m then m := r
    done;
    Float.Array.unsafe_set t.cpu_last 1 !m;
    if t.cpu_uncharged <> [] then open_ledgers t
  end;
  Float.Array.unsafe_set t.cpu_last 0 t.vnow

let rec cpu_reschedule t =
  t.cpu_gen <- t.cpu_gen + 1;
  (match t.cpu_tick_ev with
  | Some ev ->
    cancel_event ev;
    t.cpu_tick_ev <- None
  | None -> ());
  if t.cpu_n > 0 then begin
    let gen = t.cpu_gen in
    let rate = cpu_rate t in
    let at = t.vnow +. (Float.Array.unsafe_get t.cpu_last 1 /. rate) in
    t.cpu_tick_ev <- Some (schedule_cancellable t ~at (fun () -> cpu_tick t gen))
  end

(* [cpu_update] fused with the scan for finished tasks: one pass updates
   every slot, collects the tasks whose work is done and takes the
   minimum over the rest, which the swap-removes below leave in place. *)
and cpu_tick t gen =
  if gen = t.cpu_gen then begin
    let elapsed = t.vnow -. Float.Array.unsafe_get t.cpu_last 0 in
    let step = elapsed > 0. in
    let d = elapsed *. cpu_rate t in
    let m = ref infinity in
    let done_ = ref [] in
    for i = 0 to t.cpu_n - 1 do
      let r = if step then cpu_step t i d else Float.Array.unsafe_get t.cpu_rem i in
      if r <= 1e-12 then done_ := t.cpu_tasks.(i) :: !done_
      else begin
        let r = clamp r in
        if r < !m then m := r
      end
    done;
    if step && t.cpu_uncharged <> [] then open_ledgers t;
    Float.Array.unsafe_set t.cpu_last 0 t.vnow;
    Float.Array.unsafe_set t.cpu_last 1 !m;
    let done_ = List.sort (fun a b -> Pid.compare a.owner b.owner) !done_ in
    List.iter (cpu_detach t) done_;
    cpu_reschedule t;
    List.iter (fun task -> task.resume ()) done_
  end

(* Swap-remove: the last slot moves into the freed one. *)
and cpu_detach t task =
  let i = task.slot and last = t.cpu_n - 1 in
  if task.ledger != no_ledger then task.ledger := Float.Array.get t.cpu_use i;
  if i < last then begin
    let moved = t.cpu_tasks.(last) in
    t.cpu_tasks.(i) <- moved;
    moved.slot <- i;
    Float.Array.unsafe_set t.cpu_rem i (Float.Array.unsafe_get t.cpu_rem last);
    Float.Array.unsafe_set t.cpu_use i (Float.Array.unsafe_get t.cpu_use last)
  end;
  t.cpu_tasks.(last) <- no_task;
  t.cpu_n <- last;
  task.slot <- -1

let cpu_add t task ~work =
  cpu_update t;
  let i = t.cpu_n in
  if i = Array.length t.cpu_tasks then begin
    let cap = (2 * i) + 16 in
    let grow a =
      let b = Float.Array.create cap in
      Float.Array.blit a 0 b 0 i;
      b
    in
    let tasks = Array.make cap no_task in
    Array.blit t.cpu_tasks 0 tasks 0 i;
    t.cpu_tasks <- tasks;
    t.cpu_rem <- grow t.cpu_rem;
    t.cpu_use <- grow t.cpu_use
  end;
  t.cpu_tasks.(i) <- task;
  task.slot <- i;
  task.added <- t.cpu_added;
  t.cpu_added <- t.cpu_added + 1;
  Float.Array.unsafe_set t.cpu_rem i work;
  let w = clamp work in
  if w < Float.Array.unsafe_get t.cpu_last 1 then Float.Array.unsafe_set t.cpu_last 1 w;
  (match Hashtbl.find_opt t.cpu_used task.owner with
  | Some r ->
    task.ledger <- r;
    Float.Array.unsafe_set t.cpu_use i !r
  | None ->
    Float.Array.unsafe_set t.cpu_use i 0.;
    t.cpu_uncharged <- task :: t.cpu_uncharged);
  t.cpu_n <- i + 1;
  if t.cpu_n > 2 * t.cpu_buckets then t.cpu_buckets <- 2 * t.cpu_buckets;
  cpu_reschedule t

(* Only a task that held the minimum makes the cached value stale. *)
let cpu_remove t task =
  if task.slot >= 0 then begin
    cpu_update t;
    let r = clamp (Float.Array.unsafe_get t.cpu_rem task.slot) in
    cpu_detach t task;
    if r <= Float.Array.unsafe_get t.cpu_last 1 then cpu_rescan_min t;
    cpu_reschedule t
  end

(* ------------------------------------------------------------------ *)
(* Process table helpers.                                              *)

let find_pcb t pid =
  let i = Pid.to_int pid in
  if i >= 0 && i < Array.length t.procs then Array.unsafe_get t.procs i else None

(* Partition along site failure domains: every site gets a first-seen
   index (assignment order is part of the deterministic execution, so
   the index is shard-count independent) and maps to [index mod
   nshards]; site-less processes hash by pid (the identity hash — pids
   are already densely allocated integers, so consecutive spawns
   round-robin). World-split clones do not come through here: a copy
   lives, and dies, on its original's shard. *)
let shard_of_pcb t pcb =
  if t.nshards = 1 then 0
  else
    match pcb.site with
    | Some s ->
      let idx =
        match Hashtbl.find_opt t.site_shards s with
        | Some i -> i
        | None ->
          let i = t.site_count in
          t.site_count <- i + 1;
          Hashtbl.replace t.site_shards s i;
          i
      in
      idx mod t.nshards
    | None -> Pid.to_int pcb.pid mod t.nshards

let shard_of t pid =
  match find_pcb t pid with Some pcb -> pcb.shard | None -> 0

(* The shard a delivery to [dest] belongs to. [dest] is a logical pid:
   its original pcb persists post-mortem in the process table, and world
   copies share the original's shard, so one lookup covers every copy. *)
let shard_of_dest t dest =
  if t.nshards = 1 then 0
  else
    match find_pcb t dest with
    | Some pcb -> pcb.shard
    | None -> t.cur_shard

let is_alive pcb = match pcb.state with Dead _ -> false | _ -> true

let alive t pid = match find_pcb t pid with Some p -> is_alive p | None -> false

let status t pid =
  match find_pcb t pid with
  | Some { state = Dead s; _ } -> Some s
  | _ -> None

let predicate_of t pid = Option.map (fun p -> p.predicate) (find_pcb t pid)

let live_count t = t.live

(* The pids whose pcb satisfies [keep], in pid order. *)
let pids_where t keep =
  let acc = ref [] in
  for i = Array.length t.procs - 1 downto 0 do
    match Array.unsafe_get t.procs i with
    | Some pcb when keep pcb -> acc := pcb.pid :: !acc
    | _ -> ()
  done;
  !acc

let parked_pids t = pids_where t (fun pcb -> is_alive pcb && pcb.park <> None)

let log_push pcb e =
  if pcb.cloneable && pcb.replay = [] then pcb.log <- e :: pcb.log

let replay_next pcb =
  match pcb.replay with
  | [] -> None
  | e :: rest ->
    pcb.replay <- rest;
    Some e

let disable_cloning pcb =
  if pcb.cloneable then begin
    pcb.cloneable <- false;
    pcb.log <- []
  end

(* ------------------------------------------------------------------ *)
(* Fates, predicate sweep, world elimination.                          *)

let rec finalize t pcb st =
  match pcb.state with
  | Dead _ -> ()
  | _ ->
    pcb.state <- Dead st;
    (match pcb.park with Some (Park_cpu { task; _ }) -> cpu_remove t task | _ -> ());
    pcb.park <- None;
    if not pcb.preserve_space then Option.iter Address_space.release pcb.space;
    t.live <- t.live - 1;
    tr t (Trace.Exited { pid = pcb.pid; status = status_string st });
    let watchers = pcb.exit_watchers in
    pcb.exit_watchers <- [];
    List.iter
      (fun w ->
        try w st
        with e ->
          tr t (Trace.Note ("exit watcher raised: " ^ Printexc.to_string e)))
      watchers;
    (match st with
    | Exited_ok -> (
      (* An alternative's predicate assumes its own completion; its exit is
         precisely what resolves that assumption. *)
      (match Predicate.resolve pcb.predicate ~pid:pcb.pid ~fate:Predicate.Completed with
      | Predicate.Simplified p -> pcb.predicate <- p
      | Predicate.Unchanged -> ()
      | Predicate.Falsified ->
        (* It assumed its own failure: an impossible world; drop the
           self-assumption and let the normal sweep handle the rest. *)
        ());
      match Fate_registry.normalize t.reg pcb.predicate with
      | `Dead ->
        fire_res_watchers t pcb `Dead;
        record_fate t pcb.pid Predicate.Failed
      | `Live p when Predicate.is_certain p ->
        fire_res_watchers t pcb `Certain;
        record_fate t pcb.pid Predicate.Completed
      | `Live p ->
        (* Completion is conditional on unresolved assumptions: defer the
           fate until they resolve (the process "cannot commit" yet). *)
        pcb.predicate <- p;
        if t.settling then begin
          pcb.defer_key <- max_int;
          t.settle_new <- pcb :: t.settle_new
        end
        else begin
          t.defer_front <- t.defer_front - 1;
          pcb.defer_key <- t.defer_front
        end;
        tr t (Trace.Fate_deferred pcb.pid))
    | Exited_failed _ | Crashed _ | Eliminated _ ->
      fire_res_watchers t pcb `Dead;
      record_fate t pcb.pid Predicate.Failed)

and fire_res_watchers t pcb outcome =
  let ws = pcb.res_watchers in
  pcb.res_watchers <- [];
  List.iter
    (fun w ->
      try w outcome
      with e ->
        tr t (Trace.Note ("resolution watcher raised: " ^ Printexc.to_string e)))
    ws

and record_fate t pid fate =
  (match Fate_registry.fate t.reg pid with
  | Some f when f = fate -> ()
  | _ ->
    Fate_registry.record t.reg pid fate;
    tr t (Trace.Fate { pid; fate });
    match Hashtbl.find_opt t.dependents pid with
    | Some pcbs ->
      Hashtbl.remove t.dependents pid;
      List.iter
        (fun pcb ->
          if is_alive pcb then mark t pcb
          else if pcb.defer_key <> 0 then mark_deferred t pcb)
        pcbs
    | None -> ());
  sweep t

and kill t pid ~reason =
  match find_pcb t pid with
  | None -> ()
  | Some pcb -> (
    match pcb.state with
    | Dead _ -> ()
    | Embryo -> finalize t pcb (Eliminated reason)
    | Running -> pcb.doomed <- Some reason
    | Suspended -> (
      match pcb.park with
      | None ->
        (* Runnable (start scheduled): doom it; the start event checks. *)
        pcb.doomed <- Some reason
      | Some (Park_recv { cancel; _ }) | Some (Park_ivar { cancel }) ->
        pcb.park <- None;
        cancel reason
      | Some (Park_cpu { task; cancel }) ->
        pcb.park <- None;
        cpu_remove t task;
        cancel reason))

(* Re-examine process predicates after new knowledge arrives: falsified
   worlds are eliminated, satisfied assumptions removed, parked receivers
   rescanned, deferred fates settled.

   A sweep runs in passes and repeats while a pass recorded another fate.
   A pass visits live processes in pid order, then walks the deferred
   fates in their order. A visit does something only for a live process
   that is {e due}:
   (a) its predicate names a decided pid — [dependents] maps every
       undecided pid to the processes whose predicate gained it, and
       [record_fate] marks them; a predicate gaining an already decided
       pid is marked at once ([watch_predicate]);
   (b) it is a receiver whose last mailbox scan deferred an acceptance:
       every pass rescans it (traced, each rescan repeats the deferral);
   (c) it holds entries of a bulk delivery not yet rescanned, during
       which another world copy's wake-up may run a sweep.
   Likewise a deferred fate settles only once its predicate names a
   decided pid ([dependents] again). Every other visit or settle is a
   no-op, so only due ones run, in a heap keyed by pid (or by settle
   order): a pass costs O(due log due), not O(live).
   A process marked during a pass joins it only if it existed when the
   pass began and its pid is above the cursor — exactly the processes a
   full snapshot-and-sort pass would still reach — and otherwise waits
   for the next pass; the settle walk follows the same rule over its
   order. *)
and sweep t =
  if t.sweeping then t.sweep_again <- true
  else begin
    t.sweeping <- true;
    let continue = ref true in
    while !continue do
      t.sweep_again <- false;
      t.pass_born <- t.pcbs_made;
      t.pass_cursor <- -1;
      let due = t.visit_next in
      t.visit_next <- [];
      List.iter (push_visit t) due;
      let rec visits () =
        match Event_queue.pop t.visit_due with
        | None -> ()
        | Some (_, pcb) ->
          t.pass_cursor <- Pid.to_int pcb.pid;
          pcb.queued <- false;
          if is_alive pcb then visit t pcb;
          visits ()
      in
      visits ();
      t.pass_cursor <- max_int;
      settle t;
      continue := t.sweep_again
    done;
    t.sweeping <- false
  end

and visit t pcb =
  (match Fate_registry.normalize t.reg pcb.predicate with
  | `Dead ->
    tr t (Trace.Killed { pid = pcb.pid; reason = "dead world" });
    fire_res_watchers t pcb `Dead;
    kill t pcb.pid ~reason:"dead world"
  | `Live p ->
    let changed = not (Predicate.equal p pcb.predicate) in
    pcb.predicate <- p;
    if changed && Predicate.is_certain p then fire_res_watchers t pcb `Certain);
  (* A parked receiver may now be able to accept a message whose
     acceptance was deferred. *)
  if is_alive pcb then rescan_parked t pcb

(* Settle the due deferred fates, in deferred order. *)
and settle t =
  t.settling <- true;
  t.settle_last <- t.defer_back;
  t.settle_cursor <- min_int;
  let due = t.settle_next in
  t.settle_next <- [];
  List.iter (push_settle t) due;
  let rec settles () =
    match Event_queue.pop t.settle_due with
    | None -> ()
    | Some (_, pcb) ->
      t.settle_cursor <- pcb.defer_key;
      pcb.defer_queued <- false;
      (match Fate_registry.normalize t.reg pcb.predicate with
      | `Dead ->
        pcb.defer_key <- 0;
        fire_res_watchers t pcb `Dead;
        record_fate t pcb.pid Predicate.Failed
      | `Live p when Predicate.is_certain p ->
        pcb.defer_key <- 0;
        pcb.predicate <- p;
        fire_res_watchers t pcb `Certain;
        record_fate t pcb.pid Predicate.Completed
      | `Live p -> pcb.predicate <- p);
      settles ()
  in
  settles ();
  t.settling <- false;
  (* Fates deferred during the walk follow every earlier one, newest
     first among themselves. *)
  List.iter
    (fun pcb ->
      t.defer_back <- t.defer_back + 1;
      pcb.defer_key <- t.defer_back)
    t.settle_new;
  t.settle_new <- []

and push_visit t pcb =
  Event_queue.push t.visit_due ~time:(float_of_int (Pid.to_int pcb.pid)) pcb

and push_settle t pcb =
  Event_queue.push t.settle_due ~time:(float_of_int pcb.defer_key) pcb

(* Make [pcb] due a sweep visit: in the current pass if that pass would
   still reach it, else in the next one. *)
and mark t pcb =
  if not pcb.queued then begin
    pcb.queued <- true;
    if pcb.born < t.pass_born && Pid.to_int pcb.pid > t.pass_cursor then
      push_visit t pcb
    else t.visit_next <- pcb :: t.visit_next
  end

(* The same for a deferred fate: a fate deferred during the walk
   ([defer_key] = max_int until the walk ends) waits for the next. *)
and mark_deferred t pcb =
  if not pcb.defer_queued then begin
    pcb.defer_queued <- true;
    if t.settling && pcb.defer_key <= t.settle_last && pcb.defer_key > t.settle_cursor
    then push_settle t pcb
    else t.settle_next <- pcb :: t.settle_next
  end

(* [pcb]'s predicate became [p], gaining every pid it names that [old]
   does not. *)
and watch_predicate t pcb ~old p =
  let gain pid =
    if not (Predicate.mem_completes old pid || Predicate.mem_fails old pid) then
      match Fate_registry.fate t.reg pid with
      | Some _ -> mark t pcb
      | None ->
        let l = Option.value (Hashtbl.find_opt t.dependents pid) ~default:[] in
        Hashtbl.replace t.dependents pid (pcb :: l)
  in
  Pid.Set.iter gain (Predicate.must_complete p);
  Pid.Set.iter gain (Predicate.must_fail p)

(* ------------------------------------------------------------------ *)
(* Message scanning: accept / ignore / split (section 3.4.2).          *)

and try_receive t pcb tag : Message.t =
  (* Returns [Mailbox.no_message] (physical compare) when nothing is
     acceptable: the receive fast path runs once per message, so the
     sentinel saves an option cell per delivered message. *)
  let ring = pcb.mailbox in
  if Mailbox.is_empty ring then Mailbox.no_message
  else begin
    (* A tag-filtered receive starts at the ring's per-tag cursor: every
       position before it is known to hold no live frame with this tag, so
       repeated polls do not re-scan foreign traffic (the old list scan
       was quadratic in exactly that case). The cursor may be behind the
       head after consumptions; clamp it forward. *)
    let cur =
      match tag with
      | None -> None
      | Some wanted ->
        let c = Mailbox.cursor ring wanted in
        if c.Mailbox.cpos < Mailbox.head_pos ring then
          c.Mailbox.cpos <- Mailbox.head_pos ring;
        Some c
    in
    let start =
      match cur with None -> Mailbox.head_pos ring | Some c -> c.Mailbox.cpos
    in
    scan_mailbox t pcb ring tag cur [] start true
  end

(* Walk the ring in position order; honour per-sender FIFO when deferring.
   [blocked] (senders we must not overtake) is threaded as a list so the
   common no-deferral scan allocates nothing. [prefix] is true while every
   slot visited so far was a tombstone or tag-foreign, i.e. while the
   per-tag cursor may still advance over them. A top-level function rather
   than an inner closure: the receive fast path allocates nothing. The
   position-indexed accessors hide whether an entry is framed or spilled. *)
and scan_mailbox t pcb ring tag cur blocked pos prefix : Message.t =
  if pos >= Mailbox.tail_pos ring then Mailbox.no_message
  else begin
    t.mailbox_scanned <- t.mailbox_scanned + 1;
    if not (Mailbox.occupied_at ring pos) then begin
      advance_cursor cur pos prefix;
      scan_mailbox t pcb ring tag cur blocked (pos + 1) prefix
    end
    else
      let matches_tag =
        match tag with
        | None -> true
        | Some wanted -> String.equal (Mailbox.tag_at ring pos) wanted
      in
      if not matches_tag then begin
        advance_cursor cur pos prefix;
        scan_mailbox t pcb ring tag cur blocked (pos + 1) prefix
      end
      else if pcb.oblivious then begin
        (* Kernel-level services (consensus voters, devices) accept every
           message: they are part of process management, not of any world. *)
        let m = Mailbox.message_at ring pos in
        if Trace.live t.trace_ then
          tr t (Trace.Accepted { dest = pcb.pid; msg = m; dest_pred = pcb.predicate });
        Mailbox.remove ring pos;
        m
      end
      else if
        (* Empty-list check first: nothing is examined unless a sender has
           actually been deferred during this scan. *)
        (match blocked with
        | [] -> false
        | _ -> List.exists (Pid.equal (Mailbox.sender_at ring pos)) blocked)
      then scan_mailbox t pcb ring tag cur blocked (pos + 1) false
      else begin
        let spred = Mailbox.predicate_at ring pos in
        if Predicate.is_certain spred then begin
          (* The overwhelmingly common case: a sender with no unresolved
             assumptions. Normalisation would return the predicate
             unchanged and the receiver trivially implies it, so accept
             directly without allocating the `Live wrapper. *)
          let m = Mailbox.message_at ring pos in
          if Trace.live t.trace_ then
            tr t
              (Trace.Accepted { dest = pcb.pid; msg = m; dest_pred = pcb.predicate });
          Mailbox.remove ring pos;
          m
        end
        else
          match Fate_registry.normalize t.reg spred with
          | `Dead ->
            (* The sender's world died: the message never happened. *)
            if Trace.live t.trace_ then
              tr t
                (Trace.Ignored
                   {
                     dest = pcb.pid;
                     msg = Mailbox.message_at ring pos;
                     reason = "dead world";
                   });
            Mailbox.remove ring pos;
            advance_cursor cur pos prefix;
            scan_mailbox t pcb ring tag cur blocked (pos + 1) prefix
          | `Live s ->
            if Predicate.implies pcb.predicate s then begin
              let m = Mailbox.message_at ring pos in
              if Trace.live t.trace_ then
                tr t
                  (Trace.Accepted
                     { dest = pcb.pid; msg = m; dest_pred = pcb.predicate });
              Mailbox.remove ring pos;
              m
            end
            else if Predicate.conflicts pcb.predicate s then begin
              if Trace.live t.trace_ then
                tr t
                  (Trace.Ignored
                     {
                       dest = pcb.pid;
                       msg = Mailbox.message_at ring pos;
                       reason = "conflict";
                     });
              Mailbox.remove ring pos;
              advance_cursor cur pos prefix;
              scan_mailbox t pcb ring tag cur blocked (pos + 1) prefix
            end
            else begin
              (* The message requires new assumptions. *)
              match accept_with_split t pcb ring pos s with
              | Some m ->
                Mailbox.remove ring pos;
                m
              | None ->
                (* Keep waiting: do not overtake this sender (FIFO). The
                   deferral makes the receiver due every sweep pass. *)
                mark t pcb;
                scan_mailbox t pcb ring tag cur
                  (Mailbox.sender_at ring pos :: blocked)
                  (pos + 1) false
            end
      end
  end

and advance_cursor cur pos prefix =
  if prefix then
    match cur with None -> () | Some c -> c.Mailbox.cpos <- pos + 1

(* Receiver [pcb] is about to accept the message at [pos] of its ring,
   whose (normalized) sending predicate [s] extends the receiver's
   assumptions. Create the rejecting world as a replay clone, then let
   [pcb] proceed as the accepting world. Returns the accepted message, or
   [None] to defer; the caller removes the entry from the mailbox on
   acceptance. *)
and accept_with_split t pcb ring pos s : Message.t option =
  let sender = Mailbox.sender_at ring pos in
  let reject_pred =
    if Predicate.mem_completes pcb.predicate sender then None
    else Some (Predicate.assume_fails pcb.predicate sender)
  in
  let can_clone = pcb.cloneable in
  match reject_pred with
  | None ->
    (* The receiver already depends on the sender completing; the only new
       assumptions are the sender's own, which acceptance takes on. *)
    let m = Mailbox.message_at ring pos in
    adopt_sender_assumptions t pcb m s;
    Some m
  | Some reject_pred when can_clone ->
    let m = Mailbox.message_at ring pos in
    let clone_pid = Pid.Allocator.fresh t.alloc in
    let clone =
      make_pcb t ~pid:clone_pid ~logical:pcb.logical ~parent:pcb.parent
        ~name:(pcb.name ^ "~world") ~predicate:reject_pred ~space:None
        ~cloneable:true ~oblivious:false ~body:pcb.body
    in
    clone.replay <- List.rev pcb.log;
    clone.log <- pcb.log;
    (* The rejecting world keeps everything except the accepted send —
       keyed by send identity (and by shared message value for spilled
       entries), so an injected duplicate is excluded along with its
       original, exactly like the physical-equality filter on the old
       list mailbox. Framed entries are deep-copied: both worlds may
       consume their copies independently. *)
    clone.mailbox <-
      Mailbox.copy_excluding pcb.mailbox ~uid:(Mailbox.uid_at ring pos) ~msg:m;
    register_world t clone;
    t.live <- t.live + 1;
    (* World copies live wherever the original does: a site crash must take
       every copy of a resident process down with it — and the same goes
       for the shard, so one flush event reaches every copy. *)
    assign_site t clone ~explicit:pcb.site;
    clone.shard <- pcb.shard;
    tr t (Trace.Split { original = pcb.pid; clone = clone_pid; on = m });
    (match t.spawn_hook with Some h -> h clone_pid clone.name | None -> ());
    (* Charge the copy as a fork-base-cost start delay for the clone. *)
    schedule_on t clone.shard
      ~at:(t.vnow +. t.model_.Cost_model.fork_base)
      (fun () -> start_pcb t clone);
    adopt_sender_assumptions t pcb m s;
    Some m
  | Some _ ->
    (* Not cloneable: fall back to deferring until the sender resolves
       (pessimistic but semantics-preserving). *)
    if Trace.live t.trace_ then
      tr t
        (Trace.Ignored
           {
             dest = pcb.pid;
             msg = Mailbox.message_at ring pos;
             reason = "deferred (receiver not cloneable)";
           });
    None

and adopt_sender_assumptions t pcb m s =
  (* The trace records the predicate the receiver held when it decided to
     accept, not the conjoined one: the analysis layer re-derives the
     acceptance decision from it. *)
  let pred_at_accept = pcb.predicate in
  let p = Predicate.conjoin pcb.predicate s in
  let p =
    if Predicate.mem_completes p m.Message.sender then p
    else Predicate.assume_completes p m.Message.sender
  in
  pcb.predicate <- p;
  watch_predicate t pcb ~old:pred_at_accept p;
  tr t (Trace.Accepted { dest = pcb.pid; msg = m; dest_pred = pred_at_accept })

and rescan_parked t pcb =
  match pcb.park with
  | Some (Park_recv { tag; wake; _ }) ->
    let m = try_receive t pcb tag in
    if m != Mailbox.no_message then wake m
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Process creation and the effect handler.                            *)

and make_pcb t ~pid ~logical ~parent ~name ~predicate ~space ~cloneable
    ~oblivious ~body =
  let i = Pid.to_int pid in
  if i < 0 then invalid_arg "Engine.spawn: negative pid";
  if find_pcb t pid != None then invalid_arg "Engine.spawn: pid already in use";
  let pcb =
    {
      pid;
      logical;
      parent;
      name;
      body;
      state = Embryo;
      park = None;
      predicate;
      space;
      mailbox = Mailbox.create ();
      last_chan = None;
      doomed = None;
      cloneable = cloneable && space = None;
      log = [];
      replay = [];
      send_seq = 0;
      exit_watchers = [];
      res_watchers = [];
      preserve_space = false;
      oblivious;
      site = None;
      shard = 0;  (* settled after site assignment; clones inherit *)
      rng = Rng.stream ~seed:t.root_seed ~key:(Pid.to_int pid);
      born = t.pcbs_made;
      queued = false;
      defer_key = 0;
      defer_queued = false;
    }
  in
  t.pcbs_made <- t.pcbs_made + 1;
  let n = Array.length t.procs in
  if i >= n then begin
    let procs = Array.make (max (2 * n) (i + 1)) None in
    Array.blit t.procs 0 procs 0 n;
    t.procs <- procs
  end;
  t.procs.(i) <- Some pcb;
  watch_predicate t pcb ~old:Predicate.empty predicate;
  pcb

and assign_site t pcb ~explicit =
  pcb.site <-
    (match t.site_hook with
    | Some h -> h ~pid:pcb.pid ~parent:pcb.parent ~name:pcb.name ~explicit
    | None -> explicit)

and register_world t pcb =
  match Hashtbl.find_opt t.worlds pcb.logical with
  | Some l -> l := pcb.pid :: !l
  | None -> Hashtbl.replace t.worlds pcb.logical (ref [ pcb.pid ])

and start_pcb t pcb =
  match pcb.state with
  | Dead _ -> ()
  | Embryo -> (
    match pcb.doomed with
    | Some reason -> finalize t pcb (Eliminated reason)
    | None ->
      pcb.state <- Running;
      tr t (Trace.Started pcb.pid);
      run_body t pcb)
  | (Running | Suspended) as st ->
    failwith
      (Format.asprintf "Engine.start_pcb: process %a (%s) already started: %s"
         Pid.pp pcb.pid pcb.name (proc_state_string st))

and run_body t pcb =
  let ctx = { engine = t; pcb } in
  let check_doom : type a. (a, unit) Effect.Deep.continuation -> bool =
   fun k ->
    match pcb.doomed with
    | Some reason ->
      pcb.doomed <- None;
      Effect.Deep.discontinue k (Process_killed reason);
      true
    | None -> false
  in
  let handler =
    {
      Effect.Deep.retc = (fun () -> finalize t pcb Exited_ok);
      exnc =
        (fun e ->
          match e with
          | Process_killed r -> finalize t pcb (Eliminated r)
          | Abort_process r -> finalize t pcb (Exited_failed r)
          | e -> finalize t pcb (Crashed (Printexc.to_string e)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_delay dt ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if check_doom k then ()
                else begin
                  match replay_next pcb with
                  | Some (L_delay _) -> Effect.Deep.continue k ()
                  | Some _ ->
                    Effect.Deep.discontinue k
                      (Replay_divergence "expected delay")
                  | None ->
                    log_push pcb (L_delay dt);
                    if dt <= 0. then Effect.Deep.continue k ()
                    else begin
                      let armed = ref true in
                      let task =
                        {
                          owner = pcb.pid;
                          resume =
                            (fun () ->
                              if !armed then begin
                                armed := false;
                                pcb.park <- None;
                                pcb.state <- Running;
                                Effect.Deep.continue k ()
                              end);
                          slot = -1;
                          ledger = no_ledger;
                          added = -1;
                        }
                      in
                      let cancel reason =
                        if !armed then begin
                          armed := false;
                          Effect.Deep.discontinue k (Process_killed reason)
                        end
                      in
                      pcb.state <- Suspended;
                      pcb.park <- Some (Park_cpu { task; cancel });
                      cpu_add t task ~work:dt
                    end
                end)
          | E_now ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if check_doom k then ()
                else begin
                  match replay_next pcb with
                  | Some (L_now v) -> Effect.Deep.continue k v
                  | Some _ ->
                    Effect.Deep.discontinue k (Replay_divergence "expected now")
                  | None ->
                    log_push pcb (L_now t.vnow);
                    Effect.Deep.continue k t.vnow
                end)
          | E_random ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if check_doom k then ()
                else begin
                  match replay_next pcb with
                  | Some (L_random v) -> Effect.Deep.continue k v
                  | Some _ ->
                    Effect.Deep.discontinue k
                      (Replay_divergence "expected random")
                  | None ->
                    let v = Rng.bits64 pcb.rng in
                    log_push pcb (L_random v);
                    Effect.Deep.continue k v
                end)
          | E_recv tag ->
            (* The caller ([receive]) already ran the replay and mailbox
               fast paths; performing the effect means nothing was
               acceptable, so this handler only parks. Scanning again here
               would both waste the scan and duplicate any Ignored
               (deferral) trace events the first scan recorded. *)
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if check_doom k then ()
                else begin
                  let armed = ref true in
                  let wake m =
                    if !armed then begin
                      armed := false;
                      pcb.park <- None;
                      pcb.state <- Running;
                      log_push pcb (L_recv m);
                      Effect.Deep.continue k m
                    end
                  in
                  let cancel reason =
                    if !armed then begin
                      armed := false;
                      Effect.Deep.discontinue k (Process_killed reason)
                    end
                  in
                  pcb.state <- Suspended;
                  pcb.park <- Some (Park_recv { tag; wake; cancel })
                end)
          | E_recv_timeout (tag, timeout) ->
            (* Park-only, like [E_recv]: the caller polled already. *)
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if check_doom k then ()
                else begin
                  let armed = ref true in
                  let timeout_ev = ref None in
                  let disarm () =
                    armed := false;
                    Option.iter cancel_event !timeout_ev
                  in
                  let wake m =
                    if !armed then begin
                      disarm ();
                      pcb.park <- None;
                      pcb.state <- Running;
                      log_push pcb (L_recv_opt (Some m));
                      Effect.Deep.continue k (Some m)
                    end
                  in
                  let timeout_wake () =
                    if !armed then begin
                      disarm ();
                      pcb.park <- None;
                      pcb.state <- Running;
                      log_push pcb (L_recv_opt None);
                      Effect.Deep.continue k None
                    end
                  in
                  let cancel reason =
                    if !armed then begin
                      disarm ();
                      Effect.Deep.discontinue k (Process_killed reason)
                    end
                  in
                  pcb.state <- Suspended;
                  pcb.park <- Some (Park_recv { tag; wake; cancel });
                  timeout_ev :=
                    Some
                      (schedule_cancellable t ~at:(t.vnow +. timeout) (fun () ->
                           timeout_wake ()))
                end)
          | E_park register ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if check_doom k then ()
                else begin
                  disable_cloning pcb;
                  let armed = ref true in
                  let wake () =
                    if !armed then begin
                      armed := false;
                      pcb.park <- None;
                      pcb.state <- Running;
                      Effect.Deep.continue k ()
                    end
                  in
                  let cancel reason =
                    if !armed then begin
                      armed := false;
                      Effect.Deep.discontinue k (Process_killed reason)
                    end
                  in
                  pcb.state <- Suspended;
                  pcb.park <- Some (Park_ivar { cancel });
                  register ~wake
                end)
          | _ -> None);
    }
  in
  Effect.Deep.match_with pcb.body ctx handler

and channel_of t pcb ~dest =
  match pcb.last_chan with
  | Some c when Pid.equal c.ch_dest dest -> c
  | _ ->
    let key = (pcb.pid, dest) in
    let c =
      match Hashtbl.find_opt t.channels key with
      | Some c -> c
      | None ->
        let c =
          {
            ch_sender = pcb.pid;
            ch_dest = dest;
            outbox = Mailbox.create ();
            ch_clock =
              (let a = Float.Array.create 2 in
               Float.Array.set a 0 neg_infinity;
               Float.Array.set a 1 0.;
               a);
            ch_open = false;
            ch_watermark = -1;
            ch_epoch = -1;
            ch_upto = { u = 0 };
          }
        in
        Hashtbl.replace t.channels key c;
        c
    in
    pcb.last_chan <- Some c;
    c

(* Serialise one outgoing message into the channel's outbox (or spill it
   as a heap message when the ring's frame pool is exhausted by a burst)
   and make sure a flush event will hand it to the receiver at the time the
   caller just stored in [ch_clock.(0)] (passing it through the clock
   rather than as an argument keeps the float unboxed on the join path):
   join
   the open batch when that is provably order-preserving (same flush time
   and no event scheduled since the batch last grew), otherwise schedule a
   fresh flush — which takes exactly the event-queue slot the per-message
   delivery used to, so (time, seq) order is unchanged. *)
and outbox_push t chan ~src_shard ~sender ~predicate ~tag ~seq ~uid ~size
    ~cached payload =
  (if Mailbox.has_frame chan.outbox then
     Frame.fill
       (Mailbox.emplace_frame chan.outbox)
       ~sender ~dest:chan.ch_dest ~predicate ~tag ~seq ~uid ~size ~cached
       payload
   else
     let m =
       match cached with
       | Some m -> m
       | None ->
         { Message.sender; dest = chan.ch_dest; predicate; payload; tag; seq;
           size }
     in
     Mailbox.emplace_spilled chan.outbox m);
  let at = Float.Array.unsafe_get chan.ch_clock 0 in
  (* Both join guards must be engine-GLOBAL under sharding. The
     watermark is the global stamp counter (nothing was scheduled on any
     shard since the batch last grew) and the epoch is the global
     execution counter (no event executed on any shard since the batch
     opened). A per-shard epoch — the tempting "re-derive the counter
     the shard already keeps" refactor — falsely joins when an event on
     a different shard ordered between two sends: the merged (time,
     stamp) order saw an execution, the sender's shard counter did not.
     [debug_shard_local_epoch] keeps that broken variant compilable for
     the regression test that pins the divergence. *)
  let epoch =
    if t.debug_shard_local_epoch then t.shard_events.(t.cur_shard)
    else t.events_processed
  in
  if
    chan.ch_open
    && Float.Array.unsafe_get chan.ch_clock 1 = at
    && chan.ch_watermark = t.next_stamp
    && chan.ch_epoch = epoch
  then chan.ch_upto.u <- Mailbox.tail_pos chan.outbox
  else begin
    let upto = { u = Mailbox.tail_pos chan.outbox } in
    chan.ch_open <- true;
    Float.Array.unsafe_set chan.ch_clock 1 at;
    chan.ch_upto <- upto;
    schedule_to_shard t ~src:src_shard
      (shard_of_dest t chan.ch_dest)
      ~at
      (fun () -> flush_channel t chan upto);
    chan.ch_watermark <- t.next_stamp;
    chan.ch_epoch <- epoch
  end

and do_send t pcb ~dest ~tag payload =
  let predicate =
    (* Certain predicates normalise to themselves; skipping the call keeps
       the fast path free of the `Live wrapper allocation. *)
    if Predicate.is_certain pcb.predicate then pcb.predicate
    else
      match Fate_registry.normalize t.reg pcb.predicate with
      | `Live p -> p
      | `Dead -> pcb.predicate (* the sweep will kill us shortly *)
  in
  let seq = pcb.send_seq in
  pcb.send_seq <- seq + 1;
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  let size = Message.header_bytes + Payload.size_bytes payload in
  let live = Trace.live t.trace_ in
  (* Materialise a message value only if someone will look at it: the
     trace, a message-fault plan, or a delivery-fault hook. It is threaded
     through the frames as [cached] so every event about this send shares
     one value, exactly like the heap-allocated path did. *)
  let msg =
    if live || t.msg_fault != None || t.delivery_fault != None then
      Some { Message.sender = pcb.pid; dest; predicate; payload; tag; seq; size }
    else None
  in
  (match msg with Some m when live -> tr t (Trace.Sent { msg = m }) | _ -> ());
  let chan = channel_of t pcb ~dest in
  (* Per-(sender, logical dest) FIFO: never deliver before an earlier send.
     The cost expression is inlined (rather than calling
     [Cost_model.message_cost]) so the float stays unboxed in this frame. *)
  let at =
    let earliest =
      t.vnow
      +. t.model_.Cost_model.msg_latency
      +. (float_of_int size *. t.model_.Cost_model.msg_per_byte)
    in
    let last = Float.Array.unsafe_get chan.ch_clock 0 in
    if last > earliest then last else earliest
  in
  match t.msg_fault with
  | None ->
    Float.Array.unsafe_set chan.ch_clock 0 at;
    outbox_push t chan ~src_shard:pcb.shard ~sender:pcb.pid ~predicate ~tag
      ~seq ~uid ~size
      ~cached:msg payload
  | Some f -> (
    let m = Option.get msg in
    let inject kind = tr t (Trace.Injected { kind; pid = None; msg = Some m }) in
    match f m with
    | F_deliver ->
      Float.Array.unsafe_set chan.ch_clock 0 at;
      outbox_push t chan ~src_shard:pcb.shard ~sender:pcb.pid ~predicate ~tag
        ~seq ~uid ~size
        ~cached:msg payload
    | F_drop ->
      (* The send happened; the network lost it. The channel clock still
         advances so that later sends keep their fault-free schedule. *)
      Float.Array.unsafe_set chan.ch_clock 0 at;
      inject "drop"
    | F_duplicate ->
      Float.Array.unsafe_set chan.ch_clock 0 at;
      inject "duplicate";
      (* Two frames, one send identity, independently serialised bytes:
         consuming (or corrupting) one copy cannot touch the other, but a
         world split still filters both out as a single logical send. *)
      outbox_push t chan ~src_shard:pcb.shard ~sender:pcb.pid ~predicate ~tag
        ~seq ~uid ~size
        ~cached:msg payload;
      outbox_push t chan ~src_shard:pcb.shard ~sender:pcb.pid ~predicate ~tag
        ~seq ~uid ~size
        ~cached:msg payload
    | F_delay extra ->
      (* Extra latency that also holds back later sends on the channel:
         per-sender FIFO is preserved, everything just arrives late. The
         message bypasses the outbox (its time would break the outbox's
         monotone order) and is delivered directly. *)
      let at = at +. Float.max 0. extra in
      Float.Array.unsafe_set chan.ch_clock 0 at;
      inject "delay";
      schedule_to_shard t ~src:pcb.shard (shard_of_dest t dest) ~at (fun () ->
          deliver_msg t m)
    | F_reorder extra ->
      (* Extra latency that does NOT advance the channel clock: a later
         send may overtake this message — a genuine FIFO violation. *)
      Float.Array.unsafe_set chan.ch_clock 0 at;
      inject "reorder";
      schedule_to_shard t ~src:pcb.shard
        (shard_of_dest t dest)
        ~at:(at +. Float.max 0. extra)
        (fun () -> deliver_msg t m))

(* Hand every entry of one delivery batch to the receiver. When the trace
   is live each entry is delivered, traced and rescanned in turn — byte-for-
   byte the event sequence the per-message engine produced, because the
   batch-join rule guarantees nothing could have ordered between them. When
   nobody is watching the trace (and no delivery-fault hook needs a
   per-copy veto interleaved with world splits), the destination's world
   copies are resolved once, all entries are enqueued, and each copy is
   rescanned once: unobservable (no user code can run mid-drain), and it
   turns n park/wake cycles of a pipelined receiver into one. *)
and flush_channel t chan upto =
  if chan.ch_open && chan.ch_upto == upto then chan.ch_open <- false;
  let outbox = chan.outbox in
  let live = Trace.live t.trace_ in
  if live || t.delivery_fault != None then begin
    if live then begin
      let n = upto.u - Mailbox.head_pos outbox in
      if n > 1 then
        tr t
          (Trace.Delivered_batch
             { sender = chan.ch_sender; dest = chan.ch_dest; count = n })
    end;
    while Mailbox.head_pos outbox < upto.u do
      let pos = Mailbox.head_pos outbox in
      deliver_pos t outbox pos ~dest:chan.ch_dest ~rescan:true;
      Mailbox.remove outbox pos
    done
  end
  else begin
    (match Hashtbl.find t.worlds chan.ch_dest with
    | l -> (
      match !l with
      | [ pid ] -> drain_batch_to t outbox upto pid
      | pids -> (
        while Mailbox.head_pos outbox < upto.u do
          let pos = Mailbox.head_pos outbox in
          List.iter
            (fun pid -> deliver_pos_to t outbox pos pid ~rescan:false)
            (List.rev pids);
          Mailbox.remove outbox pos
        done;
        List.iter (fun pid -> Option.iter (mark_unscanned t) (find_pcb t pid)) pids))
    | exception Not_found -> drain_batch_to t outbox upto chan.ch_dest);
    rescan_worlds t chan.ch_dest
  end

(* The single-world-copy bulk drain: destination pcb looked up once for
   the whole batch (liveness cannot change mid-drain — no user code runs
   until the rescan). *)
and drain_batch_to t outbox upto pid =
  match find_pcb t pid with
  | None -> Mailbox.drop_upto outbox ~upto:upto.u
  | Some pcb ->
    if is_alive pcb then begin
      Mailbox.transfer_upto outbox ~upto:upto.u pcb.mailbox;
      mark_unscanned t pcb
    end
    else Mailbox.drop_upto outbox ~upto:upto.u

(* A bulk delivery left entries the receiver has not been rescanned over;
   until [rescan_worlds] reaches it, another copy's wake-up may run a
   sweep, whose pass must rescan it. Only a parked receiver can take
   them then: any other process scans before it next parks. *)
and mark_unscanned t pcb =
  match pcb.park with Some (Park_recv _) when is_alive pcb -> mark t pcb | _ -> ()

(* Move one outbox entry into a destination ring: framed entries are
   deep-copied into a destination frame (or materialised and spilled if
   the destination pool is exhausted); spilled entries share the
   immutable message value, exactly like the old heap path did. *)
and deliver_entry outbox pos dst =
  let fr = Mailbox.frame_at outbox pos in
  if Frame.occupied fr then begin
    if Mailbox.has_frame dst then Frame.copy_into fr (Mailbox.emplace_frame dst)
    else Mailbox.emplace_spilled dst (Frame.message fr)
  end
  else Mailbox.emplace_spilled dst (Mailbox.message_at outbox pos)

(* Deliver one outbox entry to every world copy of its destination. *)
and deliver_pos t outbox pos ~dest ~rescan =
  match Hashtbl.find t.worlds dest with
  | l -> (
    match !l with
    | [ pid ] -> deliver_pos_to t outbox pos pid ~rescan
    | pids ->
      List.iter
        (fun pid -> deliver_pos_to t outbox pos pid ~rescan)
        (List.rev pids))
  | exception Not_found -> deliver_pos_to t outbox pos dest ~rescan

and deliver_pos_to t outbox pos pid ~rescan =
  match find_pcb t pid with
  | None -> ()
  | Some pcb ->
    if is_alive pcb then begin
      let deliverable =
        (* Checked at delivery time, per destination copy: a site crash or
           partition that comes up while the message is in flight still
           loses it. The hook records its own trace events. *)
        match t.delivery_fault with
        | None -> true
        | Some f -> f (Mailbox.message_at outbox pos) ~dest:pid
      in
      if deliverable then begin
        deliver_entry outbox pos pcb.mailbox;
        if Trace.live t.trace_ then
          tr t (Trace.Delivered { dest = pid; msg = Mailbox.message_at outbox pos });
        if rescan then rescan_parked t pcb
      end
    end

and rescan_worlds t dest =
  match Hashtbl.find t.worlds dest with
  | l -> (
    match !l with
    | [ pid ] -> rescan_world_copy t pid
    | pids -> List.iter (fun pid -> rescan_world_copy t pid) (List.rev pids))
  | exception Not_found -> rescan_world_copy t dest

and rescan_world_copy t pid =
  match find_pcb t pid with
  | None -> ()
  | Some pcb -> if is_alive pcb then rescan_parked t pcb

(* Direct delivery for messages that bypass the outbox (delayed/reordered
   fault injections): already materialised, so the message value is shared
   into the receivers' rings via the spill path — one value for every
   copy, exactly as the heap path delivered it. *)
and deliver_msg t (msg : Message.t) =
  let copies =
    match Hashtbl.find_opt t.worlds msg.Message.dest with
    | Some l -> List.rev !l
    | None -> [ msg.Message.dest ]
  in
  List.iter
    (fun pid ->
      match find_pcb t pid with
      | Some pcb when is_alive pcb ->
        let deliverable =
          match t.delivery_fault with None -> true | Some f -> f msg ~dest:pid
        in
        if deliverable then begin
          Mailbox.emplace_spilled pcb.mailbox msg;
          tr t (Trace.Delivered { dest = pid; msg });
          rescan_parked t pcb
        end
      | _ -> ())
    copies

(* ------------------------------------------------------------------ *)
(* Public spawning / running.                                          *)

let fresh_pids t n = List.init n (fun _ -> Pid.Allocator.fresh t.alloc)

let spawn t ?pid ?parent ?(predicate = Predicate.empty) ?space
    ?(cloneable = true) ?(oblivious = false) ?(start_delay = 0.)
    ?(name = "proc") ?site body =
  let pid = match pid with Some p -> p | None -> Pid.Allocator.fresh t.alloc in
  (match parent with
  | Some pp -> Option.iter disable_cloning (find_pcb t pp)
  | None -> ());
  let pcb =
    make_pcb t ~pid ~logical:pid ~parent ~name ~predicate ~space ~cloneable
      ~oblivious ~body
  in
  register_world t pcb;
  t.live <- t.live + 1;
  assign_site t pcb ~explicit:site;
  pcb.shard <- shard_of_pcb t pcb;
  tr t (Trace.Spawned { pid; parent; name });
  (match t.spawn_hook with Some h -> h pid name | None -> ());
  schedule_on t pcb.shard ~at:(t.vnow +. start_delay) (fun () -> start_pcb t pcb);
  pid

let on_exit t pid f =
  match find_pcb t pid with
  | None -> invalid_arg "Engine.on_exit: unknown pid"
  | Some pcb -> (
    match pcb.state with
    | Dead st -> f st
    | _ -> pcb.exit_watchers <- f :: pcb.exit_watchers)

let on_resolution t pid f =
  match find_pcb t pid with
  | None -> invalid_arg "Engine.on_resolution: unknown pid"
  | Some pcb -> (
    match Fate_registry.normalize t.reg pcb.predicate with
    | `Dead -> f `Dead
    | `Live p when Predicate.is_certain p && is_alive pcb -> f `Certain
    | _ -> (
      match pcb.state with
      | Dead (Exited_ok) -> pcb.res_watchers <- f :: pcb.res_watchers
      | Dead _ -> f `Dead
      | _ -> pcb.res_watchers <- f :: pcb.res_watchers))

let preserve_space t pid =
  match find_pcb t pid with
  | None -> invalid_arg "Engine.preserve_space: unknown pid"
  | Some pcb -> pcb.preserve_space <- true

let after t ~delay thunk = schedule t ~at:(t.vnow +. delay) thunk

(* Move every staged cross-shard event due inside the conservative
   window [horizon] onto its destination shard's queue. The entries keep
   their global (time, stamp) keys, so the exchange is order-neutral;
   the window is the earliest next local event time plus the minimum
   message latency — no event executing inside it can create a delivery
   due inside it, which is exactly the conservative-lookahead safety
   argument. *)
let barrier_exchange t ~horizon =
  t.barriers <- t.barriers + 1;
  let n = t.nshards in
  Array.iteri
    (fun idx q ->
      let dst = idx mod n in
      let continue = ref true in
      while !continue do
        match Event_queue.peek_key q with
        | Some (time, _) when time <= horizon -> (
          match Event_queue.pop_entry q with
          | Some (time, seq, ev) ->
            Event_queue.push_stamped t.queues.(dst) ~time ~seq ev
          | None -> continue := false)
        | _ -> continue := false
      done)
    t.staged

(* The head (time, stamp) minimum across an array of queues, with the
   index it was found at. *)
let min_head qs =
  let best = ref None in
  Array.iteri
    (fun i q ->
      match Event_queue.peek_key q with
      | None -> ()
      | Some (tm, sq) -> (
        match !best with
        | Some (bt, bs, _) when bt < tm || (bt = tm && bs < sq) -> ()
        | _ -> best := Some (tm, sq, i)))
    qs;
  !best

let run t =
  t.stopped <- false;
  if t.nshards = 1 then begin
    (* The 1-shard loop is the PR 8 loop verbatim: no head comparisons,
       no staging, no barriers. *)
    let q = t.queues.(0) in
    let rec loop () =
      if not t.stopped then
        match Event_queue.pop q with
        | None -> ()
        | Some (time, ev) ->
          if ev.dead_ev then loop ()
          else begin
            t.vnow <- Float.max t.vnow time;
            t.events_processed <- t.events_processed + 1;
            t.shard_events.(0) <- t.shard_events.(0) + 1;
            ev.run_ev ();
            loop ()
          end
    in
    loop ()
  end
  else begin
    (* Conservative sharded loop: execute the globally minimal (time,
       stamp) head across the shard queues — byte-identical to the
       single-queue merge by construction — exchanging staged
       cross-shard events at a barrier whenever one would be next. *)
    let rec loop () =
      if not t.stopped then
        match (min_head t.queues, min_head t.staged) with
        | None, None -> ()
        | None, Some (st, _, _) ->
          barrier_exchange t ~horizon:(st +. t.lookahead);
          loop ()
        | Some (qt, qs, shard), staged ->
          let staged_first =
            match staged with
            | Some (st, ss, _) -> st < qt || (st = qt && ss < qs)
            | None -> false
          in
          if staged_first then begin
            barrier_exchange t ~horizon:(qt +. t.lookahead);
            loop ()
          end
          else begin
            match Event_queue.pop t.queues.(shard) with
            | None -> assert false (* peeked non-empty just above *)
            | Some (time, ev) ->
              if ev.dead_ev then loop ()
              else begin
                t.cur_shard <- shard;
                t.vnow <- Float.max t.vnow time;
                t.events_processed <- t.events_processed + 1;
                t.shard_events.(shard) <- t.shard_events.(shard) + 1;
                ev.run_ev ();
                loop ()
              end
          end
    in
    loop ()
  end

let run_for t duration =
  schedule t ~at:(t.vnow +. duration) (fun () -> t.stopped <- true);
  run t

(* ------------------------------------------------------------------ *)
(* In-process operations.                                              *)

let self ctx = ctx.pcb.pid
let engine ctx = ctx.engine
let now_v _ctx = Effect.perform E_now
let delay _ctx dt = Effect.perform (E_delay dt)
let space ctx = ctx.pcb.space

let charge_memory ctx =
  match ctx.pcb.space with
  | None -> ()
  | Some sp ->
    let c = Address_space.drain_cost sp in
    if c > 0. then delay ctx c

(* The messaging operations run on the caller's own stack instead of
   performing an effect: [send] never suspends, and the receives only
   perform a (park-only) effect when nothing queued is acceptable. Raising
   [Process_killed] / [Replay_divergence] directly is equivalent to the
   old handler's [discontinue]: we are already inside the fiber, and the
   exception unwinds to [run_body]'s [exnc] either way. *)

let check_doomed pcb =
  match pcb.doomed with
  | Some reason ->
    pcb.doomed <- None;
    raise (Process_killed reason)
  | None -> ()

let send ctx ?(tag = "") dest payload =
  let pcb = ctx.pcb in
  check_doomed pcb;
  match replay_next pcb with
  | Some L_sent -> ()
  | Some _ -> raise (Replay_divergence "expected send")
  | None ->
    log_push pcb L_sent;
    do_send ctx.engine pcb ~dest ~tag payload

let receive ctx ?tag () =
  let pcb = ctx.pcb in
  check_doomed pcb;
  match replay_next pcb with
  | Some (L_recv m) -> m
  | Some _ -> raise (Replay_divergence "expected receive")
  | None ->
    let m = try_receive ctx.engine pcb tag in
    if m != Mailbox.no_message then begin
      log_push pcb (L_recv m);
      m
    end
    else Effect.perform (E_recv tag)

let receive_timeout ctx ?tag ~timeout () =
  let pcb = ctx.pcb in
  check_doomed pcb;
  match replay_next pcb with
  | Some (L_recv_opt r) -> r
  | Some _ -> raise (Replay_divergence "expected receive_timeout")
  | None ->
    let m = try_receive ctx.engine pcb tag in
    if m != Mailbox.no_message then begin
      log_push pcb (L_recv_opt (Some m));
      Some m
    end
    else if timeout <= 0. then begin
      (* Poll-only: nothing acceptable is queued right now, report that
         immediately without parking. *)
      log_push pcb (L_recv_opt None);
      None
    end
    else Effect.perform (E_recv_timeout (tag, timeout))

(* A process mid-[delay] has its running total in its task's slot. *)
let cpu_time_of t pid =
  match find_pcb t pid with
  | Some { park = Some (Park_cpu { task; _ }); _ } when task.slot >= 0 ->
    Float.Array.get t.cpu_use task.slot
  | _ -> ( match Hashtbl.find_opt t.cpu_used pid with Some r -> !r | None -> 0.)

let total_cpu_time t =
  for i = 0 to t.cpu_n - 1 do
    let task = t.cpu_tasks.(i) in
    if task.ledger != no_ledger then task.ledger := Float.Array.get t.cpu_use i
  done;
  Hashtbl.fold (fun _ r acc -> acc +. !r) t.cpu_used 0.

let logical_of t pid = Option.map (fun p -> p.logical) (find_pcb t pid)
let space_of t pid = Option.bind (find_pcb t pid) (fun p -> p.space)
let name_of t pid = Option.map (fun p -> p.name) (find_pcb t pid)
let site_of t pid = Option.bind (find_pcb t pid) (fun p -> p.site)

let children_of t pid =
  pids_where t (fun pcb ->
      match pcb.parent with Some p -> Pid.equal p pid | None -> false)

let certain_of t pid =
  match Fate_registry.fate t.reg pid with
  | Some Predicate.Completed -> true
  | Some Predicate.Failed -> false
  | None -> (
    match find_pcb t pid with
    | None -> false
    | Some pcb -> (
      match Fate_registry.normalize t.reg pcb.predicate with
      | `Live p -> Predicate.is_certain p
      | `Dead -> false))
let abort _ctx reason = raise (Abort_process reason)
let random_bits _ctx = Effect.perform E_random
let my_predicate ctx = ctx.pcb.predicate

let is_certain ctx =
  match Fate_registry.normalize ctx.engine.reg ctx.pcb.predicate with
  | `Live p -> Predicate.is_certain p
  | `Dead -> false

module Ivar = struct
  type 'a t = { mutable value : 'a option; mutable waiters : (unit -> unit) list }

  let create () = { value = None; waiters = [] }

  let try_fill iv v =
    match iv.value with
    | Some _ -> false
    | None ->
      iv.value <- Some v;
      let ws = iv.waiters in
      iv.waiters <- [];
      List.iter (fun w -> w ()) ws;
      true

  let is_filled iv = iv.value <> None
  let peek iv = iv.value

  let read ctx iv =
    disable_cloning ctx.pcb;
    match iv.value with
    | Some v -> v
    | None -> (
      Effect.perform (E_park (fun ~wake -> iv.waiters <- iv.waiters @ [ wake ]));
      match iv.value with
      | Some v -> v
      | None ->
        failwith
          (Format.asprintf
             "Engine.Ivar.read: process %a (%s, %s) woken with the ivar still \
              empty"
             Pid.pp ctx.pcb.pid ctx.pcb.name
             (proc_state_string ctx.pcb.state)))

  let read_timeout ctx iv ~timeout =
    disable_cloning ctx.pcb;
    match iv.value with
    | Some v -> Some v
    | None when timeout <= 0. ->
      (* Poll-only: report the current state without parking. *)
      None
    | None ->
      let eng = ctx.engine in
      Effect.perform
        (E_park
           (fun ~wake ->
             let ev =
               schedule_cancellable eng ~at:(eng.vnow +. timeout) (fun () ->
                   wake ())
             in
             (* A fill arriving first retires the pending timeout event so
                it cannot drag the virtual clock to the deadline. *)
             iv.waiters <-
               iv.waiters
               @ [
                   (fun () ->
                     cancel_event ev;
                     wake ());
                 ]));
      iv.value
end
