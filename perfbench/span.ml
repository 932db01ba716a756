(* In-memory spans recorded around the benchmark's calls into each layer.
   A span has a name, start, end, the span it ran under, and the op it
   belongs to; spans are written out once the run ends. A disabled
   recorder runs the wrapped call and records nothing. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  op : int;  (* -1 when the span belongs to no single op *)
  t0 : float;
  t1 : float;
  words : float;  (* words allocated while the span was open *)
}

type t = {
  enabled : bool;
  count_words : unit -> float;
  mutable rev : span list;
  mutable next : int;
  mutable stack : int list;
}

(* [words] counts allocation: {!Pb_stats.words} when the wrapped calls
   fan out over domains, the cheaper {!Pb_stats.domain_words} when they
   run on the calling domain alone. *)
let create ?(words = Pb_stats.domain_words) ~enabled () =
  { enabled; count_words = words; rev = []; next = 0; stack = [] }

let with_ t ?(op = -1) name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let w0 = t.count_words () and t0 = Pb_stats.now () in
    let close () =
      let t1 = Pb_stats.now () in
      t.stack <- List.tl t.stack;
      t.rev <- { id; name; parent; op; t0; t1; words = t.count_words () -. w0 } :: t.rev
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Spans in id (= start) order. *)
let spans t =
  let a = Array.of_list t.rev in
  Array.sort (fun a b -> compare a.id b.id) a;
  a

let duration s = s.t1 -. s.t0

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Each span's duration minus the part of it its direct children cover.
   Ids must be dense from 0, as one recorder hands them out. *)
let self_times spans =
  let kids = Array.make (Array.length spans) [] in
  Array.iteri
    (fun i c ->
      if c.id <> i then invalid_arg "Span.self_times: ids not dense";
      if c.parent >= 0 then kids.(c.parent) <- (c.t0, c.t1) :: kids.(c.parent))
    spans;
  Array.map (fun s -> duration s -. covered ~lo:s.t0 ~hi:s.t1 kids.(s.id)) spans

(* Share of [lo, hi] covered by the spans [select] keeps. *)
let coverage spans ~lo ~hi ~select =
  let kept =
    Array.fold_left
      (fun acc s -> if select s then (s.t0, s.t1) :: acc else acc)
      [] spans
  in
  if hi <= lo then 0. else covered ~lo ~hi kept /. (hi -. lo)

type summary = {
  s_name : string;
  s_count : int;
  s_total : float;  (* seconds *)
  s_self : float;  (* seconds *)
  s_words : float;
}

(* Per-name totals, in first-start order. *)
let summarize spans =
  let self = self_times spans in
  let order = ref [] and tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let prev =
        match Hashtbl.find_opt tbl s.name with
        | Some p -> p
        | None ->
            order := s.name :: !order;
            { s_name = s.name; s_count = 0; s_total = 0.; s_self = 0.; s_words = 0. }
      in
      Hashtbl.replace tbl s.name
        {
          prev with
          s_count = prev.s_count + 1;
          s_total = prev.s_total +. duration s;
          s_self = prev.s_self +. self.(i);
          s_words = prev.s_words +. s.words;
        })
    spans;
  List.rev_map (Hashtbl.find tbl) !order

let to_jsonl spans =
  let b = Buffer.create 4096 in
  Array.iter
    (fun s ->
      Printf.bprintf b
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start_s\":%.9f,\
         \"end_s\":%.9f,\"alloc_words\":%.0f}\n"
        s.id s.name s.parent s.op s.t0 s.t1 s.words)
    spans;
  Buffer.contents b
