(* Keyed by the raw pid: pids are dense per engine, so the identity hash
   spreads them evenly. The stored values are the two static options, so
   a lookup allocates nothing. *)
module Tbl = Hashtbl.Make (struct
  type t = Pid.t

  let equal = Pid.equal
  let hash = Pid.to_int
end)

type t = Predicate.fate option Tbl.t

let create () : t = Tbl.create 64

let fate t pid = match Tbl.find t pid with f -> f | exception Not_found -> None

let completed = Some Predicate.Completed
let failed = Some Predicate.Failed

let record t pid f =
  match fate t pid with
  | None ->
    Tbl.replace t pid (match f with Predicate.Completed -> completed | Predicate.Failed -> failed)
  | Some f' when f' = f -> ()
  | Some _ -> invalid_arg "Fate_registry.record: fate already decided"

let normalize t pred =
  (* Certain predicates (the overwhelmingly common case on the message
     path) and empty registries have nothing to resolve. *)
  if Predicate.is_certain pred || Tbl.length t = 0 then `Live pred
  else
    match Predicate.resolve_all pred ~fate_of:(fate t) with
    | Predicate.Unchanged -> `Live pred
    | Predicate.Simplified p -> `Live p
    | Predicate.Falsified -> `Dead

let decided t = Tbl.length t
