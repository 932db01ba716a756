(* Predicates are hash-consed: every value is interned in a global table,
   so structurally equal predicates are physically equal and carry one
   globally unique [id]. The engine compares predicates on every message
   delivery; interning turns those comparisons into pointer equality in
   the common case and lets [implies]/[conflicts] memoise on id pairs.

   Determinism contract: intern ids depend on allocation order and so may
   differ between runs and domains — they must never influence anything
   observable. [equal] is id-based (sound because ids are unique per
   structure), but [compare] remains structural so that any ordering
   derived from it is schedule-independent. *)

type t = { id : int; hash : int; completes : Pid.Set.t; fails : Pid.Set.t }

(* The stored hash is the wrapping sum of one mixed word per element,
   each side under its own salt, so it is a function of the two sets
   alone (not of tree shape or insertion order), and adding or removing
   one element adjusts it in O(1). [mix] is the splitmix64 finaliser
   with its constants cut to OCaml's 63-bit ints. *)
let mix x =
  let x = x * 0x1ce4e5b9bf58476d in
  let x = x lxor (x lsr 29) in
  let x = x * 0x133111eb94d049bb in
  x lxor (x lsr 32)

let mix_c p = mix (Pid.to_int p lxor 0x2545f4914f6cdd1d)
let mix_f p = mix (Pid.to_int p lxor 0x3c6ef372fe94f82b)

let hash_of completes fails =
  let h = Pid.Set.fold (fun p h -> h + mix_c p) completes 0 in
  Pid.Set.fold (fun p h -> h + mix_f p) fails h

(* The intern table: chains keyed by the stored hash. A probe compares
   hashes first and walks the sets only on a hash match, which short of
   a full-width collision is the predicate being looked up. The walk is
   membership tests, which allocate nothing, where [Pid.Set.equal] would
   allocate an enumeration per tree level. *)
let set_equal a b =
  a == b
  || Pid.Set.cardinal a = Pid.Set.cardinal b
     && Pid.Set.for_all (fun p -> Pid.Set.mem p b) a

let same h completes fails p =
  p.hash = h && set_equal p.completes completes && set_equal p.fails fails

let absent = { id = -1; hash = 0; completes = Pid.Set.empty; fails = Pid.Set.empty }

let rec probe h completes fails = function
  | [] -> absent
  | p :: rest -> if same h completes fails p then p else probe h completes fails rest

type table = { mutable buckets : t list array; mutable count : int }

(* Engines running in sibling domains (parallel sweeps) share the table;
   the lock is uncontended in single-domain runs, and held only for the
   probe and the insertion: every hash is computed before it is taken. *)
let intern_lock = Mutex.create ()
let table = { buckets = Array.make 1024 []; count = 0 }
let next_id = ref 0

let grow () =
  let old = table.buckets in
  let buckets = Array.make (2 * Array.length old) [] in
  let mask = Array.length buckets - 1 in
  Array.iter
    (List.iter (fun p ->
         let i = p.hash land mask in
         buckets.(i) <- p :: buckets.(i)))
    old;
  table.buckets <- buckets

(* [h] must be [hash_of completes fails]. *)
let intern h completes fails =
  Mutex.lock intern_lock;
  let i = h land (Array.length table.buckets - 1) in
  let r = probe h completes fails table.buckets.(i) in
  let r =
    if r != absent then r
    else begin
      let p = { id = !next_id; hash = h; completes; fails } in
      incr next_id;
      table.buckets.(i) <- p :: table.buckets.(i);
      table.count <- table.count + 1;
      if table.count > Array.length table.buckets then grow ();
      p
    end
  in
  Mutex.unlock intern_lock;
  r

let empty = intern 0 Pid.Set.empty Pid.Set.empty

let consistent ~completes ~fails = Pid.Set.disjoint completes fails

let make ~must_complete ~must_fail =
  let completes = Pid.Set.of_list must_complete in
  let fails = Pid.Set.of_list must_fail in
  if not (consistent ~completes ~fails) then
    invalid_arg "Predicate.make: inconsistent";
  intern (hash_of completes fails) completes fails

let must_complete t = t.completes
let must_fail t = t.fails
let is_certain t = t == empty
let cardinal t = Pid.Set.cardinal t.completes + Pid.Set.cardinal t.fails

let assume_completes t pid =
  if Pid.Set.mem pid t.fails then
    invalid_arg "Predicate.assume_completes: pid already assumed to fail";
  if Pid.Set.mem pid t.completes then t
  else intern (t.hash + mix_c pid) (Pid.Set.add pid t.completes) t.fails

let assume_fails t pid =
  if Pid.Set.mem pid t.completes then
    invalid_arg "Predicate.assume_fails: pid already assumed to complete";
  if Pid.Set.mem pid t.fails then t
  else intern (t.hash + mix_f pid) t.completes (Pid.Set.add pid t.fails)

(* Several assumptions, one intern: the intermediate predicates a chain of
   [assume_*] calls would intern are never built. *)
let extend t ~must_complete ~must_fail =
  let completes = List.fold_left (fun s p -> Pid.Set.add p s) t.completes must_complete in
  let fails = List.fold_left (fun s p -> Pid.Set.add p s) t.fails must_fail in
  if not (consistent ~completes ~fails) then
    invalid_arg "Predicate.extend: inconsistent";
  if completes == t.completes && fails == t.fails then t
  else intern (hash_of completes fails) completes fails

let mem_completes t pid = Pid.Set.mem pid t.completes
let mem_fails t pid = Pid.Set.mem pid t.fails

(* ------------------------------------------------------------------ *)
(* Memoised binary tests. The cache key packs both interned ids into one
   immediate int (31 bits each); predicates with larger ids — never seen
   in practice — skip the cache. Caches are domain-local, so no lock is
   taken on the hot path, and bounded. *)

let memo_limit = 32768
let id_limit = 0x4000_0000

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = mix
end)

type caches = { implies_c : bool Int_tbl.t; conflicts_c : bool Int_tbl.t }

let caches_key =
  Domain.DLS.new_key (fun () ->
      { implies_c = Int_tbl.create 1024; conflicts_c = Int_tbl.create 1024 })

let memo cache k compute =
  match Int_tbl.find cache k with
  | v -> v
  | exception Not_found ->
    if Int_tbl.length cache >= memo_limit then Int_tbl.reset cache;
    let v = compute () in
    Int_tbl.add cache k v;
    v

let implies r s =
  (* Physical fast path: every predicate implies itself, and the certain
     predicate is implied by everything. *)
  if r == s || s == empty then true
  else if r.id < id_limit && s.id < id_limit then
    memo (Domain.DLS.get caches_key).implies_c
      ((r.id lsl 31) lor s.id)
      (fun () ->
        Pid.Set.subset s.completes r.completes && Pid.Set.subset s.fails r.fails)
  else Pid.Set.subset s.completes r.completes && Pid.Set.subset s.fails r.fails

let conflicts r s =
  (* A predicate is internally consistent, so it cannot conflict with
     itself; the certain predicate conflicts with nothing. *)
  if r == s || r == empty || s == empty then false
  else if r.id < id_limit && s.id < id_limit then
    memo (Domain.DLS.get caches_key).conflicts_c
      ((r.id lsl 31) lor s.id)
      (fun () ->
        (not (Pid.Set.disjoint r.completes s.fails))
        || not (Pid.Set.disjoint r.fails s.completes))
  else
    (not (Pid.Set.disjoint r.completes s.fails))
    || not (Pid.Set.disjoint r.fails s.completes)

let conjoin r s =
  if conflicts r s then invalid_arg "Predicate.conjoin: conflicting predicates";
  if r == s || s == empty then r
  else if r == empty then s
  else
    let completes = Pid.Set.union r.completes s.completes in
    let fails = Pid.Set.union r.fails s.fails in
    intern (hash_of completes fails) completes fails

(* Interning makes structural equality coincide with id equality. *)
let equal a b = a == b || a.id = b.id

let compare a b =
  let c = Pid.Set.compare a.completes b.completes in
  if c <> 0 then c else Pid.Set.compare a.fails b.fails

type fate = Completed | Failed

type resolution = Unchanged | Simplified of t | Falsified

let resolve t ~pid ~fate =
  match fate with
  | Completed ->
    if Pid.Set.mem pid t.fails then Falsified
    else if Pid.Set.mem pid t.completes then
      Simplified (intern (t.hash - mix_c pid) (Pid.Set.remove pid t.completes) t.fails)
    else Unchanged
  | Failed ->
    if Pid.Set.mem pid t.completes then Falsified
    else if Pid.Set.mem pid t.fails then
      Simplified (intern (t.hash - mix_f pid) t.completes (Pid.Set.remove pid t.fails))
    else Unchanged

exception Falsified_world

(* Every decided pid at once, then one intern of the residue. A
   predicate never names a pid on both sides, so the verdict cannot
   depend on the order the pids are resolved in. *)
let resolve_all t ~fate_of =
  let keep_c p =
    match fate_of p with
    | None -> true
    | Some Completed -> false
    | Some Failed -> raise_notrace Falsified_world
  in
  let keep_f p =
    match fate_of p with
    | None -> true
    | Some Failed -> false
    | Some Completed -> raise_notrace Falsified_world
  in
  match Pid.Set.filter keep_c t.completes with
  | exception Falsified_world -> Falsified
  | completes -> (
    match Pid.Set.filter keep_f t.fails with
    | exception Falsified_world -> Falsified
    | fails ->
      if completes == t.completes && fails == t.fails then Unchanged
      else Simplified (intern (hash_of completes fails) completes fails))

let pp ppf t =
  let items =
    List.map (fun p -> "+" ^ Pid.to_string p) (Pid.Set.elements t.completes)
    @ List.map (fun p -> "-" ^ Pid.to_string p) (Pid.Set.elements t.fails)
  in
  Format.fprintf ppf "{%s}" (String.concat " " items)

let to_string t = Format.asprintf "%a" pp t
