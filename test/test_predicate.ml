(* Tests for predicates (section 3.3 / 3.4.2 semantics) and the fate
   registry. *)

let check = Alcotest.check
let p n = Pid.of_int n

let pred completes fails =
  Predicate.make ~must_complete:(List.map p completes)
    ~must_fail:(List.map p fails)

let test_empty_certain () =
  check Alcotest.bool "empty is certain" true (Predicate.is_certain Predicate.empty);
  check Alcotest.int "cardinal" 0 (Predicate.cardinal Predicate.empty)

let test_make_inconsistent () =
  Alcotest.check_raises "inconsistent" (Invalid_argument "Predicate.make: inconsistent")
    (fun () -> ignore (pred [ 1 ] [ 1 ]))

let test_assume () =
  let q = Predicate.assume_completes Predicate.empty (p 1) in
  check Alcotest.bool "mem completes" true (Predicate.mem_completes q (p 1));
  check Alcotest.bool "not certain" false (Predicate.is_certain q);
  let q = Predicate.assume_fails q (p 2) in
  check Alcotest.bool "mem fails" true (Predicate.mem_fails q (p 2));
  check Alcotest.int "cardinal 2" 2 (Predicate.cardinal q);
  Alcotest.check_raises "conflicting assumption"
    (Invalid_argument "Predicate.assume_fails: pid already assumed to complete")
    (fun () -> ignore (Predicate.assume_fails q (p 1)));
  Alcotest.check_raises "conflicting assumption 2"
    (Invalid_argument "Predicate.assume_completes: pid already assumed to fail")
    (fun () -> ignore (Predicate.assume_completes q (p 2)))

let test_implies () =
  let r = pred [ 1; 2 ] [ 3 ] in
  check Alcotest.bool "subset implied" true (Predicate.implies r (pred [ 1 ] []));
  check Alcotest.bool "exact implied" true (Predicate.implies r (pred [ 1; 2 ] [ 3 ]));
  check Alcotest.bool "empty implied" true (Predicate.implies r Predicate.empty);
  check Alcotest.bool "superset not implied" false
    (Predicate.implies r (pred [ 1; 2; 4 ] [ 3 ]));
  check Alcotest.bool "fails side checked" false
    (Predicate.implies r (pred [] [ 5 ]))

let test_conflicts () =
  let r = pred [ 1 ] [ 2 ] in
  check Alcotest.bool "complete vs fail" true (Predicate.conflicts r (pred [] [ 1 ]));
  check Alcotest.bool "fail vs complete" true (Predicate.conflicts r (pred [ 2 ] []));
  check Alcotest.bool "disjoint no conflict" false
    (Predicate.conflicts r (pred [ 3 ] [ 4 ]));
  check Alcotest.bool "agreement no conflict" false
    (Predicate.conflicts r (pred [ 1 ] [ 2 ]))

let test_conjoin () =
  let a = pred [ 1 ] [ 2 ] and b = pred [ 3 ] [ 4 ] in
  let c = Predicate.conjoin a b in
  check Alcotest.int "union" 4 (Predicate.cardinal c);
  check Alcotest.bool "has both" true
    (Predicate.mem_completes c (p 1) && Predicate.mem_completes c (p 3));
  Alcotest.check_raises "conjoin conflict"
    (Invalid_argument "Predicate.conjoin: conflicting predicates") (fun () ->
      ignore (Predicate.conjoin a (pred [ 2 ] [])))

let test_resolve () =
  let q = pred [ 1 ] [ 2 ] in
  (match Predicate.resolve q ~pid:(p 1) ~fate:Predicate.Completed with
  | Predicate.Simplified q' ->
    check Alcotest.bool "assumption removed" false (Predicate.mem_completes q' (p 1))
  | _ -> Alcotest.fail "expected Simplified");
  (match Predicate.resolve q ~pid:(p 1) ~fate:Predicate.Failed with
  | Predicate.Falsified -> ()
  | _ -> Alcotest.fail "expected Falsified");
  (match Predicate.resolve q ~pid:(p 2) ~fate:Predicate.Failed with
  | Predicate.Simplified q' ->
    check Alcotest.bool "fail assumption removed" false (Predicate.mem_fails q' (p 2))
  | _ -> Alcotest.fail "expected Simplified");
  (match Predicate.resolve q ~pid:(p 2) ~fate:Predicate.Completed with
  | Predicate.Falsified -> ()
  | _ -> Alcotest.fail "expected Falsified");
  (match Predicate.resolve q ~pid:(p 9) ~fate:Predicate.Completed with
  | Predicate.Unchanged -> ()
  | _ -> Alcotest.fail "expected Unchanged")

let test_equal_compare () =
  check Alcotest.bool "equal" true (Predicate.equal (pred [ 1 ] [ 2 ]) (pred [ 1 ] [ 2 ]));
  check Alcotest.bool "not equal" false (Predicate.equal (pred [ 1 ] []) (pred [ 2 ] []));
  check Alcotest.int "compare self" 0 (Predicate.compare (pred [ 1 ] [ 2 ]) (pred [ 1 ] [ 2 ]))

let test_pp () =
  check Alcotest.string "printed" "{+P1 -P2}" (Predicate.to_string (pred [ 1 ] [ 2 ]))

let test_hash_consing () =
  (* Predicates are interned: structural equality coincides with physical
     equality, regardless of construction order or route. *)
  check Alcotest.bool "same lists, same box" true
    (pred [ 1; 2 ] [ 3 ] == pred [ 2; 1 ] [ 3 ]);
  check Alcotest.bool "assume route reaches the same box" true
    (Predicate.assume_completes (pred [ 1 ] [ 3 ]) (p 2) == pred [ 1; 2 ] [ 3 ]);
  check Alcotest.bool "conjoin route reaches the same box" true
    (Predicate.conjoin (pred [ 1 ] []) (pred [ 2 ] [ 3 ]) == pred [ 1; 2 ] [ 3 ]);
  check Alcotest.bool "empty is unique" true
    (pred [] [] == Predicate.empty);
  (* [resolve] re-interns its result. *)
  (match Predicate.resolve (pred [ 1; 2 ] []) ~pid:(p 2) ~fate:Predicate.Completed with
  | Predicate.Simplified q -> check Alcotest.bool "resolved box" true (q == pred [ 1 ] [])
  | _ -> Alcotest.fail "expected Simplified")

(* ---------------- Fate_registry ---------------- *)

let test_registry_record_and_fate () =
  let r = Fate_registry.create () in
  check Alcotest.bool "unknown" true (Fate_registry.fate r (p 1) = None);
  Fate_registry.record r (p 1) Predicate.Completed;
  check Alcotest.bool "recorded" true
    (Fate_registry.fate r (p 1) = Some Predicate.Completed);
  Fate_registry.record r (p 1) Predicate.Completed;
  Alcotest.check_raises "fates are immutable"
    (Invalid_argument "Fate_registry.record: fate already decided") (fun () ->
      Fate_registry.record r (p 1) Predicate.Failed);
  check Alcotest.int "decided" 1 (Fate_registry.decided r)

let test_registry_normalize () =
  let r = Fate_registry.create () in
  Fate_registry.record r (p 1) Predicate.Completed;
  Fate_registry.record r (p 2) Predicate.Failed;
  (match Fate_registry.normalize r (pred [ 1 ] [ 2 ]) with
  | `Live q -> check Alcotest.bool "fully resolved" true (Predicate.is_certain q)
  | `Dead -> Alcotest.fail "should be live");
  (match Fate_registry.normalize r (pred [ 2 ] []) with
  | `Dead -> ()
  | `Live _ -> Alcotest.fail "should be dead");
  (match Fate_registry.normalize r (pred [ 1; 5 ] []) with
  | `Live q ->
    check Alcotest.bool "residual assumption" true (Predicate.mem_completes q (p 5));
    check Alcotest.int "only one left" 1 (Predicate.cardinal q)
  | `Dead -> Alcotest.fail "should be live")

(* ---------------- properties ---------------- *)

let gen_pred =
  QCheck.make
    ~print:(fun q -> Predicate.to_string q)
    QCheck.Gen.(
      let* completes = list_size (int_range 0 5) (int_range 0 9) in
      let* fails = list_size (int_range 0 5) (int_range 10 19) in
      return
        (Predicate.make
           ~must_complete:(List.map Pid.of_int completes)
           ~must_fail:(List.map Pid.of_int fails)))

let prop_memoised_implies_conflicts =
  (* The memo caches must agree with a from-scratch structural check, on
     first use and on the cached second use. *)
  let subset a b = Pid.Set.subset a b in
  QCheck.Test.make ~name:"memoised implies/conflicts match structural truth"
    ~count:500 (QCheck.pair gen_pred gen_pred) (fun (r, s) ->
      let naive_implies =
        subset (Predicate.must_complete s) (Predicate.must_complete r)
        && subset (Predicate.must_fail s) (Predicate.must_fail r)
      in
      let naive_conflicts =
        (not
           (Pid.Set.is_empty
              (Pid.Set.inter (Predicate.must_complete r) (Predicate.must_fail s))))
        || not
             (Pid.Set.is_empty
                (Pid.Set.inter (Predicate.must_fail r) (Predicate.must_complete s)))
      in
      Predicate.implies r s = naive_implies
      && Predicate.implies r s = naive_implies
      && Predicate.conflicts r s = naive_conflicts
      && Predicate.conflicts r s = naive_conflicts)

let prop_implies_reflexive =
  QCheck.Test.make ~name:"implies is reflexive" ~count:300 gen_pred (fun q ->
      Predicate.implies q q)

let prop_conjoin_implies_both =
  QCheck.Test.make ~name:"conjoin implies both conjuncts" ~count:300
    (QCheck.pair gen_pred gen_pred) (fun (a, b) ->
      if Predicate.conflicts a b then true
      else begin
        let c = Predicate.conjoin a b in
        Predicate.implies c a && Predicate.implies c b
      end)

let prop_conflicts_symmetric =
  QCheck.Test.make ~name:"conflicts is symmetric" ~count:300
    (QCheck.pair gen_pred gen_pred) (fun (a, b) ->
      Predicate.conflicts a b = Predicate.conflicts b a)

let prop_empty_is_unit =
  QCheck.Test.make ~name:"empty is a unit for conjoin" ~count:300 gen_pred
    (fun q -> Predicate.equal (Predicate.conjoin q Predicate.empty) q)

let prop_resolve_shrinks =
  QCheck.Test.make ~name:"resolve never grows the predicate" ~count:300
    (QCheck.pair gen_pred (QCheck.int_bound 19)) (fun (q, n) ->
      match Predicate.resolve q ~pid:(Pid.of_int n) ~fate:Predicate.Completed with
      | Predicate.Unchanged -> true
      | Predicate.Falsified -> true
      | Predicate.Simplified q' -> Predicate.cardinal q' = Predicate.cardinal q - 1)

(* ---------------- interning ---------------- *)

(* A predicate as plain data: for each of [universe] pids, whether it is
   assumed to complete (1), to fail (2), or not named (0). *)
let universe = 24

let gen_sides = QCheck.Gen.(array_size (return universe) (int_range 0 2))

let pids_with sides v =
  List.filter_map
    (fun i -> if sides.(i) = v then Some (p i) else None)
    (List.init universe Fun.id)

let of_sides sides =
  Predicate.make ~must_complete:(pids_with sides 1) ~must_fail:(pids_with sides 2)

let arb_sides =
  QCheck.make
    ~print:(fun a -> String.concat "" (Array.to_list (Array.map string_of_int a)))
    gen_sides

(* Every construction route of one pid-set pair: [make], a shuffled chain
   of [assume_*], [extend] in one shot and from a prefix, [conjoin] of two
   halves, [resolve] of one extra assumption, and [Fate_registry.normalize]
   of several. *)
let routes sides shuffle =
  let c = pids_with sides 1 and f = pids_with sides 2 in
  let steps =
    List.map (fun x -> `C x) c @ List.map (fun x -> `F x) f
    |> List.mapi (fun i s -> (shuffle.(i mod Array.length shuffle), i, s))
    |> List.sort compare
    |> List.map (fun (_, _, s) -> s)
  in
  let chain =
    List.fold_left
      (fun q -> function
        | `C x -> Predicate.assume_completes q x
        | `F x -> Predicate.assume_fails q x)
      Predicate.empty steps
  in
  let half l = List.filteri (fun i _ -> i mod 2 = 0) l in
  let rest l = List.filteri (fun i _ -> i mod 2 = 1) l in
  let prefix = Predicate.make ~must_complete:(half c) ~must_fail:(rest f) in
  let extra = p (universe + 1) and extra2 = p (universe + 2) in
  let resolved =
    match
      Predicate.resolve
        (Predicate.assume_completes (of_sides sides) extra)
        ~pid:extra ~fate:Predicate.Completed
    with
    | Predicate.Simplified q -> q
    | _ -> Alcotest.fail "expected Simplified"
  in
  let normalized =
    let reg = Fate_registry.create () in
    Fate_registry.record reg extra Predicate.Completed;
    Fate_registry.record reg extra2 Predicate.Failed;
    match
      Fate_registry.normalize reg
        (Predicate.extend (of_sides sides) ~must_complete:[ extra ]
           ~must_fail:[ extra2 ])
    with
    | `Live q -> q
    | `Dead -> Alcotest.fail "expected Live"
  in
  [
    of_sides sides;
    chain;
    Predicate.extend Predicate.empty ~must_complete:c ~must_fail:f;
    Predicate.extend prefix ~must_complete:(rest c) ~must_fail:(half f);
    Predicate.conjoin prefix
      (Predicate.make ~must_complete:(rest c) ~must_fail:(half f));
    resolved;
    normalized;
  ]

let prop_routes_share_one_box =
  QCheck.Test.make ~name:"every route gives one box"
    ~count:300
    (QCheck.pair arb_sides (QCheck.make QCheck.Gen.(array_size (return 8) nat)))
    (fun (sides, shuffle) ->
      match routes sides shuffle with
      | first :: others -> List.for_all (fun q -> q == first) others
      | [] -> false)

let prop_box_iff_same_sets =
  QCheck.Test.make ~name:"one box iff equal sets"
    ~count:500 (QCheck.pair arb_sides arb_sides) (fun (a, b) ->
      let qa = of_sides a and qb = of_sides b in
      let same_sets =
        Pid.Set.equal (Predicate.must_complete qa) (Predicate.must_complete qb)
        && Pid.Set.equal (Predicate.must_fail qa) (Predicate.must_fail qb)
      in
      (qa == qb) = same_sets && Predicate.equal qa qb = same_sets)

(* A registry as plain data, most pids undecided (0), so that both
   verdicts are common: a pid is recorded Completed (1) or Failed (2). *)
let arb_fates =
  QCheck.make
    ~print:(fun a -> String.concat "" (Array.to_list (Array.map string_of_int a)))
    QCheck.Gen.(
      array_size (return universe)
        (frequency [ (6, return 0); (1, return 1); (1, return 2) ]))

(* The per-pid [resolve] fold [Fate_registry.normalize] used to run, kept
   as the reference for the one-intern version. *)
let normalize_by_fold reg pred =
  if Predicate.is_certain pred || Fate_registry.decided reg = 0 then `Live pred
  else
    let step pid acc =
      match acc with
      | `Dead -> `Dead
      | `Live q -> (
        match Fate_registry.fate reg pid with
        | None -> `Live q
        | Some f -> (
          match Predicate.resolve q ~pid ~fate:f with
          | Predicate.Unchanged -> `Live q
          | Predicate.Simplified q' -> `Live q'
          | Predicate.Falsified -> `Dead))
    in
    Pid.Set.fold step
      (Pid.Set.union (Predicate.must_complete pred) (Predicate.must_fail pred))
      (`Live pred)

let prop_normalize_matches_fold =
  QCheck.Test.make ~name:"normalize = per-pid resolve fold" ~count:1000
    (QCheck.pair arb_sides arb_fates) (fun (sides, fates) ->
      let reg = Fate_registry.create () in
      Array.iteri
        (fun i v ->
          if v = 1 then Fate_registry.record reg (p i) Predicate.Completed
          else if v = 2 then Fate_registry.record reg (p i) Predicate.Failed)
        fates;
      let q = of_sides sides in
      match (Fate_registry.normalize reg q, normalize_by_fold reg q) with
      | `Dead, `Dead -> true
      | `Live a, `Live b -> a == b
      | _ -> false)

(* Both verdicts, pinned on a fixed case. *)
let test_normalize_both_verdicts () =
  let reg = Fate_registry.create () in
  Fate_registry.record reg (p 1) Predicate.Completed;
  Fate_registry.record reg (p 2) Predicate.Failed;
  let dead = pred [ 2; 3 ] [ 4 ] and live = pred [ 1; 3 ] [ 2; 4 ] in
  check Alcotest.bool "dead by fold" true (normalize_by_fold reg dead = `Dead);
  check Alcotest.bool "dead" true (Fate_registry.normalize reg dead = `Dead);
  match (Fate_registry.normalize reg live, normalize_by_fold reg live) with
  | `Live a, `Live b ->
    check Alcotest.bool "same residue" true (a == b && a == pred [ 3 ] [ 4 ])
  | _ -> Alcotest.fail "expected Live"

(* The intern table grows by doubling as it fills; thousands of fresh
   predicates force several growths, and every one interned before them
   must still be found after. *)
let test_found_after_growth () =
  let fresh i = pred [ 100_000 + i ] [ 200_000 + (i / 3) ] in
  let first = List.init 64 fresh in
  let later = List.init 20_000 (fun i -> fresh (64 + i)) in
  List.iteri
    (fun i q ->
      if not (fresh i == q) then Alcotest.failf "predicate %d lost by growth" i)
    first;
  List.iteri
    (fun i q ->
      if not (fresh (64 + i) == q) then
        Alcotest.failf "predicate %d lost by growth" (64 + i))
    later

let test_extend () =
  let q = Predicate.extend (pred [ 1 ] [ 2 ]) ~must_complete:[ p 3 ] ~must_fail:[ p 4; p 5 ] in
  check Alcotest.bool "one box with make" true (q == pred [ 1; 3 ] [ 2; 4; 5 ]);
  check Alcotest.bool "nothing new, same box" true
    (Predicate.extend q ~must_complete:[ p 1 ] ~must_fail:[ p 4 ] == q);
  Alcotest.check_raises "complete vs fail"
    (Invalid_argument "Predicate.extend: inconsistent") (fun () ->
      ignore (Predicate.extend q ~must_complete:[ p 2 ] ~must_fail:[]));
  Alcotest.check_raises "both sides at once"
    (Invalid_argument "Predicate.extend: inconsistent") (fun () ->
      ignore (Predicate.extend q ~must_complete:[ p 7 ] ~must_fail:[ p 7 ]))

let () =
  Alcotest.run "predicate"
    [
      ( "predicate",
        [
          Alcotest.test_case "empty is certain" `Quick test_empty_certain;
          Alcotest.test_case "make rejects inconsistency" `Quick test_make_inconsistent;
          Alcotest.test_case "assume" `Quick test_assume;
          Alcotest.test_case "implies" `Quick test_implies;
          Alcotest.test_case "conflicts" `Quick test_conflicts;
          Alcotest.test_case "conjoin" `Quick test_conjoin;
          Alcotest.test_case "resolve" `Quick test_resolve;
          Alcotest.test_case "equal/compare" `Quick test_equal_compare;
          Alcotest.test_case "hash-consing" `Quick test_hash_consing;
          Alcotest.test_case "printing" `Quick test_pp;
          Alcotest.test_case "extend" `Quick test_extend;
          Alcotest.test_case "found after table growth" `Quick
            test_found_after_growth;
        ] );
      ( "fate_registry",
        [
          Alcotest.test_case "record and query" `Quick test_registry_record_and_fate;
          Alcotest.test_case "normalize" `Quick test_registry_normalize;
          Alcotest.test_case "normalize verdicts match the fold" `Quick
            test_normalize_both_verdicts;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_memoised_implies_conflicts;
            prop_implies_reflexive;
            prop_conjoin_implies_both;
            prop_conflicts_symmetric;
            prop_empty_is_unit;
            prop_resolve_shrinks;
            prop_routes_share_one_box;
            prop_box_iff_same_sets;
            prop_normalize_matches_fold;
          ] );
    ]
