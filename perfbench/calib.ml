(* The reference kernel: a fixed piece of OCaml work timed between the
   benchmark's passes and set-ups, so that host time can be stated in
   reference seconds: the time a host that runs one unit in [ref_unit_s]
   would take.

   On a shared host the speed of this process moves by half or more
   within seconds (other tenants' load). Work timed in the same process
   just before and after a pass slows down with it, so a pass's wall
   time rescaled by [ref_unit_s / unit_s] holds steady where the wall
   time does not. The kernel does what the program does most, small
   allocations, balanced-tree inserts, hashing and sorting, on data small
   enough to die young: it hands the program's major heap almost no
   work, so a change to the program's memory use does not move the unit.

   The kernel and [ref_unit_s] are part of the benchmark's definition:
   changing either changes every figure in reference seconds. [checksum]
   pins the kernel. *)

module IM = Map.Make (Int)

let round r =
  let m = ref IM.empty in
  for i = 0 to 255 do
    m := IM.add (((i * 7919) + r) land 0xffff) i !m
  done;
  let h = Hashtbl.create 64 in
  for i = 0 to 255 do
    Hashtbl.replace h ((i * 31) + r) (string_of_int i)
  done;
  let l = List.sort compare (List.init 256 (fun i -> ((i * 48271) + r) mod 65521)) in
  IM.fold (fun k v a -> a + (k lxor v)) !m 0
  + Hashtbl.fold (fun k v a -> a + k + String.length v) h 0
  + List.fold_left ( + ) 0 l

let rounds = 64

(* One reference unit of work; its result is [checksum]. *)
let work () =
  let acc = ref 0 in
  for r = 0 to rounds - 1 do
    acc := !acc + round r
  done;
  !acc

let checksum = 1_147_353_472

(* The nominal unit: about what one unit takes on a 2-core x86-64 cloud
   VM (Intel Xeon, OCaml 5) between other tenants' bursts. *)
let ref_unit_s = 0.005

(* [wall] seconds measured while one unit took [unit_s], in reference
   seconds. *)
let ref_seconds ~wall ~unit_s = wall *. ref_unit_s /. unit_s

(* Seconds one unit takes now: the median of at least three units, run
   until [budget] seconds have passed. *)
let unit_s ~budget () =
  let samples = Pb_stats.Samples.create () in
  let stop = Pb_stats.now () +. budget in
  let rec go n =
    let t0 = Pb_stats.now () in
    ignore (Sys.opaque_identity (work ()));
    let t1 = Pb_stats.now () in
    Pb_stats.Samples.add samples (t1 -. t0);
    if n + 1 < 3 || t1 < stop then go (n + 1)
  in
  go 0;
  Pb_stats.median (Pb_stats.Samples.to_array samples)
