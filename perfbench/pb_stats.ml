(* The benchmark's own arithmetic: the clock, allocation counters, the
   tail-percentile rule, medians, and ratios that carry their base. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Words allocated since start, summed over every domain: [Gc.quick_stat]
   folds in the other domains' counters as of their last minor
   collection, so the lag is at most one minor heap per domain. *)
let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Words allocated by the calling domain alone: an order of magnitude
   cheaper than [words], for spans around single-domain calls. *)
let domain_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* FNV-1a, 64-bit, for the benchmark's own output digests. *)
let fnv_init = 0xcbf29ce484222325L

let fnv1a h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

(* A growable buffer of unboxed samples. *)
module Samples = struct
  type t = { mutable data : Float.Array.t; mutable len : int }

  let create () = { data = Float.Array.create 1024; len = 0 }

  let add t x =
    if t.len = Float.Array.length t.data then begin
      let bigger = Float.Array.create (2 * t.len) in
      Float.Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    Float.Array.set t.data t.len x;
    t.len <- t.len + 1

  let to_array t = Array.init t.len (Float.Array.get t.data)
end

(* Candidate percentiles, in per mille, highest first. *)
let tail_candidates = [ 999; 990; 900; 500 ]

let beyond ~n per_mille = n * (1000 - per_mille) / 1000

(* The highest candidate percentile with at least ten samples beyond it,
   in percent; [None] below 20 samples. *)
let tail_percentile n =
  List.find_opt (fun pm -> beyond ~n pm >= 10) tail_candidates
  |> Option.map (fun pm -> float_of_int pm /. 10.)

(* [p] if [n] samples leave ten beyond it, else the rule's percentile. *)
let admissible ~n p =
  if beyond ~n (int_of_float (Float.round (p *. 10.))) >= 10 then Some p
  else tail_percentile n

(* Linear interpolation between order statistics, as [Servebench]
   computes its latency percentiles. *)
let percentile xs p = if xs = [||] then 0. else Stats.percentile xs ~p
let median xs = percentile xs 50.

type ratio = {
  value : float;  (* num / base, or 0 on an empty base *)
  num : float;
  base : float;
  base_name : string;  (* what the denominator counts *)
}

let ratio ~base_name num base =
  if base < 0. || num < 0. then invalid_arg "Pb_stats.ratio: negative term";
  { value = (if base = 0. then 0. else num /. base); num; base; base_name }

let complement r = { r with value = (if r.base = 0. then 0. else 1. -. r.value) }

let pp_base r = Printf.sprintf "%g / %g %s" r.num r.base r.base_name
let pp_ratio r = Printf.sprintf "%.6f (%s)" r.value (pp_base r)
