let check xs = if Array.length xs = 0 then invalid_arg "Stats: empty sample"

let sum xs = Array.fold_left ( +. ) 0. xs

let mean xs =
  check xs;
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  check xs;
  let m = mean xs in
  let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0. xs in
  acc /. float_of_int (Array.length xs)

let stddev xs = sqrt (variance xs)

let min xs =
  check xs;
  Array.fold_left Float.min xs.(0) xs

let max xs =
  check xs;
  Array.fold_left Float.max xs.(0) xs

let percentiles xs ~ps =
  check xs;
  Array.iter
    (fun p ->
      if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range")
    ps;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  Array.map
    (fun p ->
      if n = 1 then sorted.(0)
      else begin
        let rank = p /. 100. *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor rank) in
        let hi = Stdlib.min (lo + 1) (n - 1) in
        let frac = rank -. float_of_int lo in
        sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
      end)
    ps

let percentile xs ~p = (percentiles xs ~ps:[| p |]).(0)

let median xs = percentile xs ~p:50.

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let summarize xs =
  check xs;
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = min xs;
    max = max xs;
    median = median xs;
  }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.6g sd=%.6g min=%.6g med=%.6g max=%.6g" s.n
    s.mean s.stddev s.min s.median s.max
