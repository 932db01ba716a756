(** Small descriptive-statistics helpers used by the benchmark harness and
    the analytic model (section 4 of the paper reasons about means and
    dispersion of execution times). *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Population variance. *)

val stddev : float array -> float

val min : float array -> float
val max : float array -> float

val percentile : float array -> p:float -> float
(** [percentile xs ~p] with [p] in [\[0,100\]], linear interpolation between
    order statistics. The input need not be sorted. *)

val percentiles : float array -> ps:float array -> float array
(** [percentiles xs ~ps] is [Array.map (fun p -> percentile xs ~p) ps],
    bit for bit, from one sorted copy of [xs] instead of one per rank. *)

val median : float array -> float

val sum : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

val summarize : float array -> summary
val pp_summary : Format.formatter -> summary -> unit
