(** Order statistics for the benchmark's samples. *)

val median : float list -> float
(** Middle sample, or the mean of the two middle samples.
    @raise Invalid_argument on an empty list. *)

val percentile : per_mille:int -> float list -> float
(** Nearest-rank percentile: the smallest sample with at least
    [per_mille]/1000 of the samples at or below it. *)

val beyond : n:int -> per_mille:int -> int
(** Samples of [n] that lie strictly above the nearest-rank percentile. *)

val reportable : n:int -> int option
(** The highest of p50, p90, p99 and p99.9 (in per mille) that has at least ten of [n]
    samples beyond it; [None] below twenty samples. *)

val summary : unit:string -> float list -> string
(** "median M unit, pXX V unit (n=N)", the percentile part only when
    {!reportable} allows one. *)
