(** Order statistics over latency and duration samples. *)

val median : float list -> float
(** [nan] on an empty list. *)

val percentile : float list -> int -> float
(** [percentile xs p10] is the nearest-rank percentile [p10 / 10] of
    [xs] ([percentile xs 970] is p97); [nan] on an empty list. *)

val tail : float list -> (float * float) option
(** The highest of p99, p95, p90, p75 and p50 that has at least 10
    samples ranked after it, as [(percentile, value)]; [None] when even
    the median has fewer. *)

val sum : float list -> float

val mean : float list -> float
(** [nan] on an empty list. *)

