(** The open-loop load generator: its seeded schedule and its send/receive
    loop, written against an injectable clock and transport so a stalled
    generator can be tested without a daemon. *)

val mix : int -> int -> int
(** A sub-seed derived from two integers (the stdlib generator's seeding
    hash): independent streams from one workload seed. *)

val zipf_weights : n:int -> s:float -> float array
(** Probabilities of ranks [0 .. n-1], proportional to [1/(r+1)^s]. *)

val apportion : float array -> int -> int array
(** [apportion weights total]: whole counts summing to [total], in
    proportion to [weights] (largest remainders). *)

val shuffle : seed:int -> 'a array -> unit
(** Seeded Fisher-Yates shuffle in place. *)

val arrivals : seed:int -> rate:float -> duration:float -> float array
(** Arrival offsets (seconds from the phase start) of a Poisson process
    at [rate] requests per second over [duration], conditioned on its
    expected count: [round (rate *. duration)] sorted uniform draws, so
    the offered load is the same for every seed.  Derived only from
    [seed]. *)

type outcome = {
  latency : float array;
      (** per request, from its due time to its response; [nan] if no
          response arrived *)
  sent_at : float array;  (** clock time each request was written *)
  late_max : float;  (** the largest amount a send missed its due time by *)
  missing : int;  (** requests without a response when the loop gave up *)
}

val run :
  now:(unit -> float) ->
  send:(int -> unit) ->
  poll:(timeout:float -> (int * float) list) ->
  ?tick:(unit -> unit) ->
  ?cadence:float ->
  start:float ->
  due:float array ->
  drain_timeout:float ->
  unit ->
  outcome
(** Send request [i] as soon as [now () >= start +. due.(i)], never
    waiting for a response first; between sends, [poll ~timeout] waits
    up to [timeout] for responses and returns [(request, receive time)]
    pairs.  [tick] runs every [cadence] seconds (the status poll).
    After the last send the loop drains for at most [drain_timeout]. *)
