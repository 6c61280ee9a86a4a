(** In-memory spans for the traced run.

    A span is a named interval with an optional parent span and request
    id.  Spans opened with {!with_span} nest by call structure.  Nothing
    is written until the run ends ({!write_chrome}). *)

type t

val create : ?clock:(unit -> float) -> unit -> t
(** A recorder; [clock] defaults to [Unix.gettimeofday]. *)

val with_span : t -> ?request:int -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span whose parent is the innermost open
    span.  The span is closed on return and on exception. *)

type total = { calls : int; total_s : float; self_s : float }

val totals : t -> (string * total) list
(** Per span name, sorted by name; [self_s] is the time not spent in
    child spans. *)

val total : (string * total) list -> string -> total
(** Look a name up in {!totals}; [{calls = 0; ...}] for a name never
    recorded. *)

val write_chrome : t -> string -> unit
(** Write the spans as Chrome trace-event JSON (complete events, µs). *)
