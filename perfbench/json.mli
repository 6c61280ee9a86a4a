(** The one JSON writer every benchmark record goes through. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** written with all 17 significant digits; non-finite as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
