(** Just enough JSON to print the benchmark's result line and trace. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values print as [null] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
