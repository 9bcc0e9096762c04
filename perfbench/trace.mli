(** In-memory spans around the calls the benchmark makes.

    A span has a name, a start and an end, the span that was open when
    it began, and optionally the augmentation step it belongs to.  Spans
    stay in memory until {!write_chrome} writes them out as Chrome
    trace-event JSON, which Perfetto and chrome://tracing open. *)

type span = {
  id : int;
  name : string;
  start : float;  (** seconds *)
  stop : float;
  parent : int option;
  step : int option;
}

type t

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] defaults to [Unix.gettimeofday]. *)

val now : t -> float

val with_span : t -> ?step:int -> string -> (unit -> 'a) -> 'a
(** Time [f ()] as a child of the innermost open span.  The span is
    recorded even when [f] raises. *)

val record : t -> ?step:int -> string -> start:float -> stop:float -> unit
(** Record an interval measured by the caller, as a child of the
    innermost open span. *)

val spans : t -> span list
(** Every recorded span, in order of start time. *)

val duration : span -> float

val children : span list -> span -> span list

val covered : lo:float -> hi:float -> (float * float) list -> float
(** Length of the part of [\[lo, hi\]] that the union of the intervals
    covers. *)

val self_time : span -> (float * float) list -> float
(** The span's duration minus the part of its interval the given child
    intervals cover. *)

val write_chrome : string -> span list -> unit
(** Write the spans as complete ("ph":"X") trace events, in
    microseconds from the first span's start. *)
