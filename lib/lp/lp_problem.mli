(** Linear-program model builder.

    A thin, mutable builder for LPs of the shape

    {v min / max  c.x   s.t.   lb_i <= row_i . x  (cmp)  rhs_i,
                               lo_j <= x_j <= up_j v}

    Variables are identified by the integer handle returned from
    {!add_var}; handles are dense and index directly into the solution
    vector.  A problem is consumed by {!Revised} and {!Simplex} and
    written out by {!Lp_io.to_lp_format}. *)

type var = int

type sense = Minimize | Maximize

type cmp = Le | Ge | Eq

type term = float * var
(** A single [coefficient * variable] product. *)

type constr = {
  cname : string;
  terms : term list;
  cmp : cmp;
  rhs : float;
}

type t

val create : ?name:string -> unit -> t

val copy : t -> t
(** Independent copy: mutating the copy's bounds, objective, or rows
    never affects the original.  Used by the parallel branch-and-bound to
    give each domain its own problem to re-bound during search. *)

val name : t -> string

val add_var :
  t -> ?lb:float -> ?ub:float -> ?obj:float -> string -> var
(** [add_var t name] registers a variable and returns its handle.
    Default bounds are [0, +inf); [obj] is the objective coefficient
    (default [0.]).  [lb] may be [neg_infinity] and [ub] [infinity]. *)

val add_constr : t -> ?name:string -> term list -> cmp -> float -> unit
(** Append the constraint [terms cmp rhs].  Terms mentioning the same
    variable repeatedly are summed.  @raise Invalid_argument on an unknown
    variable handle. *)

val constr_at : t -> int -> constr
(** Row at index [i] (insertion order), without the copying cost of
    {!constraints}.  @raise Invalid_argument out of range. *)

val update_constr : t -> int -> term list -> cmp -> float -> unit
(** Rewrite the row at index [i] in place, keeping its name.  Used by the
    formulation layer to re-tighten per-pair big-M coefficients after
    variable bounds have shrunk.  @raise Invalid_argument on an unknown
    row or variable handle. *)

val truncate_constrs : t -> int -> unit
(** Drop every row with index [>= n], restoring the row count to [n].
    The branch-and-bound cut loop uses this as its stack discipline: rows
    appended at a node are truncated when the node is left.
    @raise Invalid_argument when [n] is negative or above the current
    count. *)

val remove_constrs : t -> int list -> unit
(** Remove the rows at the given indices (any order, duplicates allowed)
    and compact the remaining rows, preserving their relative order.
    Indices refer to positions before any removal.  @raise
    Invalid_argument on an out-of-range index. *)

val set_obj_coeff : t -> var -> float -> unit
val set_sense : t -> sense -> unit
val set_bounds : t -> var -> lb:float -> ub:float -> unit
(** Overwrite [v]'s bounds.  Marks [v]'s rows for the next
    {!propagate_bounds}. *)

val tighten_bounds : t -> var -> lb:float -> ub:float -> bool
(** [tighten_bounds t v ~lb ~ub] intersects [v]'s interval with
    [[lb, ub]].  Returns [false] — leaving the variable untouched — when
    the intersection is empty, so callers can fall back to an explicit
    (infeasible) constraint row instead of raising. *)

val propagate_bounds :
  ?max_sweeps:int ->
  ?integral:(var -> bool) ->
  ?extra:constr array ->
  t ->
  [ `Ok of (var * float * float) list
  | `Infeasible of (var * float * float) list ]
(** Row-driven interval propagation (feasibility-based bound
    tightening): sweep every row in insertion order, shrinking each
    variable's interval to what the other terms' intervals leave
    possible, until a fixpoint or [max_sweeps] (default 16) sweeps.
    [integral v] (default: nobody) marks variables whose tightened
    bounds may be snapped to the enclosed integer range — on 0-1
    variables that turns the interval sweep into implication
    propagation.  [extra] rows (default none) participate in every
    sweep without being part of the problem — callers holding valid
    inequalities outside the LP (a lazy cut pool) get their pruning
    power without their pricing cost.  Deterministic: same bounds in,
    same bounds out.

    Returns the first-touch undo list [(v, old_lb, old_ub)] of every
    changed variable — apply it with {!set_bounds} to restore —
    tagged [`Infeasible] when some interval emptied (beyond tolerance),
    in which case no feasible point existed under the entry bounds.
    Bounds are left in their tightened (possibly crossed) state either
    way; restoring is the caller's choice.

    The problem keeps the rows flattened between calls (the negated
    directions of [Ge] and [Eq] rows included), keyed on the physical
    row records of the problem and of [extra]: appending, truncating,
    removing or rewriting rows, or passing other [extra] rows, rebuilds
    it on the next call.  A call then allocates only its undo list.
    {!copy} starts without one, so copies can propagate on different
    domains.

    Clean rows are skipped.  A row is clean while its last evaluation
    tightened nothing and none of its variables' bounds has been written
    since: evaluating it again would tighten nothing, so skipping it
    changes no bound, no sweep count and no undo order.  A row becomes
    dirty when {!set_bounds} or a successful {!tighten_bounds} writes a
    bound of one of its variables, when a sweep tightens one, when the
    flattened rows are rebuilt, and when a call passes an [integral]
    predicate physically different from the previous call's (pass the
    same closure each time to keep the marks). *)

val objective_interval : t -> float * float
(** Interval of the objective function over the current bound box —
    [(lo, hi)] such that every point within bounds has objective in the
    interval.  A valid objective bound for pruning without a solve. *)

val num_vars : t -> int
val num_constrs : t -> int

val var_name : t -> var -> string
val var_lb : t -> var -> float
val var_ub : t -> var -> float
val obj_coeff : t -> var -> float
val sense : t -> sense
val constraints : t -> constr array
(** Snapshot of the current rows, in insertion order. *)

val objective_value : t -> float array -> float
(** Evaluate the objective at a point (no feasibility check). *)

val constraint_violation : t -> float array -> float
(** Maximum violation of any row or bound at a point; [0.] when feasible.
    Used by tests and by the MILP layer to sanity-check solutions. *)
