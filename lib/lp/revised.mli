(** Bounded-variable revised simplex.

    Solves the same problems as {!Simplex} but treats variable bounds as
    first class (nonbasic variables rest at their lower or upper bound)
    and keeps the basis as an LU factorization with product-form eta
    updates ({!Basis}).  Because the internal column space is exactly
    [structural variables + one logical per row], an optimal basis can be
    re-used by {!solve_from} after the bounds change — the
    branch-and-bound warm-start path, served by a dual-simplex phase.

    Tolerances: primal feasibility [1e-7], dual feasibility [1e-7]
    ([1e-6] when screening a warm basis), ratio-test pivot threshold
    [1e-9]; Dantzig pricing falls back to Bland's rule after [60]
    consecutive degenerate pivots.

    Fault sites (for {!Fp_util.Fault}, exercised by the resilience
    tests): ["revised.iteration_limit"] forces {!solve} / {!solve_from}
    / {!probe_sup_ws} to report [Iteration_limit]; ["basis.singular_lu"] makes
    {!solve_from} treat the snapshot's LU factorization as singular,
    taking the documented cold-solve fallback. *)

type snapshot
(** An immutable basis snapshot: which column is basic in each row
    position plus the rest status (lower / upper / free) of every
    nonbasic column.  Valid for any problem with the same variable and
    row counts — in particular for bound-only modifications of the
    problem that produced it. *)

type result =
  | Optimal of { x : float array; obj : float; basis : snapshot }
  | Infeasible
  | Unbounded
  | Iteration_limit

type stats = {
  primal_pivots : int;
  dual_pivots : int;
  refactorizations : int;
  warm : bool;
      (** [true] when the result was reached from the supplied snapshot;
          [false] on a cold solve or after a fallback. *)
}

val snapshot_basis : snapshot -> int array
(** The snapshot's basis (a copy): entry [i] is the column basic in row
    position [i], where columns are the structural variables followed by
    one logical per row.  For inspecting the bases a search meets. *)

val extend_snapshot : snapshot -> added:int -> snapshot
(** Adapt a snapshot to a problem that gained [added] appended rows
    (e.g. cutting planes): the new rows' logicals enter the basis, which
    keeps the basis nonsingular and — logicals being costless — dual
    feasible, so {!solve_from} repairs a violated cut with dual-simplex
    pivots instead of a cold solve. *)

val shrink_snapshot : snapshot -> removed_rows:int list -> snapshot option
(** Adapt a snapshot to the removal of the given row indices (as passed
    to {!Lp_problem.remove_constrs}).  Succeeds only when every removed
    row's logical is basic — true for a [Le] cut with positive slack at
    the snapshot's solution — because only then does deleting the row
    and its unit column preserve basis nonsingularity.  Returns [None]
    otherwise; the caller must then keep the rows. *)

val solve : ?max_iters:int -> Lp_problem.t -> result * stats
(** Cold solve: logical starting basis, primal phase 1 (violated bound
    sides relaxed with unit costs) when needed, then primal phase 2.
    Default budget is [50 * (rows + cols) + 2000] pivots. *)

val solve_from : ?max_iters:int -> snapshot -> Lp_problem.t -> result * stats
(** Warm solve from a previous optimal basis.  When the snapshot is
    still dual feasible (always true after a bound-only change), runs
    the dual simplex to repair primal feasibility; otherwise restarts
    primal phase 2 from the snapshot if it is primal feasible.  Falls
    back to a cold {!solve} on dimension mismatch, singular basis, or
    numerical failure. *)

(** {2 Reusing work across solves}

    The branch-and-bound solves thousands of LPs that differ only in
    variable bounds.  A {!workspace} keeps what those solves share; a
    {!factor_slot} lets sibling nodes share their parent basis's
    factorization.  Neither changes any pivot: results and stats are
    those of {!solve} / {!solve_from}. *)

type workspace
(** The standardized columns (compressed-column arrays) with costs and
    right-hand sides, the LU scratch, and the simplex vectors.  Each
    solve copies only the variable bounds and costs from the problem;
    the columns are rebuilt only when the problem's row records are not
    (physically) the ones they were built from — after appending,
    removing or rewriting rows.  One workspace serves one solve at a
    time, on one domain. *)

val workspace : unit -> workspace

type factor_slot
(** Holds the factorization of one snapshot's basis, made by the first
    {!solve_from_ws} that warm-starts from that snapshot and reused by
    the following ones (on the same workspace, while its columns are
    unchanged).  A factorization depends only on the matrix and the
    basis, so reuse is exact.  Mutable and unsynchronized: keep a slot
    on the domain that made it. *)

val factor_slot : ?uses:int -> unit -> factor_slot
(** [uses] (default: unlimited) is the number of warm solves expected to
    start from the slot; the one that starts last lets go of the
    factorization, so it need not stay alive while that solve's own
    subtree is explored. *)

val solve_ws : workspace -> ?max_iters:int -> Lp_problem.t -> result * stats
(** {!solve} in [workspace]. *)

type probe =
  | Below of float
      (** [Below b]: the optimum is at most [b], and [b <= threshold];
          the search stopped there, before reaching the optimum. *)
  | Solved of result  (** the search ran to its end. *)

val probe_sup_ws :
  workspace ->
  threshold:float ->
  Lp_problem.t ->
  probe * stats
(** Answers "is the maximum at most [threshold]?" on a [Maximize]
    problem, stopping as soon as the answer is yes.  A dual simplex from
    the logical basis with every costed variable at its
    objective-favourable bound: that start is dual feasible, its
    objective is the interval bound of the objective over the box, and
    each dual pivot lowers that bound.  Returns [Below b] once a basis
    proves the maximum is at most [b <= threshold] ([b] is the
    Lagrangian bound of the basis's duals, so a reduced cost that drifted
    to the wrong sign weakens it, to nothing on an unbounded range,
    rather than breaks it), and otherwise
    the optimum or [Infeasible] as {!solve_ws} would.  Falls back to
    {!solve_ws}'s cold solve when a favourable bound is infinite or the
    dual simplex bails (singular basis, iteration budget).  The
    ["revised.iteration_limit"] fault fires once per call, as in
    {!solve_ws}.  @raise Invalid_argument on a [Minimize] problem. *)

val solve_from_ws :
  workspace ->
  ?max_iters:int ->
  ?slot:factor_slot ->
  snapshot ->
  Lp_problem.t ->
  result * stats
(** {!solve_from} in [workspace], taking the snapshot's factorization
    from [slot] when it holds it and storing it there otherwise.  The
    ["basis.singular_lu"] fault fires once per call either way; a fired
    fault takes the cold fallback and leaves [slot] untouched. *)
